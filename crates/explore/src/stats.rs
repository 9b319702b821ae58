//! Per-run search counters with deterministic JSON export.
//!
//! Everything here is a pure count of search events — no wall-clock times
//! (the workspace's `det-time` lint bans ambient clocks in every engine
//! crate). Throughput (states/sec) is derived where timing is legitimate:
//! the standalone `ledger/` package times calls into the public API from
//! outside and reports `states_per_s` beside these counters.

/// Counters for one `Search` run.
///
/// Field order below is the JSON key order; [`SearchStats::to_json`] is
/// byte-deterministic for equal runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Search strategy: always `"bfs"`, the only one there is.
    pub strategy: &'static str,
    /// Worker threads requested ([`crate::Search::workers`]), recorded for
    /// the log on every route. No route starts any; every search is
    /// single-threaded whatever this says. Output-invariant.
    pub workers: usize,
    /// Fixed partition count the frontier is split across.
    pub partitions: usize,
    /// Fingerprint seed.
    pub seed: u64,
    /// BFS levels completed.
    pub levels: usize,
    /// States expanded (`enabled` calls).
    pub expansions: usize,
    /// Transitions that led to an already-fingerprinted state.
    pub dedup_hits: usize,
    /// Successors changed by the canonicalization hook (orbit collapses).
    pub canon_hits: usize,
    /// Largest frontier held at once.
    pub peak_frontier: usize,
    /// BFS levels where the `max_states` cap could have bound
    /// (`visited + level children > max_states`). Both level bodies check
    /// the cap inline per child on every level, so the count is only a
    /// census. A pure function of the space and bounds — identical on both
    /// routes.
    pub cap_fallbacks: usize,
    /// Peak bytes held by the visited set and frontier together, sampled
    /// at level boundaries. Deterministic *shallow* accounting (table
    /// slots and entries + frontier records at fixed per-item widths — see
    /// `docs/EXTMEM.md`), not an RSS syscall: the same run always reports
    /// the same number, and spilling shards to disk lowers it. The one
    /// stat that legitimately differs between a resident and a spilled run
    /// of the same model — report comparisons mask it.
    ///
    /// The table is priced as the link-carrying one a pausable run keeps
    /// (12 bytes a slot plus a parent link per entry) on every route, so
    /// [`crate::Search::explore`] and a resume that can never pause again,
    /// whose tables keep keys only, report the same figure as a run that
    /// keeps links: for them, an upper bound
    /// (`docs/EXPLORE.md`, "The visited table").
    pub peak_bytes: usize,
    /// Always 0 on every search: no route runs a worker pool to steal
    /// from. Kept only for the ledger's `pool.steals` row; ROADMAP item
    /// 1(a) retires it.
    pub steals: usize,
    /// Always 0 on every search, like [`SearchStats::steals`], and kept
    /// for the same reason.
    pub stolen_shards: usize,
}

impl SearchStats {
    pub(crate) fn new(workers: usize, partitions: usize, seed: u64) -> Self {
        SearchStats {
            strategy: "bfs",
            workers,
            partitions,
            seed,
            levels: 0,
            expansions: 0,
            dedup_hits: 0,
            canon_hits: 0,
            peak_frontier: 0,
            cap_fallbacks: 0,
            peak_bytes: 0,
            steals: 0,
            stolen_shards: 0,
        }
    }

    /// Deterministic single-line JSON: fixed key order, no whitespace
    /// variation, integers only. Equal stats encode to equal bytes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"strategy\":\"{}\",\"workers\":{},\"partitions\":{},\"seed\":{},\"levels\":{},\"expansions\":{},\"dedup_hits\":{},\"canon_hits\":{},\"peak_frontier\":{},\"cap_fallbacks\":{},\"peak_bytes\":{},\"steals\":{},\"stolen_shards\":{}}}",
            self.strategy,
            self.workers,
            self.partitions,
            self.seed,
            self.levels,
            self.expansions,
            self.dedup_hits,
            self.canon_hits,
            self.peak_frontier,
            self.cap_fallbacks,
            self.peak_bytes,
            self.steals,
            self.stolen_shards,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_complete() {
        let mut s = SearchStats::new(2, 64, 7);
        s.levels = 3;
        s.expansions = 10;
        s.dedup_hits = 4;
        s.canon_hits = 1;
        s.peak_frontier = 5;
        s.cap_fallbacks = 2;
        s.peak_bytes = 99;
        s.steals = 6;
        s.stolen_shards = 372;
        assert_eq!(
            s.to_json(),
            "{\"strategy\":\"bfs\",\"workers\":2,\"partitions\":64,\"seed\":7,\"levels\":3,\"expansions\":10,\"dedup_hits\":4,\"canon_hits\":1,\"peak_frontier\":5,\"cap_fallbacks\":2,\"peak_bytes\":99,\"steals\":6,\"stolen_shards\":372}"
        );
        // Byte-determinism: same stats, same bytes.
        assert_eq!(s.to_json(), s.clone().to_json());
    }
}
