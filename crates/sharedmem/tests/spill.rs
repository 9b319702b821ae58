//! A §2.1 model on the external-memory route: `MutexSystem` states and
//! actions travel through spill pages (`Persist`), and a spilled run of
//! Dijkstra's algorithm reports exactly what the resident engine does —
//! every field but `stats.peak_bytes`, which spilling exists to lower, and
//! the requested worker count, which both routes only record.

use impossible_explore::{Search, SearchReport, SpillPolicy};
use impossible_sharedmem::algorithms::dijkstra::{Dijkstra, DijkstraLocal};
use impossible_sharedmem::mutex::{MutexAction, MutexState, MutexSystem, Region};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The report with `peak_bytes` and `workers` zeroed, as text.
fn masked(r: &SearchReport<MutexState<DijkstraLocal>, MutexAction>) -> String {
    let mut stats = r.stats;
    stats.workers = 0;
    stats.peak_bytes = 0;
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.num_states, r.num_transitions, r.terminal_states, r.truncated_by, r.witness, stats
    )
}

/// Every spill setting worth telling apart on a small space: flush every
/// level, or each time 500 keys are resident, with and without paging the
/// frontier.
fn policies(name: &str) -> impl Iterator<Item = (String, SpillPolicy)> + '_ {
    [0usize, 500].into_iter().flat_map(move |ram_keys| {
        [false, true].into_iter().map(move |front| {
            let case = format!("{name}-{ram_keys}-{front}");
            let policy = SpillPolicy::new(tmp(&case))
                .ram_keys(ram_keys)
                .spill_frontier(front);
            (case, policy)
        })
    })
}

#[test]
fn spilled_dijkstra_matches_resident_bytes() {
    let alg = Dijkstra::new(3);
    let sys = MutexSystem::new(&alg);
    let resident = Search::new(&sys).explore();
    assert_eq!(resident.num_states, 8_423);
    for (case, policy) in policies("dijkstra-explore") {
        let spilled = Search::new(&sys).explore_extmem(&policy);
        assert_eq!(masked(&spilled), masked(&resident), "{case}");
    }
}

#[test]
fn spilled_dijkstra_witness_replays_through_run_files() {
    // The last process reaching its critical region: a witness several
    // levels deep, whose parent chain a `ram_keys(0)` run reads back from
    // one run file per level.
    let alg = Dijkstra::new(3);
    let sys = MutexSystem::new(&alg);
    let last_critical =
        |s: &MutexState<DijkstraLocal>| sys.processes_in(s, Region::Critical).any(|i| i == 2);
    let resident = Search::new(&sys).search(last_critical);
    assert!(resident.witness.is_some());
    for (case, policy) in policies("dijkstra-search") {
        let spilled = Search::new(&sys).search_extmem(last_critical, &policy);
        assert_eq!(masked(&spilled), masked(&resident), "{case}");
    }
}
