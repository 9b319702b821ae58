//! Replay: per-kernel numbers from outside the engines.
//!
//! Spans may only wrap public calls, and a whole exploration is one public
//! call. To split it, the traced run captures the operation's state stream
//! once — `Search::graph()`'s `order`/`succ`, which fixes the BFS
//! generation order — and then drives each layer's public function alone
//! over exactly that stream, level by level: `System::enabled`/`step` per
//! state, the canon hook per successor, `BatchScratch::fingerprints` per
//! level, `ShardedFpMap::contains`/`try_insert_with` per successor. The
//! counts fall out of the same loop, so ratios are measured where the work
//! happens.
//!
//! Caveat: a kernel replayed alone runs cache-warmer than in situ, so its
//! share of the real call is an estimate from below and the derived
//! `*.self_s` residual an estimate from above.
//!
//! The lasso replay at the bottom is the evidence check: it walks a
//! counterexample with `System::enabled`/`step` and the predicate only —
//! no search code.

use crate::harness::Layers;
use crate::span::Recorder;
use impossible_core::system::System;
use impossible_explore::table::TryInsert;
use impossible_explore::{
    BatchScratch, Cap, Encode, Lasso, Parent, ReachableGraph, ShardedFpMap, DEFAULT_PARTITIONS,
};

/// A canonicalisation hook, as `Search::canon` takes it.
pub type Canon<S> = Option<fn(&S) -> S>;

/// What a kernel replay hands back: its counts and the filled visited table.
pub type Replayed<A> = (KernelTotals, ShardedFpMap<Parent<A>>);

/// Counts of one or more kernel replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTotals {
    /// `System::step` calls (= transitions of the stream).
    pub steps: u64,
    /// Canon hook calls.
    pub canon_calls: u64,
    /// Successors the hook changed.
    pub canon_hits: u64,
    /// States fingerprinted.
    pub fp_items: u64,
    /// `try_insert_with` calls that inserted.
    pub inserts: u64,
    /// `try_insert_with` calls that found the key present.
    pub present: u64,
    /// `approx_bytes` of the filled table(s).
    pub table_bytes: u64,
    /// Largest `max shard ÷ mean shard` seen.
    pub shard_skew: f64,
    /// Graph nodes.
    pub nodes: u64,
    /// Graph edges.
    pub edges: u64,
    /// BFS levels of the stream.
    pub levels: u64,
}

impl KernelTotals {
    /// Fold another replay's counts into these.
    pub fn absorb(&mut self, o: &KernelTotals) {
        self.steps += o.steps;
        self.canon_calls += o.canon_calls;
        self.canon_hits += o.canon_hits;
        self.fp_items += o.fp_items;
        self.inserts += o.inserts;
        self.present += o.present;
        self.table_bytes += o.table_bytes;
        self.shard_skew = self.shard_skew.max(o.shard_skew);
        self.nodes += o.nodes;
        self.edges += o.edges;
        self.levels += o.levels;
    }

    /// Publish as per-layer metrics.
    pub fn write(&self, layers: &mut Layers) {
        layers.set("system.steps", self.steps as f64);
        layers.set("canon.calls", self.canon_calls as f64);
        if self.canon_calls > 0 {
            layers.set(
                "canon.hit_ratio",
                self.canon_hits as f64 / self.canon_calls as f64,
            );
        }
        layers.set("fingerprint.items", self.fp_items as f64);
        layers.set("table.inserts", self.inserts as f64);
        layers.set("table.present", self.present as f64);
        if self.inserts + self.present > 0 {
            let attempts = (self.inserts + self.present) as f64;
            layers.set("table.dedup_ratio", self.present as f64 / attempts);
        }
        layers.set("table.bytes", self.table_bytes as f64);
        layers.set("table.shard_skew", self.shard_skew);
        layers.set("graph.nodes", self.nodes as f64);
        layers.set("graph.edges", self.edges as f64);
    }
}

/// Drive step / canon / fingerprint / table over `g`'s stream. Returns the
/// counts and the filled visited table (the page replay reuses it).
pub fn replay_kernels<Sys>(
    rec: &mut Recorder,
    sys: &Sys,
    canon: Canon<Sys::State>,
    seed: u64,
    g: &ReachableGraph<Sys::State, Sys::Action>,
) -> Result<Replayed<Sys::Action>, String>
where
    Sys: System,
    Sys::State: Encode,
{
    let mut t = KernelTotals {
        nodes: g.len() as u64,
        edges: g.num_edges() as u64,
        ..KernelTotals::default()
    };
    let mut batch = BatchScratch::new(seed);
    let mut table: ShardedFpMap<Parent<Sys::Action>> = ShardedFpMap::new(DEFAULT_PARTITIONS);

    // Graph indices are BFS discovery order, so levels are index ranges:
    // a level ends where the first child of its first state begins.
    let node_fps: Vec<u64> = batch.fingerprints(g.order.iter()).to_vec();
    for (i, &fp) in node_fps[..g.initials].iter().enumerate() {
        table.try_insert_with(fp, Cap::Unbounded, || Parent::Root(i));
    }
    let mut depth = vec![u32::MAX; g.len()];
    depth[..g.initials].fill(0);
    for i in 0..g.len() {
        for &(_, child) in &g.succ[i] {
            if depth[child] == u32::MAX {
                depth[child] = depth[i] + 1;
            }
        }
    }

    let mut start = 0;
    while start < g.len() {
        let level = depth[start];
        let end = start + depth[start..].iter().take_while(|&&d| d == level).count();
        t.levels += 1;

        let id = rec.enter("system.step");
        let mut children: Vec<(Sys::State, Sys::Action, u64)> = Vec::new();
        for (s, &fp) in g.order[start..end].iter().zip(&node_fps[start..end]) {
            for a in sys.enabled(s) {
                children.push((sys.step(s, &a), a, fp));
            }
        }
        rec.exit(id);
        t.steps += children.len() as u64;

        if let Some(c) = canon {
            let id = rec.enter("canon.apply");
            for child in &mut children {
                let cs = c(&child.0);
                if cs != child.0 {
                    t.canon_hits += 1;
                    child.0 = cs;
                }
            }
            rec.exit(id);
            t.canon_calls += children.len() as u64;
        }

        let id = rec.enter("fingerprint.batch");
        let fps: Vec<u64> = batch.fingerprints(children.iter().map(|c| &c.0)).to_vec();
        rec.exit(id);
        t.fp_items += fps.len() as u64;

        let id = rec.enter("table.probe");
        let seen = fps.iter().filter(|&&fp| table.contains(fp)).count();
        rec.exit(id);
        std::hint::black_box(seen);

        let id = rec.enter("table.insert");
        for (fp, (_, action, parent)) in fps.iter().zip(children) {
            match table.try_insert_with(*fp, Cap::Unbounded, || Parent::Child { parent, action }) {
                TryInsert::Inserted => t.inserts += 1,
                TryInsert::Present => t.present += 1,
                TryInsert::Full => return Err("unbounded table refused an insert".into()),
            }
        }
        rec.exit(id);
        start = end;
    }

    if table.len() != g.len() {
        return Err(format!(
            "replay filled the table with {} keys for a graph of {} nodes",
            table.len(),
            g.len()
        ));
    }
    if t.steps != t.edges {
        return Err(format!(
            "replay stepped {} times over {} edges",
            t.steps, t.edges
        ));
    }
    t.table_bytes = table.approx_bytes() as u64;
    let longest = table.shards().iter().map(|s| s.len()).max().unwrap_or(0);
    t.shard_skew = longest as f64 * table.shard_count() as f64 / table.len().max(1) as f64;
    Ok((t, table))
}

/// How a lasso must avoid its goal.
pub enum Avoid<'a, S> {
    /// `eventually(goal)` failed: no state of the run satisfies `goal`.
    Always(&'a dyn Fn(&S) -> bool),
    /// `leads_to(trigger, goal)` failed: the pivot satisfies `trigger` and
    /// nothing from the pivot on satisfies `goal`.
    AfterPivot(&'a dyn Fn(&S) -> bool, &'a dyn Fn(&S) -> bool),
}

/// Walk `lasso` through `sys` (each step followed by `canon`, actions
/// restricted to `allowed`): the stem starts at an initial state and every
/// step is an enabled action's successor, the cycle closes on the loop
/// head, every cycle state passes `admissible`, and the goal is avoided.
/// Returns the cycle's actions for fairness checks.
pub fn replay_lasso<'l, Sys: System>(
    sys: &Sys,
    canon: Canon<Sys::State>,
    allowed: &dyn Fn(&Sys::Action) -> bool,
    admissible: &dyn Fn(&Sys::State) -> bool,
    avoid: Avoid<'_, Sys::State>,
    lasso: &'l Lasso<Sys::State, Sys::Action>,
) -> Result<Vec<&'l Sys::Action>, String> {
    let canonize = |s: Sys::State| match canon {
        Some(c) => c(&s),
        None => s,
    };
    let follows = |pre: &Sys::State, a: &Sys::Action, post: &Sys::State| {
        allowed(a) && sys.enabled(pre).contains(a) && canonize(sys.step(pre, a)) == *post
    };
    let stem = &lasso.stem;
    if !sys
        .initial_states()
        .into_iter()
        .any(|s| canonize(s) == *stem.first())
    {
        return Err("lasso stem does not start at an initial state".into());
    }
    for (k, (pre, a, post)) in stem.steps().enumerate() {
        if !follows(pre, a, post) {
            return Err(format!("lasso stem step {k} is not a step of the system"));
        }
    }
    let head = stem.last();
    let mut cur = head;
    for (k, (a, post)) in lasso.cycle.iter().enumerate() {
        if !follows(cur, a, post) {
            return Err(format!("lasso cycle step {k} is not a step of the system"));
        }
        cur = post;
    }
    if cur != head {
        return Err("lasso cycle does not close on the loop head".into());
    }
    if lasso.cycle.is_empty() && sys.enabled(head).iter().any(allowed) {
        return Err("lasso stutters on a state that is not terminal".into());
    }
    if !std::iter::once(head)
        .chain(lasso.cycle.iter().map(|(_, s)| s))
        .all(admissible)
    {
        return Err("lasso cycle leaves the admissible states".into());
    }
    let cycle_states = lasso.cycle.iter().map(|(_, s)| s);
    let clean = match (avoid, lasso.pivot) {
        (Avoid::Always(goal), None) => !stem.states().iter().chain(cycle_states).any(goal),
        (Avoid::AfterPivot(trigger, goal), Some(p)) if p < stem.states().len() => {
            trigger(&stem.states()[p]) && !stem.states()[p..].iter().chain(cycle_states).any(goal)
        }
        _ => return Err("lasso pivot does not match the property kind".into()),
    };
    if !clean {
        return Err("lasso run meets the goal it claims to avoid".into());
    }
    Ok(lasso.cycle.iter().map(|(a, _)| a).collect())
}
