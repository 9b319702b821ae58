//! Temporal property checking over the exact reachable graph: safety as
//! reachability, liveness as deterministic SCC lasso detection.
//!
//! Lynch's survey states most impossibility results temporally: a safety
//! violation is a *bad reachable configuration*, while FLP non-termination
//! \[55\] is a fact about **infinite admissible executions** — no finite
//! prefix refutes termination; the witness is a *lasso*, a finite stem
//! reaching a cycle the adversary can repeat forever. This module makes
//! both kinds of claim first-class over [`ReachableGraph`]:
//!
//! * [`always`]`(p)` / [`never()`]`(p)` — safety. Reduces to reachability of
//!   a violating state; the witness is the shortest execution to it
//!   (graph indices are BFS discovery order, so index order *is* depth
//!   order).
//! * [`eventually`]`(p)` / [`leads_to`]`(p, q)` — liveness. A violation is
//!   an infinite run avoiding the goal, i.e. a reachable cycle inside the
//!   goal-avoiding region. The checker runs an **iterative Tarjan SCC
//!   decomposition restricted to that region, visiting vertices in fixed
//!   graph-index order**, so the decomposition — and hence the verdict,
//!   the chosen lasso head, and every witness byte — is a pure function of
//!   the graph, never of the fingerprint seed or timing.
//!
//! [`Checker`] adds the survey's admissibility discipline: an
//! `admissible` state filter restricts which states may repeat forever
//! (FLP: no message to a live process may stay pending around the loop),
//! and `fairness` classes require the cycle to contain an action of every
//! class (FLP: every live process keeps stepping). `consensus::flp`'s
//! non-termination engine is one instantiation of exactly this pair.
//!
//! The witness types, [`Lasso`] and [`Counterexample`], are
//! `impossible_core::cert`'s, re-exported here. [`Checker::spec`] maps a
//! property plus a checker's admissibility and fairness onto the arguments
//! of their checker, `cert::verify`, and [`Search::check_property`]
//! verifies what it returns.
//!
//! # Example: one safety check and one liveness check
//!
//! ```
//! use impossible_core::system::System;
//! use impossible_explore::{impl_encode_struct, Search};
//! use impossible_explore::property::{always, eventually, Counterexample};
//!
//! /// A wrapping counter: 0 → 1 → 2 → 0 → … (a 3-cycle, never terminates).
//! struct Wrap;
//! #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
//! struct W(u64);
//! impl_encode_struct!(W(n));
//! impl System for Wrap {
//!     type State = W;
//!     type Action = u64;
//!     fn initial_states(&self) -> Vec<W> { vec![W(0)] }
//!     fn enabled(&self, _: &W) -> Vec<u64> { vec![0] }
//!     fn step(&self, s: &W, _: &u64) -> W { W((s.0 + 1) % 3) }
//! }
//!
//! // Safety: the counter stays in range — no bad state is reachable.
//! let safe = Search::new(&Wrap).check_property(&always("in-range", |s: &W| s.0 <= 2));
//! assert!(safe.holds);
//!
//! // Liveness: "eventually the counter hits 3" fails — the wrap cycle is
//! // an infinite run avoiding 3. The counterexample is a lasso.
//! let live = Search::new(&Wrap).check_property(&eventually("reaches-3", |s: &W| s.0 == 3));
//! assert!(!live.holds);
//! match live.counterexample {
//!     Some(Counterexample::Lasso(l)) => {
//!         assert_eq!(l.stem.last(), &W(0)); // loop head
//!         assert_eq!(l.cycle.len(), 3);     // 0 → 1 → 2 → 0
//!     }
//!     other => panic!("expected a lasso, got {other:?}"),
//! }
//! ```
//!
//! The traversals themselves — the BFS tree behind every stem and witness,
//! Tarjan, backward reachability, the class-covering cycle — are
//! `core::succ`'s, run on the graph's rows; this module decides what to
//! ask them and assembles the answer.
//!
//! Verdicts are advisory when the graph was truncated
//! ([`PropertyReport::truncated`]): "holds" then means "no counterexample
//! within the explored prefix". See `docs/PROPERTIES.md` for the DSL
//! semantics, the witness JSON format, and the determinism contract.

use crate::graph::ReachableGraph;
use crate::search::{with_tracer, Search};
use impossible_core::cert::{verify, Goal, Spec};
use impossible_core::exec::Execution;
use impossible_core::succ::Target;
use impossible_core::system::System;
use impossible_obs::{escape_into, trace_event, NoopTracer, Tracer};
use std::cell::RefCell;
use std::fmt::Debug;

pub use impossible_core::cert::{Counterexample, Lasso};

type Pred<'p, S> = Box<dyn Fn(&S) -> bool + 'p>;

enum PropKind<'p, S> {
    Always(Pred<'p, S>),
    Never(Pred<'p, S>),
    Eventually(Pred<'p, S>),
    LeadsTo(Pred<'p, S>, Pred<'p, S>),
}

/// A temporal property over states, built by [`always`], [`never()`],
/// [`eventually`] or [`leads_to`].
pub struct Property<'p, S> {
    name: String,
    kind: PropKind<'p, S>,
}

impl<'p, S> Property<'p, S> {
    /// The name given at construction (stamped into reports and traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The property as the [`Goal`] [`verify`] checks a witness against.
    fn goal(&self) -> Goal<'_, S> {
        match &self.kind {
            PropKind::Always(p) => Goal::Always(p.as_ref()),
            PropKind::Never(p) => Goal::Never(p.as_ref()),
            PropKind::Eventually(p) => Goal::Eventually(p.as_ref()),
            PropKind::LeadsTo(p, q) => Goal::LeadsTo(p.as_ref(), q.as_ref()),
        }
    }

    /// The connective: `"always"`, `"never"`, `"eventually"` or `"leads-to"`.
    fn kind_name(&self) -> &'static str {
        match self.kind {
            PropKind::Always(_) => "always",
            PropKind::Never(_) => "never",
            PropKind::Eventually(_) => "eventually",
            PropKind::LeadsTo(_, _) => "leads-to",
        }
    }
}

/// `□p` — `p` holds in every reachable state (safety).
pub fn always<'p, S>(name: &str, p: impl Fn(&S) -> bool + 'p) -> Property<'p, S> {
    Property {
        name: name.to_string(),
        kind: PropKind::Always(Box::new(p)),
    }
}

/// `□¬p` — no reachable state satisfies `p` (safety).
pub fn never<'p, S>(name: &str, p: impl Fn(&S) -> bool + 'p) -> Property<'p, S> {
    Property {
        name: name.to_string(),
        kind: PropKind::Never(Box::new(p)),
    }
}

/// `◇p` — every (fair, admissible) run satisfies `p` at some point
/// (liveness). A violation is a lasso that never enters `p`.
pub fn eventually<'p, S>(name: &str, p: impl Fn(&S) -> bool + 'p) -> Property<'p, S> {
    Property {
        name: name.to_string(),
        kind: PropKind::Eventually(Box::new(p)),
    }
}

/// `□(p → ◇q)` — whenever `p` holds, `q` follows (liveness). A violation
/// is a run reaching a `p`-state from which a lasso avoids `q` forever.
pub fn leads_to<'p, S>(
    name: &str,
    p: impl Fn(&S) -> bool + 'p,
    q: impl Fn(&S) -> bool + 'p,
) -> Property<'p, S> {
    Property {
        name: name.to_string(),
        kind: PropKind::LeadsTo(Box::new(p), Box::new(q)),
    }
}

/// The outcome of one property check, with a deterministic JSON rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyReport<S, A> {
    /// The property's name.
    pub name: String,
    /// The connective checked (`"always"`, …, `"leads-to"`).
    pub kind: &'static str,
    /// Verdict. Advisory if [`truncated`](PropertyReport::truncated).
    pub holds: bool,
    /// States in the checked graph.
    pub states: usize,
    /// Edges in the checked graph.
    pub edges: usize,
    /// Safety: states violating the predicate. Liveness: cycle-eligible
    /// states (goal-avoiding ∧ admissible) the SCC pass ran over.
    pub region: usize,
    /// SCCs of the cycle-eligible region (0 for safety checks).
    pub sccs: usize,
    /// Region SCCs that can sustain a violating run: cycle-capable and
    /// covering every fairness class (0 for safety checks).
    pub candidate_sccs: usize,
    /// The graph hit a bound (`max_states`, `max_depth`); absence of a
    /// counterexample is then only "none within bounds". A cut graph
    /// offers no stutter lasso — an empty row there may be a state never
    /// expanded, or one whose children all fell past the cap — while a
    /// lasso with a cycle is still a real run.
    pub truncated: bool,
    /// Present exactly when `holds` is false.
    pub counterexample: Option<Counterexample<S, A>>,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

fn push_debug_list<T: Debug>(out: &mut String, items: impl Iterator<Item = T>) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, &format!("{item:?}"));
    }
    out.push(']');
}

impl<S, A> PropertyReport<S, A> {
    /// The property held, but only within a graph a bound cut: no verdict.
    /// Every printer and cache of a report treats this case as "unknown".
    pub fn inconclusive(&self) -> bool {
        self.holds && self.truncated
    }
}

impl<S: Clone + Debug, A: Clone + Debug> PropertyReport<S, A> {
    /// Deterministic single-line JSON: fixed key order, no whitespace
    /// variation; states and actions rendered through `Debug` and escaped.
    /// Equal reports encode to equal bytes (the seed-invariance tests
    /// compare exactly these strings).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        push_json_str(&mut out, &self.name);
        out.push_str(&format!(
            ",\"kind\":\"{}\",\"holds\":{},\"states\":{},\"edges\":{},\"region\":{},\"sccs\":{},\"candidate_sccs\":{},\"truncated\":{},\"counterexample\":",
            self.kind, self.holds, self.states, self.edges, self.region, self.sccs,
            self.candidate_sccs, self.truncated,
        ));
        match &self.counterexample {
            None => out.push_str("null"),
            Some(Counterexample::BadState(e)) => {
                out.push_str("{\"type\":\"bad-state\",\"states\":");
                push_debug_list(&mut out, e.states().iter());
                out.push_str(",\"actions\":");
                push_debug_list(&mut out, e.actions().iter());
                out.push('}');
            }
            Some(Counterexample::Lasso(l)) => {
                out.push_str("{\"type\":\"lasso\",\"pivot\":");
                match l.pivot {
                    None => out.push_str("null"),
                    Some(k) => out.push_str(&k.to_string()),
                }
                out.push_str(",\"stem_states\":");
                push_debug_list(&mut out, l.stem.states().iter());
                out.push_str(",\"stem_actions\":");
                push_debug_list(&mut out, l.stem.actions().iter());
                out.push_str(",\"cycle_actions\":");
                push_debug_list(&mut out, l.cycle.iter().map(|(a, _)| a));
                out.push_str(",\"cycle_states\":");
                push_debug_list(&mut out, l.cycle.iter().map(|(_, s)| s));
                out.push('}');
            }
        }
        out.push('}');
        out
    }
}

/// [`Checker::admissible`]'s constraint on the states a cycle repeats.
type StatePred<'a, S> = Box<dyn Fn(&S) -> bool + 'a>;
/// [`Checker::fairness`]' class of an edge label (`None`: unclassified).
type ClassOf<'a, L> = Box<dyn Fn(&L) -> Option<usize> + 'a>;

/// Evaluates [`Property`]s over a [`ReachableGraph`], with optional
/// admissibility and fairness constraints on liveness cycles.
///
/// Everything the checker computes — SCC decomposition, lasso head
/// choice, stem and cycle — visits vertices in **graph index order** and
/// neighbors in successor-list order, both of which the graph builder
/// fixes independently of the fingerprint seed. Verdicts and witnesses
/// are therefore byte-identical for any `Search::seed` value.
///
/// `L` is the graph's edge label. The analysis reads labels only through
/// fairness, which classifies them, so it runs on any graph; a witness
/// needs the action on each of its edges, and asks the checker's action
/// source for it. [`Checker::new`] takes a graph labelled with actions
/// (`L = A`) and reads the stored label; [`Search::check_property`] checks
/// the label-free [`Search::shape`] and derives each witness edge's action
/// through the system (`docs/PROPERTIES.md`, "Witness actions"). `T` is
/// the graph's target width: `usize` for [`Search::graph`], `u32` for
/// [`Search::shape`].
pub struct Checker<'a, S, A, L = A, T = usize> {
    g: &'a ReachableGraph<S, L, T>,
    /// The action on edge `k` of row `i`, asked only for witness edges.
    action: Box<dyn Fn(usize, usize) -> A + 'a>,
    admissible: Option<StatePred<'a, S>>,
    classes: usize,
    class_of: Option<ClassOf<'a, L>>,
    tracer: RefCell<Option<&'a mut dyn Tracer>>,
}

impl<'a, S, A> Checker<'a, S, A>
where
    S: Clone + Debug,
    A: Clone + Debug,
{
    /// A checker over `g` with no admissibility or fairness constraints.
    pub fn new(g: &'a ReachableGraph<S, A>) -> Self {
        Checker::with_actions(g, move |i, k| g.succ[i][k].0.clone())
    }

    /// Restrict which states may repeat forever: liveness cycles (and
    /// lasso heads) must satisfy `f`. The stem is unrestricted — only the
    /// infinitely-repeated part must stay admissible. FLP's "no message to
    /// a live process stays pending" goes here.
    pub fn admissible(mut self, f: impl Fn(&S) -> bool + 'a) -> Self {
        self.admissible = Some(Box::new(f));
        self
    }

    /// Require liveness cycles to contain an action of every class
    /// `0..classes` (weak fairness; FLP's "every live process keeps
    /// stepping" assigns each live process a class). `class_of` maps an
    /// action to its class, or `None` for unclassified actions.
    ///
    /// # Panics
    ///
    /// Panics if `classes > 32` (class coverage is tracked in a `u32`
    /// mask; the workspace's instances have at most a handful of
    /// processes).
    pub fn fairness(
        mut self,
        classes: usize,
        class_of: impl Fn(&A) -> Option<usize> + 'a,
    ) -> Self {
        assert!(classes <= 32, "at most 32 fairness classes");
        self.classes = classes;
        self.class_of = Some(Box::new(class_of));
        self
    }

    /// [`verify`]'s arguments for a counterexample this checker found for
    /// `prop`: the property as a [`Goal`], with this checker's
    /// admissibility and fairness. The engine that built the graph adds
    /// the canon hook and action filter it was built with, then verifies.
    pub fn spec<'s>(&'s self, prop: &'s Property<'_, S>) -> Spec<'s, S, A> {
        Spec {
            admissible: self.admissible.as_deref(),
            fairness: self.class_of.as_deref().map(|f| (self.classes, f)),
            ..Spec::new(prop.goal())
        }
    }
}

impl<'a, S, A, L, T: Target> Checker<'a, S, A, L, T>
where
    S: Clone + Debug,
    A: Clone + Debug,
{
    /// A checker over `g` whose witnesses take the action on edge `k` of
    /// row `i` from `action(i, k)`, with no admissibility or fairness
    /// constraints.
    fn with_actions(
        g: &'a ReachableGraph<S, L, T>,
        action: impl Fn(usize, usize) -> A + 'a,
    ) -> Self {
        Checker {
            g,
            action: Box::new(action),
            admissible: None,
            classes: 0,
            class_of: None,
            tracer: RefCell::new(None),
        }
    }

    /// Record every later check's `scope: "property"` events into
    /// `tracer` (see `docs/PROPERTIES.md` for the vocabulary). Unset, a
    /// check records nothing, through `NoopTracer`.
    pub fn tracer(mut self, tracer: &'a mut dyn Tracer) -> Self {
        self.tracer = Some(tracer).into();
        self
    }

    /// Check `prop`, tracing into the tracer [`Checker::tracer`] set.
    pub fn check(&self, prop: &Property<'_, S>) -> PropertyReport<S, A> {
        with_tracer(&self.tracer, &mut NoopTracer, |tracer| {
            trace_event!(tracer, "property", "check.start",
                "name": prop.name.as_str(),
                "property": prop.kind_name(),
                "states": self.g.len(),
                "edges": self.g.num_edges(),
                "truncated": self.g.truncated());
            let report = match &prop.kind {
                PropKind::Always(p) => self.safety(prop, |s| !p(s)),
                PropKind::Never(p) => self.safety(prop, |s| p(s)),
                PropKind::Eventually(p) => self.liveness(prop, |s| !p(s), None, tracer),
                PropKind::LeadsTo(p, q) => self.liveness(prop, |s| !q(s), Some(p), tracer),
            };
            let (ce, stem, cycle) = match &report.counterexample {
                None => ("none", 0usize, 0usize),
                Some(Counterexample::BadState(e)) => ("bad-state", e.len(), 0),
                Some(Counterexample::Lasso(l)) => ("lasso", l.stem.len(), l.cycle.len()),
            };
            trace_event!(tracer, "property", "verdict",
                "name": prop.name.as_str(),
                "holds": report.holds,
                "counterexample": ce,
                "stem": stem,
                "cycle": cycle);
            report
        })
    }

    fn report_shell(&self, prop: &Property<'_, S>) -> PropertyReport<S, A> {
        PropertyReport {
            name: prop.name.clone(),
            kind: prop.kind_name(),
            holds: true,
            states: self.g.len(),
            edges: self.g.num_edges(),
            region: 0,
            sccs: 0,
            candidate_sccs: 0,
            truncated: self.g.truncated(),
            counterexample: None,
        }
    }

    // ---- safety: reachability of a violating state --------------------

    fn safety(
        &self,
        prop: &Property<'_, S>,
        violates: impl Fn(&S) -> bool,
    ) -> PropertyReport<S, A> {
        let bad: Vec<bool> = self.g.order.iter().map(violates).collect();
        let mut report = self.report_shell(prop);
        report.region = bad.iter().filter(|&&b| b).count();
        // Graph indices are BFS discovery order, so the first violating
        // index sits at minimal depth; the BFS below recovers the
        // (shortest) path to it.
        if let Some(target) = bad.iter().position(|&b| b) {
            let mut tree = self.g.succ.bfs_tree();
            tree.search(0..self.g.initials, |_, _| true, |i| i == target)
                .expect("every graph state is reachable from the initials");
            let (path, edges) = tree.path(target);
            report.holds = false;
            report.counterexample = Some(Counterexample::BadState(self.execution_of(path, edges)));
        }
        report
    }

    // ---- liveness: SCC lasso detection --------------------------------

    /// `in_region` is goal-avoidance (`¬p` for `eventually(p)`, `¬q` for
    /// `leads_to(p, q)`); `trigger` is `leads_to`'s `p`.
    fn liveness(
        &self,
        prop: &Property<'_, S>,
        in_region: impl Fn(&S) -> bool,
        trigger: Option<&Pred<'_, S>>,
        tracer: &mut dyn Tracer,
    ) -> PropertyReport<S, A> {
        let n = self.g.len();
        let region: Vec<bool> = self.g.order.iter().map(in_region).collect();
        let cyc_ok: Vec<bool> = match &self.admissible {
            None => region.clone(),
            Some(f) => self
                .g
                .order
                .iter()
                .zip(&region)
                .map(|(s, &r)| r && f(s))
                .collect(),
        };

        let scc = self.g.succ.sccs(&cyc_ok);
        // Not `(1 << classes) - 1`: the shift overflows at the documented
        // maximum of 32 classes.
        let full: u32 = if self.classes > 0 {
            u32::MAX >> (32 - self.classes)
        } else {
            0
        };
        // Per SCC, the fairness classes its *internal* edges cover (with
        // no class to cover, every SCC covers all of them).
        let mut cover: Vec<u32> = vec![0; scc.cyclic.len()];
        for v in (0..n).filter(|&v| full != 0 && cyc_ok[v]) {
            for (a, t) in &self.g.succ[v] {
                let t = t.to_usize();
                if cyc_ok[t] && scc.id[t] == scc.id[v] {
                    cover[scc.id[v] as usize] |= self.class_bit(a);
                }
            }
        }
        let candidate_scc: Vec<bool> = (0..scc.cyclic.len())
            .map(|c| scc.cyclic[c] && cover[c] == full)
            .collect();
        // A terminal state stutters forever (an implicit self-loop). That
        // sustains a violation only when no fairness class demands real
        // steps around the loop, and only on a whole graph: on a cut one an
        // empty row may be a state never expanded, or one whose children
        // all fell past the cap. (A cycle stays evidence on a cut graph —
        // its edges are real.)
        let stutter_ok = self.classes == 0 && !self.g.truncated();
        let is_candidate = |i: usize| {
            cyc_ok[i]
                && (candidate_scc[scc.id[i] as usize] || (stutter_ok && self.g.succ[i].is_empty()))
        };

        let mut report = self.report_shell(prop);
        report.region = cyc_ok.iter().filter(|&&b| b).count();
        report.sccs = scc.cyclic.len();
        report.candidate_sccs = candidate_scc.iter().filter(|&&b| b).count();
        trace_event!(tracer, "property", "scc",
            "region": report.region,
            "sccs": report.sccs,
            "candidates": report.candidate_sccs);

        let mut tree = self.g.succ.bfs_tree();
        let initials = 0..self.g.initials;
        let lasso = match trigger {
            // eventually(p): the whole violating run avoids p, so the stem
            // must stay inside the region too.
            None => tree
                .search(
                    initials.filter(|&i| region[i]),
                    |_, t| region[t],
                    is_candidate,
                )
                .map(|head| (tree.path(head), None)),
            // leads_to(p, q): the run may satisfy q freely before the
            // trigger; only the suffix from the p-state avoids q. Find the
            // earliest reachable p∧¬q state that can reach a candidate
            // head inside ¬q, then bridge pivot → head inside ¬q.
            Some(p) => {
                let can_reach = self.g.succ.can_reach(|i| region[i], is_candidate);
                tree.search(
                    initials,
                    |_, _| true,
                    |i| region[i] && can_reach[i] && p(&self.g.order[i]),
                )
                .map(|pivot| {
                    let (mut path, mut edges) = tree.path(pivot);
                    let head = tree
                        .search([pivot], |_, t| region[t], is_candidate)
                        .expect("reverse reachability admitted this pivot");
                    let (tail, tail_edges) = tree.path(head);
                    let pivot_at = path.len() - 1;
                    path.extend_from_slice(&tail[1..]);
                    edges.extend(tail_edges);
                    ((path, edges), Some(pivot_at))
                })
            }
        };

        if let Some(((path, edges), pivot)) = lasso {
            let head = *path.last().expect("paths are nonempty");
            // The shortest cycle through `head` inside its SCC containing
            // an action of every fairness class. The SCC is strongly
            // connected and (for candidates) its internal edges cover every
            // class, so the cycle exists.
            let cycle = if self.g.succ[head].is_empty() {
                Vec::new()
            } else {
                self.g
                    .succ
                    .covering_cycle(
                        head,
                        |t| cyc_ok[t] && scc.id[t] == scc.id[head],
                        |a| self.class_bit(a),
                        full,
                    )
                    .expect("candidate SCCs admit a fair cycle through every member")
                    .into_iter()
                    .map(|(src, ei)| {
                        let dst = self.g.succ[src][ei].1.to_usize();
                        ((self.action)(src, ei), self.g.order[dst].clone())
                    })
                    .collect()
            };
            report.holds = false;
            report.counterexample = Some(Counterexample::Lasso(Lasso {
                stem: self.execution_of(path, edges),
                cycle,
                pivot,
            }));
        }
        report
    }

    fn class_bit(&self, a: &L) -> u32 {
        match (&self.class_of, self.classes) {
            (Some(f), c) if c > 0 => match f(a) {
                Some(k) if k < c => 1 << k,
                _ => 0,
            },
            _ => 0,
        }
    }

    /// The run along a tree path: its states, and the action on each edge.
    fn execution_of(&self, path: Vec<usize>, edges: Vec<usize>) -> Execution<S, A> {
        Execution::from_parts(
            path.iter().map(|&i| self.g.order[i].clone()).collect(),
            path.iter().zip(edges).map(|(&i, k)| (self.action)(i, k)).collect(),
        )
    }
}

impl<'a, Sys: System> Search<'a, Sys> {
    /// Build the label-free reachable graph ([`Search::shape`]) and check
    /// `prop` over it, with no admissibility or fairness constraints,
    /// tracing into the tracer [`Search::tracer`] set (scope
    /// `"property"`). The report is the one [`Checker::new`] gives over
    /// [`Search::graph`], byte for byte: only a witness reads actions, and
    /// each of its edges gets its action by re-staging its source state
    /// (`docs/PROPERTIES.md`, "Witness actions"). A counterexample is
    /// [`verify`]d through the system (and the canon hook) before it is
    /// returned. Use [`Checker`] directly (over [`Search::graph`] /
    /// [`Search::graph_filtered`]) when cycles must be admissible or fair.
    ///
    /// # Panics
    ///
    /// If the counterexample fails [`verify`] — an engine bug, named by
    /// the clause it breaks.
    pub fn check_property(
        &self,
        prop: &Property<'_, Sys::State>,
    ) -> PropertyReport<Sys::State, Sys::Action> {
        let g = self.shape();
        with_tracer(&self.tracer, &mut NoopTracer, |t| {
            let report = Checker::with_actions(&g, |i, k| self.edge_action(&g, i, k))
                .tracer(t)
                .check(prop);
            if let Some(ce) = &report.counterexample {
                let spec = Spec { canon: self.canon_hook(), ..Spec::new(prop.goal()) };
                verify(self.sys(), &spec, ce).unwrap_or_else(|e| panic!("{e}"));
            }
            report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use impossible_obs::RingTracer;
    use std::collections::BTreeSet;

    /// `0 → 1 → … → max → wrap_to → …`: a stem into a cycle.
    struct Loop {
        max: u64,
        wrap_to: u64,
    }
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct L(u64);
    crate::impl_encode_struct!(L(n));
    impl System for Loop {
        type State = L;
        type Action = u64;
        fn initial_states(&self) -> Vec<L> {
            vec![L(0)]
        }
        fn enabled(&self, _: &L) -> Vec<u64> {
            vec![0]
        }
        fn step(&self, s: &L, _: &u64) -> L {
            if s.0 == self.max {
                L(self.wrap_to)
            } else {
                L(s.0 + 1)
            }
        }
    }

    #[test]
    fn always_holds_and_reports_no_counterexample() {
        let sys = Grid { n: 2, max: 2 };
        let r = Search::new(&sys).check_property(&always("in-range", |s: &Vec<u8>| {
            s.iter().all(|&c| c <= 2)
        }));
        assert!(r.holds);
        assert_eq!(r.states, 9);
        assert_eq!(r.region, 0);
        assert!(r.counterexample.is_none());
    }

    #[test]
    fn never_violation_yields_shortest_witness() {
        let sys = Grid { n: 2, max: 3 };
        let r = Search::new(&sys).check_property(&never("sum-2", |s: &Vec<u8>| {
            s.iter().map(|&c| c as u32).sum::<u32>() == 2
        }));
        assert!(!r.holds);
        match r.counterexample.expect("violated") {
            Counterexample::BadState(e) => {
                assert_eq!(e.len(), 2, "sum 2 is reachable in exactly 2 steps");
                assert_eq!(e.last().iter().map(|&c| c as u32).sum::<u32>(), 2);
                assert_eq!(e.first(), &vec![0, 0]);
            }
            other => panic!("expected bad-state, got {other:?}"),
        }
    }

    #[test]
    fn eventually_violation_yields_stem_and_cycle() {
        // 0 → 1 → 2 → 3 → 4 → 2: stem of 2 steps, cycle of 3.
        let sys = Loop { max: 4, wrap_to: 2 };
        let r = Search::new(&sys).check_property(&eventually("reaches-9", |s: &L| s.0 == 9));
        assert!(!r.holds);
        assert_eq!(r.region, 5);
        match r.counterexample.expect("violated") {
            Counterexample::Lasso(l) => {
                assert_eq!(l.pivot, None);
                assert_eq!(l.stem.last(), &L(2), "head is the first cycle state");
                assert_eq!(l.stem.len(), 2);
                assert_eq!(l.cycle.len(), 3);
                assert_eq!(l.cycle.last().expect("nonempty").1, L(2), "cycle closes");
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn eventually_holds_when_every_run_reaches_goal() {
        // The cycle contains 2; "eventually 2" has no avoiding lasso.
        let sys = Loop { max: 4, wrap_to: 2 };
        let r = Search::new(&sys).check_property(&eventually("reaches-2", |s: &L| s.0 == 2));
        assert!(r.holds);
        assert!(r.counterexample.is_none());
        // The ¬goal region {0, 1, 3, 4} is acyclic: 4 singleton SCCs.
        assert_eq!(r.region, 4);
        assert_eq!(r.sccs, 4);
        assert_eq!(r.candidate_sccs, 0);
    }

    #[test]
    fn terminal_state_counts_as_stutter_violation() {
        // Grid terminates at the all-max corner; a run stuttering there
        // never reaches a sum of 99.
        let sys = Grid { n: 2, max: 1 };
        let r = Search::new(&sys).check_property(&eventually("sum-99", |s: &Vec<u8>| {
            s.iter().map(|&c| c as u32).sum::<u32>() == 99
        }));
        assert!(!r.holds);
        match r.counterexample.expect("violated") {
            Counterexample::Lasso(l) => {
                assert_eq!(l.stem.last(), &vec![1, 1], "terminal corner");
                assert!(l.cycle.is_empty(), "stutter lasso has no cycle steps");
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn leads_to_violation_pinpoints_the_pivot() {
        // 0 → 1 → 2 → 3 → 1: "state 2 leads to state 0" fails; the pivot
        // is the visit to 2, after which the run cycles in {1, 2, 3}.
        let sys = Loop { max: 3, wrap_to: 1 };
        let r = Search::new(&sys).check_property(&leads_to(
            "two-then-zero",
            |s: &L| s.0 == 2,
            |s: &L| s.0 == 0,
        ));
        assert!(!r.holds);
        match r.counterexample.expect("violated") {
            Counterexample::Lasso(l) => {
                let k = l.pivot.expect("leads-to sets the pivot");
                assert_eq!(l.stem.states()[k], L(2), "trigger state");
                assert!(!l.cycle.is_empty());
                assert!(
                    l.cycle.iter().all(|(_, s)| s.0 != 0),
                    "the cycle avoids the response"
                );
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn leads_to_holds_when_response_always_follows() {
        // 0 → 1 → 2 → 0: from 1 the run inevitably revisits 0.
        let sys = Loop { max: 2, wrap_to: 0 };
        let r = Search::new(&sys).check_property(&leads_to(
            "one-then-zero",
            |s: &L| s.0 == 1,
            |s: &L| s.0 == 0,
        ));
        assert!(r.holds, "the ¬0 region {{1, 2}} is acyclic");
    }

    /// Two processes each with a private self-loop and a handshake cycle.
    /// Under per-process fairness only the handshake sustains a fair run.
    struct Handshake;
    impl System for Handshake {
        type State = L;
        type Action = u64; // action = owning process (0 or 1), +2 for the handshake hop
        fn initial_states(&self) -> Vec<L> {
            vec![L(0)]
        }
        fn enabled(&self, s: &L) -> Vec<u64> {
            match s.0 {
                0 => vec![0, 2], // p0 self-loop, or hop to 1
                _ => vec![1, 3], // p1 self-loop, or hop back to 0
            }
        }
        fn step(&self, s: &L, a: &u64) -> L {
            match a {
                0 | 1 => s.clone(),
                2 => L(1),
                _ => L(0),
            }
        }
    }

    #[test]
    fn fairness_forces_the_cycle_to_cover_every_class() {
        let g = Search::new(&Handshake).graph();
        let prop = eventually("done", |_: &L| false);
        // Unfair: the p0 self-loop alone is a (shortest) violating cycle.
        let unfair = Checker::new(&g).check(&prop);
        match unfair.counterexample.expect("violated") {
            Counterexample::Lasso(l) => assert_eq!(l.cycle.len(), 1),
            other => panic!("expected lasso, got {other:?}"),
        }
        // Fair: the cycle must contain a step of each process; the
        // shortest such cycle is the 2-step handshake (self-loops alone
        // cannot cover both classes).
        let fair = Checker::new(&g)
            .fairness(2, |a: &u64| Some((*a % 2) as usize))
            .check(&prop);
        match fair.counterexample.expect("still violated") {
            Counterexample::Lasso(l) => {
                assert_eq!(l.cycle.len(), 2);
                let classes: BTreeSet<u64> = l.cycle.iter().map(|(a, _)| a % 2).collect();
                assert_eq!(classes.len(), 2, "both processes step in the cycle");
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn fairness_mask_is_exact_up_to_the_documented_32_classes() {
        // A two-state toggle; "done" never happens, so without fairness
        // the toggle itself is a violating cycle.
        let sys = Loop { max: 1, wrap_to: 0 };
        let g = Search::new(&sys).graph();
        let prop = eventually("done", |_: &L| false);
        assert!(!Checker::new(&g).check(&prop).holds);
        // Its one action covers no class (or class 0 alone), so under 31
        // or 32 classes no cycle is fair and the property holds. At 32
        // the mask used to be `(1 << 32) - 1`: a panic in debug builds,
        // `0` in release — which accepted the cycle covering nothing.
        for classes in [31, 32] {
            for class in [None, Some(0)] {
                let r = Checker::new(&g)
                    .fairness(classes, move |_: &u64| class)
                    .check(&prop);
                assert!(r.holds, "classes={classes} class={class:?}");
                assert_eq!(r.candidate_sccs, 0);
            }
        }
        // One class, covered: the toggle is fair again.
        let r = Checker::new(&g).fairness(1, |_: &u64| Some(0)).check(&prop);
        assert!(!r.holds);
    }

    #[test]
    #[should_panic(expected = "at most 32 fairness classes")]
    fn more_than_32_fairness_classes_are_refused() {
        let g = Search::new(&Loop { max: 1, wrap_to: 0 }).graph();
        let _ = Checker::new(&g).fairness(33, |_: &u64| None);
    }

    #[test]
    fn admissibility_restricts_cycle_states_but_not_the_stem() {
        // 0 → 1 → 2 → 3 → 1: ban state 3 from repeating forever; the
        // region {1, 2, 3} minus 3 is acyclic, so the check holds even
        // though an unconstrained lasso exists.
        let sys = Loop { max: 3, wrap_to: 1 };
        let g = Search::new(&sys).graph();
        let prop = eventually("reaches-0-again", |s: &L| s.0 == 9);
        let unconstrained = Checker::new(&g).check(&prop);
        assert!(!unconstrained.holds);
        let constrained = Checker::new(&g).admissible(|s: &L| s.0 != 3).check(&prop);
        assert!(constrained.holds, "no admissible cycle without state 3");
    }

    #[test]
    fn truncated_graphs_mark_the_report() {
        let sys = Grid { n: 2, max: 50 };
        let r = Search::new(&sys)
            .max_states(10)
            .check_property(&always("in-range", |_: &Vec<u8>| true));
        assert!(r.holds);
        assert!(r.truncated);
    }

    #[test]
    fn a_cut_graph_offers_no_stutter_lasso_but_keeps_its_cycles() {
        // A 5-cycle: every state has an enabled action. Cut by either
        // bound, L(1)'s row is empty — never expanded, or its child fell
        // past the cap — which is no terminal state to stutter in.
        let sys = Loop { max: 4, wrap_to: 0 };
        let prop = eventually("never", |_: &L| false);
        for search in [
            Search::new(&sys).max_depth(1),
            Search::new(&sys).max_states(2),
        ] {
            let r = search.check_property(&prop);
            assert!(r.truncated);
            assert!(r.holds, "{}", r.to_json());
            assert_eq!(r.counterexample, None);
        }
        // A cycle on a cut graph is still a violation: its edges are real.
        // Capped at one state, Handshake keeps L(0)'s self-loop.
        let r = Search::new(&Handshake).max_states(1).check_property(&prop);
        assert!(r.truncated);
        match r.counterexample.expect("the self-loop is a lasso") {
            Counterexample::Lasso(l) => assert_eq!(l.cycle, vec![(0, L(0))]),
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn report_json_is_canonical() {
        let sys = Loop { max: 4, wrap_to: 2 };
        let r = Search::new(&sys).check_property(&eventually("reaches-9", |s: &L| s.0 == 9));
        assert_eq!(
            r.to_json(),
            "{\"name\":\"reaches-9\",\"kind\":\"eventually\",\"holds\":false,\
             \"states\":5,\"edges\":5,\"region\":5,\"sccs\":3,\"candidate_sccs\":1,\
             \"truncated\":false,\"counterexample\":{\"type\":\"lasso\",\"pivot\":null,\
             \"stem_states\":[\"L(0)\",\"L(1)\",\"L(2)\"],\"stem_actions\":[\"0\",\"0\"],\
             \"cycle_actions\":[\"0\",\"0\",\"0\"],\"cycle_states\":[\"L(3)\",\"L(4)\",\"L(2)\"]}}"
        );
        // Byte-determinism: same check, same bytes.
        let again = Search::new(&sys).check_property(&eventually("reaches-9", |s: &L| s.0 == 9));
        assert_eq!(r.to_json(), again.to_json());
    }

    #[test]
    fn json_escapes_are_correct() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn traced_twin_emits_the_property_vocabulary() {
        let sys = Loop { max: 4, wrap_to: 2 };
        let mut tracer = RingTracer::new(64);
        let r = Search::new(&sys)
            .tracer(&mut tracer)
            .check_property(&eventually("reaches-9", |s: &L| s.0 == 9));
        assert!(!r.holds);
        let kinds: Vec<&str> = tracer.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["check.start", "scc", "verdict"]);
        assert!(tracer.events().iter().all(|e| e.scope == "property"));
        // Untraced, the same call returns the identical report.
        let untraced = Search::new(&sys).check_property(&eventually("reaches-9", |s: &L| s.0 == 9));
        assert_eq!(r.to_json(), untraced.to_json());
    }
}
