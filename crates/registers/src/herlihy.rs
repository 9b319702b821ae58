//! The consensus hierarchy \[65\], executable.
//!
//! Herlihy connected wait-free implementability to consensus: registers
//! cannot solve 2-process wait-free consensus, test-and-set and FIFO queues
//! solve exactly 2, compare-and-swap solves any `n`. The engine here is the
//! same machinery as FLP's (Loui–Abu-Amara \[76\] did exactly this
//! transfer — "the similarity between the ideas used in these two settings
//! reinforces my intuition that there is an awful lot that is fundamentally
//! the same"): an [`ObjectSystem`] is a `DecisionSystem`, so `Search::valence`
//! classifies its configurations as it does FLP's.
//!
//! [`ObjectProtocol`] expresses a wait-free consensus protocol over typed
//! shared objects; [`ObjectSystem`] compiles it to a transition system;
//! [`consensus_verdict`] checks agreement and validity as safety
//! properties (`never(disagrees)`, `never(decided ∉ inputs)`; a violation
//! is exhibited through `Search::check_property`, as FLP's candidates are
//! checked) and wait-freedom through bounded solo runs. The verified protocols
//! ([`TasConsensus2`], [`QueueConsensus2`], [`CasConsensus`]) and refuted
//! candidates ([`RegisterMin2`], [`RegisterWait2`], [`TasConsensus3`])
//! trace out the hierarchy's first levels.

use impossible_core::ids::ProcessId;
use impossible_core::system::{DecisionSystem, System};
use impossible_explore::property::never;
use impossible_explore::Search;
use std::fmt::Debug;
use std::hash::Hash;

/// Sentinel for "empty register / queue".
pub const EMPTY: u64 = u64::MAX;

/// A typed shared object with its initial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectSpec {
    /// Read/write register.
    Register {
        /// Initial value.
        init: u64,
    },
    /// Test-and-set bit (0 = unset).
    TestAndSet,
    /// Compare-and-swap cell.
    CompareAndSwap {
        /// Initial value.
        init: u64,
    },
    /// FIFO queue.
    FifoQueue {
        /// Initial contents, front first.
        init: Vec<u64>,
    },
}

/// An operation on a shared object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjOp {
    /// Read a register (response: the value).
    Read,
    /// Write a register (response: 0).
    Write(u64),
    /// Test-and-set (response: the *old* value; sets to 1).
    TestAndSet,
    /// Compare-and-swap (response: 1 on success, 0 on failure).
    CompareAndSwap {
        /// Expected value.
        expect: u64,
        /// Replacement on match.
        new: u64,
    },
    /// Enqueue (response: 0).
    Enqueue(u64),
    /// Dequeue (response: front item, or [`EMPTY`]).
    Dequeue,
}

/// A wait-free consensus protocol over shared objects.
pub trait ObjectProtocol {
    /// Per-process local state.
    type Local: Clone + Eq + Ord + Hash + Debug;

    /// Number of processes.
    fn n(&self) -> usize;

    /// The shared objects.
    fn objects(&self) -> Vec<ObjectSpec>;

    /// Initial local state with `input`.
    fn init(&self, i: usize, input: u64) -> Self::Local;

    /// The next operation (object index, op), or `None` once halted.
    fn next_op(&self, i: usize, local: &Self::Local) -> Option<(usize, ObjOp)>;

    /// Consume the response of the op returned by [`Self::next_op`].
    fn on_response(&self, i: usize, local: &Self::Local, response: u64) -> Self::Local;

    /// The decision, if made.
    fn decision(&self, local: &Self::Local) -> Option<u64>;
}

/// Global configuration of an [`ObjectSystem`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjState<L> {
    /// Per-process locals.
    pub locals: Vec<L>,
    /// Object states (registers/TAS/CAS use index 0; queues their items).
    objects: Vec<Vec<u64>>,
}

/// The compiled transition system: action = "process `i` performs its next
/// operation atomically".
pub struct ObjectSystem<'a, P: ObjectProtocol> {
    proto: &'a P,
    inputs: Vec<Vec<u64>>,
}

impl<'a, P: ObjectProtocol> ObjectSystem<'a, P> {
    /// System over all binary input vectors.
    pub fn all_binary(proto: &'a P) -> Self {
        let n = proto.n();
        let inputs = (0..(1u64 << n))
            .map(|mask| (0..n).map(|i| (mask >> i) & 1).collect())
            .collect();
        ObjectSystem { proto, inputs }
    }

    fn apply(objects: &mut [Vec<u64>], idx: usize, op: ObjOp) -> u64 {
        let obj = &mut objects[idx];
        match op {
            ObjOp::Read => obj[0],
            ObjOp::Write(v) => {
                obj[0] = v;
                0
            }
            ObjOp::TestAndSet => {
                let old = obj[0];
                obj[0] = 1;
                old
            }
            ObjOp::CompareAndSwap { expect, new } => {
                if obj[0] == expect {
                    obj[0] = new;
                    1
                } else {
                    0
                }
            }
            ObjOp::Enqueue(v) => {
                obj.push(v);
                0
            }
            ObjOp::Dequeue => {
                if obj.is_empty() {
                    EMPTY
                } else {
                    obj.remove(0)
                }
            }
        }
    }

    fn init_objects(proto: &P) -> Vec<Vec<u64>> {
        proto
            .objects()
            .into_iter()
            .map(|spec| match spec {
                ObjectSpec::Register { init } | ObjectSpec::CompareAndSwap { init } => vec![init],
                ObjectSpec::TestAndSet => vec![0],
                ObjectSpec::FifoQueue { init } => init,
            })
            .collect()
    }
}

impl<'a, P: ObjectProtocol> System for ObjectSystem<'a, P> {
    type State = ObjState<P::Local>;
    type Action = usize; // which process steps

    fn initial_states(&self) -> Vec<Self::State> {
        self.inputs
            .iter()
            .map(|input| ObjState {
                locals: (0..self.proto.n())
                    .map(|i| self.proto.init(i, input[i]))
                    .collect(),
                objects: Self::init_objects(self.proto),
            })
            .collect()
    }

    fn enabled(&self, state: &Self::State) -> Vec<usize> {
        (0..self.proto.n())
            .filter(|&i| self.proto.next_op(i, &state.locals[i]).is_some())
            .collect()
    }

    fn step(&self, state: &Self::State, action: &usize) -> Self::State {
        let i = *action;
        let (idx, op) = self
            .proto
            .next_op(i, &state.locals[i])
            .expect("enabled implies an op");
        let mut next = state.clone();
        let response = Self::apply(&mut next.objects, idx, op);
        next.locals[i] = self.proto.on_response(i, &state.locals[i], response);
        next
    }

    fn owner(&self, action: &usize) -> Option<ProcessId> {
        Some(ProcessId(*action))
    }

    fn num_processes(&self) -> Option<usize> {
        Some(self.proto.n())
    }
}

impl<'a, P: ObjectProtocol> DecisionSystem for ObjectSystem<'a, P> {
    fn decisions(&self, state: &Self::State) -> Vec<(ProcessId, u64)> {
        state
            .locals
            .iter()
            .enumerate()
            .filter_map(|(i, l)| self.proto.decision(l).map(|v| (ProcessId(i), v)))
            .collect()
    }
}

/// The hierarchy checker's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyVerdict {
    /// Agreement, validity and wait-freedom all verified exhaustively.
    Correct,
    /// Two processes decide differently in some reachable configuration.
    AgreementViolation,
    /// A decision value that is nobody's input is reachable.
    ValidityViolation,
    /// Some process, run solo from some reachable configuration, fails to
    /// decide within the step bound.
    NotWaitFree,
}

/// Exhaustively check a candidate protocol: agreement, then validity,
/// then wait-freedom, the first violation named.
///
/// The all-binary reachable set is built once. Agreement is read off it;
/// only when some state of it disagrees does `check_property` run
/// `never(disagrees)` over the same graph, so the violation it returns is
/// `verify`-checked before the verdict names it. The wait-freedom sweep
/// runs over the same set.
pub fn consensus_verdict<P: ObjectProtocol>(proto: &P, max_states: usize) -> HierarchyVerdict {
    let sys = ObjectSystem::all_binary(proto);
    let search = Search::new(&sys).max_states(max_states);
    let states = search.reachable_states();
    if states.iter().any(|s| sys.disagrees(s)) {
        let agreement = never("agreement", |s| sys.disagrees(s));
        let report = search.check_property(&agreement);
        assert!(!report.holds, "a disagreeing reachable state is a violation");
        return HierarchyVerdict::AgreementViolation;
    }
    // Validity: decided values must be inputs, checked per input vector.
    for input in &sys.inputs {
        let single = ObjectSystem {
            proto,
            inputs: vec![input.clone()],
        };
        let validity = never("validity", |s| {
            single.decisions(s).iter().any(|(_, v)| !input.contains(v))
        });
        if !Search::new(&single).max_states(max_states).check_property(&validity).holds {
            return HierarchyVerdict::ValidityViolation;
        }
    }
    // Wait-freedom: from every reachable configuration, every undecided
    // process with work left must decide within a bounded solo run.
    let solo_bound = 64;
    for s in states {
        for i in 0..proto.n() {
            if proto.decision(&s.locals[i]).is_some() {
                continue;
            }
            let mut cur = s.clone();
            let mut steps = 0;
            while proto.decision(&cur.locals[i]).is_none() {
                if proto.next_op(i, &cur.locals[i]).is_none() {
                    break; // halted without deciding: treat as decided-none
                }
                cur = sys.step(&cur, &i);
                steps += 1;
                if steps > solo_bound {
                    return HierarchyVerdict::NotWaitFree;
                }
            }
        }
    }
    HierarchyVerdict::Correct
}

// ---------------------------------------------------------------------
// Protocols
// ---------------------------------------------------------------------

/// Shared local shape for the simple protocols below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimpleLocal {
    /// About to write own input to own register.
    WriteOwn {
        /// The input value.
        input: u64,
    },
    /// About to access the decisive object.
    Contend {
        /// The input value.
        input: u64,
    },
    /// Lost the race; about to read register `idx`.
    ReadPeer {
        /// The input value.
        input: u64,
        /// Which peer register to read.
        idx: usize,
    },
    /// Decided.
    Done {
        /// The decided value.
        value: u64,
    },
}

impossible_explore::impl_encode_struct!(ObjState<L> { locals, objects });

impossible_explore::impl_encode_enum!(SimpleLocal {
    0: WriteOwn { input },
    1: Contend { input },
    2: ReadPeer { input, idx },
    3: Done { value },
});

impossible_explore::impl_encode_enum!(CasLocal {
    0: Try { input },
    1: ReadBack,
    2: Done { value },
});

impossible_explore::impl_encode_enum!(Tas3Local {
    0: WriteOwn { input },
    1: Contend { input },
    2: ReadPeer { input, k, first },
    3: Done { value },
});

/// Test-and-set consensus for two processes: write input, TAS, winner takes
/// own value, loser reads the winner's register. Consensus number of TAS
/// is ≥ 2 — verified exhaustively.
#[derive(Debug, Clone, Default)]
pub struct TasConsensus2;

impl ObjectProtocol for TasConsensus2 {
    type Local = SimpleLocal;

    fn n(&self) -> usize {
        2
    }

    fn objects(&self) -> Vec<ObjectSpec> {
        vec![
            ObjectSpec::TestAndSet,
            ObjectSpec::Register { init: EMPTY },
            ObjectSpec::Register { init: EMPTY },
        ]
    }

    fn init(&self, _i: usize, input: u64) -> SimpleLocal {
        SimpleLocal::WriteOwn { input }
    }

    fn next_op(&self, i: usize, local: &SimpleLocal) -> Option<(usize, ObjOp)> {
        match *local {
            SimpleLocal::WriteOwn { input } => Some((1 + i, ObjOp::Write(input))),
            SimpleLocal::Contend { .. } => Some((0, ObjOp::TestAndSet)),
            SimpleLocal::ReadPeer { idx, .. } => Some((idx, ObjOp::Read)),
            SimpleLocal::Done { .. } => None,
        }
    }

    fn on_response(&self, i: usize, local: &SimpleLocal, response: u64) -> SimpleLocal {
        match *local {
            SimpleLocal::WriteOwn { input } => SimpleLocal::Contend { input },
            SimpleLocal::Contend { input } => {
                if response == 0 {
                    SimpleLocal::Done { value: input } // won the TAS
                } else {
                    SimpleLocal::ReadPeer {
                        input,
                        idx: 1 + (1 - i),
                    }
                }
            }
            SimpleLocal::ReadPeer { .. } => SimpleLocal::Done { value: response },
            done => done,
        }
    }

    fn decision(&self, local: &SimpleLocal) -> Option<u64> {
        match local {
            SimpleLocal::Done { value } => Some(*value),
            _ => None,
        }
    }
}

/// Queue consensus for two processes: a FIFO queue pre-loaded with one
/// token; the dequeuer of the token wins. Consensus number of a queue ≥ 2.
#[derive(Debug, Clone, Default)]
pub struct QueueConsensus2;

const TOKEN: u64 = 7;

impl ObjectProtocol for QueueConsensus2 {
    type Local = SimpleLocal;

    fn n(&self) -> usize {
        2
    }

    fn objects(&self) -> Vec<ObjectSpec> {
        vec![
            ObjectSpec::FifoQueue { init: vec![TOKEN] },
            ObjectSpec::Register { init: EMPTY },
            ObjectSpec::Register { init: EMPTY },
        ]
    }

    fn init(&self, _i: usize, input: u64) -> SimpleLocal {
        SimpleLocal::WriteOwn { input }
    }

    fn next_op(&self, i: usize, local: &SimpleLocal) -> Option<(usize, ObjOp)> {
        match *local {
            SimpleLocal::WriteOwn { input } => Some((1 + i, ObjOp::Write(input))),
            SimpleLocal::Contend { .. } => Some((0, ObjOp::Dequeue)),
            SimpleLocal::ReadPeer { idx, .. } => Some((idx, ObjOp::Read)),
            SimpleLocal::Done { .. } => None,
        }
    }

    fn on_response(&self, i: usize, local: &SimpleLocal, response: u64) -> SimpleLocal {
        match *local {
            SimpleLocal::WriteOwn { input } => SimpleLocal::Contend { input },
            SimpleLocal::Contend { input } => {
                if response == TOKEN {
                    SimpleLocal::Done { value: input }
                } else {
                    SimpleLocal::ReadPeer {
                        input,
                        idx: 1 + (1 - i),
                    }
                }
            }
            SimpleLocal::ReadPeer { .. } => SimpleLocal::Done { value: response },
            done => done,
        }
    }

    fn decision(&self, local: &SimpleLocal) -> Option<u64> {
        match local {
            SimpleLocal::Done { value } => Some(*value),
            _ => None,
        }
    }
}

/// Compare-and-swap consensus for `n` processes: CAS the input into a cell
/// initialized to a sentinel; everyone decides the cell's final content.
/// Consensus number ∞.
#[derive(Debug, Clone)]
pub struct CasConsensus {
    n: usize,
}

impl CasConsensus {
    /// CAS consensus for `n` processes.
    pub fn new(n: usize) -> Self {
        CasConsensus { n }
    }
}

/// Local state of [`CasConsensus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CasLocal {
    /// About to CAS.
    Try {
        /// Own input.
        input: u64,
    },
    /// CAS failed; read the cell.
    ReadBack,
    /// Decided.
    Done {
        /// The decided value.
        value: u64,
    },
}

const SENTINEL: u64 = 999;

impl ObjectProtocol for CasConsensus {
    type Local = CasLocal;

    fn n(&self) -> usize {
        self.n
    }

    fn objects(&self) -> Vec<ObjectSpec> {
        vec![ObjectSpec::CompareAndSwap { init: SENTINEL }]
    }

    fn init(&self, _i: usize, input: u64) -> CasLocal {
        CasLocal::Try { input }
    }

    fn next_op(&self, _i: usize, local: &CasLocal) -> Option<(usize, ObjOp)> {
        match *local {
            CasLocal::Try { input } => Some((
                0,
                ObjOp::CompareAndSwap {
                    expect: SENTINEL,
                    new: input,
                },
            )),
            CasLocal::ReadBack => Some((0, ObjOp::Read)),
            CasLocal::Done { .. } => None,
        }
    }

    fn on_response(&self, _i: usize, local: &CasLocal, response: u64) -> CasLocal {
        match *local {
            CasLocal::Try { input } => {
                if response == 1 {
                    CasLocal::Done { value: input }
                } else {
                    CasLocal::ReadBack
                }
            }
            CasLocal::ReadBack => CasLocal::Done { value: response },
            done => done,
        }
    }

    fn decision(&self, local: &CasLocal) -> Option<u64> {
        match local {
            CasLocal::Done { value } => Some(*value),
            _ => None,
        }
    }
}

/// A register-only candidate: write own input, read the peer's register,
/// decide own if the peer is silent, else the minimum. Registers have
/// consensus number 1, so this must fail — the checker finds the
/// disagreement.
#[derive(Debug, Clone, Default)]
pub struct RegisterMin2;

impl ObjectProtocol for RegisterMin2 {
    type Local = SimpleLocal;

    fn n(&self) -> usize {
        2
    }

    fn objects(&self) -> Vec<ObjectSpec> {
        vec![
            ObjectSpec::Register { init: EMPTY },
            ObjectSpec::Register { init: EMPTY },
        ]
    }

    fn init(&self, _i: usize, input: u64) -> SimpleLocal {
        SimpleLocal::WriteOwn { input }
    }

    fn next_op(&self, i: usize, local: &SimpleLocal) -> Option<(usize, ObjOp)> {
        match *local {
            SimpleLocal::WriteOwn { input } => Some((i, ObjOp::Write(input))),
            SimpleLocal::Contend { .. } => Some((1 - i, ObjOp::Read)),
            SimpleLocal::ReadPeer { .. } => unreachable!("unused state"),
            SimpleLocal::Done { .. } => None,
        }
    }

    fn on_response(&self, _i: usize, local: &SimpleLocal, response: u64) -> SimpleLocal {
        match *local {
            SimpleLocal::WriteOwn { input } => SimpleLocal::Contend { input },
            SimpleLocal::Contend { input } => SimpleLocal::Done {
                value: if response == EMPTY {
                    input
                } else {
                    input.min(response)
                },
            },
            done => done,
        }
    }

    fn decision(&self, local: &SimpleLocal) -> Option<u64> {
        match local {
            SimpleLocal::Done { value } => Some(*value),
            _ => None,
        }
    }
}

/// A register-only candidate that waits for the peer: safe but not
/// wait-free (the solo run spins forever).
#[derive(Debug, Clone, Default)]
pub struct RegisterWait2;

impl ObjectProtocol for RegisterWait2 {
    type Local = SimpleLocal;

    fn n(&self) -> usize {
        2
    }

    fn objects(&self) -> Vec<ObjectSpec> {
        vec![
            ObjectSpec::Register { init: EMPTY },
            ObjectSpec::Register { init: EMPTY },
        ]
    }

    fn init(&self, _i: usize, input: u64) -> SimpleLocal {
        SimpleLocal::WriteOwn { input }
    }

    fn next_op(&self, i: usize, local: &SimpleLocal) -> Option<(usize, ObjOp)> {
        match *local {
            SimpleLocal::WriteOwn { input } => Some((i, ObjOp::Write(input))),
            SimpleLocal::Contend { .. } => Some((1 - i, ObjOp::Read)),
            SimpleLocal::ReadPeer { .. } => unreachable!("unused state"),
            SimpleLocal::Done { .. } => None,
        }
    }

    fn on_response(&self, _i: usize, local: &SimpleLocal, response: u64) -> SimpleLocal {
        match *local {
            SimpleLocal::WriteOwn { input } => SimpleLocal::Contend { input },
            SimpleLocal::Contend { input } => {
                if response == EMPTY {
                    // Spin until the peer shows up — the wait-freedom sin.
                    SimpleLocal::Contend { input }
                } else {
                    SimpleLocal::Done {
                        value: input.min(response),
                    }
                }
            }
            done => done,
        }
    }

    fn decision(&self, local: &SimpleLocal) -> Option<u64> {
        match local {
            SimpleLocal::Done { value } => Some(*value),
            _ => None,
        }
    }
}

/// A test-and-set candidate for **three** processes: the TAS winner decides
/// its input; losers read the peers' registers and guess. TAS has consensus
/// number exactly 2, so every guessing rule fails — the checker exhibits
/// the disagreement for this natural one.
#[derive(Debug, Clone, Default)]
pub struct TasConsensus3;

/// Local state of [`TasConsensus3`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tas3Local {
    /// Write own register.
    WriteOwn {
        /// Own input.
        input: u64,
    },
    /// Contend on the TAS.
    Contend {
        /// Own input.
        input: u64,
    },
    /// Lost; read peer `k` (0 or 1 among the two others).
    ReadPeer {
        /// Own input.
        input: u64,
        /// Which of the two peers.
        k: usize,
        /// First peer's observed value.
        first: u64,
    },
    /// Decided.
    Done {
        /// The decided value.
        value: u64,
    },
}

impl ObjectProtocol for TasConsensus3 {
    type Local = Tas3Local;

    fn n(&self) -> usize {
        3
    }

    fn objects(&self) -> Vec<ObjectSpec> {
        vec![
            ObjectSpec::TestAndSet,
            ObjectSpec::Register { init: EMPTY },
            ObjectSpec::Register { init: EMPTY },
            ObjectSpec::Register { init: EMPTY },
        ]
    }

    fn init(&self, _i: usize, input: u64) -> Tas3Local {
        Tas3Local::WriteOwn { input }
    }

    fn next_op(&self, i: usize, local: &Tas3Local) -> Option<(usize, ObjOp)> {
        let peers = [(i + 1) % 3, (i + 2) % 3];
        match *local {
            Tas3Local::WriteOwn { input } => Some((1 + i, ObjOp::Write(input))),
            Tas3Local::Contend { .. } => Some((0, ObjOp::TestAndSet)),
            Tas3Local::ReadPeer { k, .. } => Some((1 + peers[k], ObjOp::Read)),
            Tas3Local::Done { .. } => None,
        }
    }

    fn on_response(&self, _i: usize, local: &Tas3Local, response: u64) -> Tas3Local {
        match *local {
            Tas3Local::WriteOwn { input } => Tas3Local::Contend { input },
            Tas3Local::Contend { input } => {
                if response == 0 {
                    Tas3Local::Done { value: input }
                } else {
                    Tas3Local::ReadPeer {
                        input,
                        k: 0,
                        first: EMPTY,
                    }
                }
            }
            Tas3Local::ReadPeer { input, k: 0, .. } => Tas3Local::ReadPeer {
                input,
                k: 1,
                first: response,
            },
            Tas3Local::ReadPeer { first, .. } => {
                // Guess: the lowest-indexed peer that has written. A loser
                // cannot tell *which* peer won the TAS — the fatal gap.
                let value = if first != EMPTY { first } else { response };
                Tas3Local::Done { value }
            }
            done => done,
        }
    }

    fn decision(&self, local: &Tas3Local) -> Option<u64> {
        match local {
            Tas3Local::Done { value } => Some(*value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tas_solves_two_process_consensus() {
        assert_eq!(
            consensus_verdict(&TasConsensus2, 500_000),
            HierarchyVerdict::Correct
        );
    }

    #[test]
    fn queue_solves_two_process_consensus() {
        assert_eq!(
            consensus_verdict(&QueueConsensus2, 500_000),
            HierarchyVerdict::Correct
        );
    }

    #[test]
    fn cas_solves_three_process_consensus() {
        assert_eq!(
            consensus_verdict(&CasConsensus::new(3), 500_000),
            HierarchyVerdict::Correct
        );
    }

    #[test]
    fn cas_solves_four_process_consensus() {
        assert_eq!(
            consensus_verdict(&CasConsensus::new(4), 2_000_000),
            HierarchyVerdict::Correct
        );
    }

    #[test]
    fn register_min_candidate_disagrees() {
        assert_eq!(
            consensus_verdict(&RegisterMin2, 500_000),
            HierarchyVerdict::AgreementViolation
        );
    }

    #[test]
    fn register_wait_candidate_is_not_wait_free() {
        assert_eq!(
            consensus_verdict(&RegisterWait2, 500_000),
            HierarchyVerdict::NotWaitFree
        );
    }

    #[test]
    fn tas_cannot_solve_three_process_consensus_naturally() {
        // The natural loser-guess rule disagrees somewhere: TAS tops out
        // at consensus number 2.
        assert_ne!(
            consensus_verdict(&TasConsensus3, 2_000_000),
            HierarchyVerdict::Correct
        );
    }

    #[test]
    fn bivalence_artifacts_appear_in_the_object_world_too() {
        // The Loui–Abu-Amara transfer: a bivalent initial configuration for
        // the TAS protocol (mixed inputs — the race decides).
        let sys = ObjectSystem::all_binary(&TasConsensus2);
        let report = Search::new(&sys).max_states(500_000).valence();
        assert!(!report.bivalent_initials.is_empty());
        let agreement = never("agreement", |s| sys.disagrees(s));
        assert!(Search::new(&sys).max_states(500_000).check_property(&agreement).holds);
    }

    /// Decides 0 on its first step, whatever its input.
    struct DecideZero;

    impl ObjectProtocol for DecideZero {
        type Local = Option<u64>;

        fn n(&self) -> usize {
            2
        }

        fn objects(&self) -> Vec<ObjectSpec> {
            vec![ObjectSpec::Register { init: 0 }]
        }

        fn init(&self, _i: usize, _input: u64) -> Option<u64> {
            None
        }

        fn next_op(&self, _i: usize, local: &Option<u64>) -> Option<(usize, ObjOp)> {
            local.is_none().then_some((0, ObjOp::Read))
        }

        fn on_response(&self, _i: usize, _local: &Option<u64>, _response: u64) -> Option<u64> {
            Some(0)
        }

        fn decision(&self, local: &Option<u64>) -> Option<u64> {
            *local
        }
    }

    #[test]
    fn a_constant_decision_breaks_validity() {
        // Everyone agrees on 0, which is nobody's input on the all-1 vector.
        assert_eq!(
            consensus_verdict(&DecideZero, 500_000),
            HierarchyVerdict::ValidityViolation
        );
    }
}
