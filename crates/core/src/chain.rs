//! Chain arguments — the technique behind the `t+1`-round lower bound \[56\]
//! and the Two Generals impossibility \[61\].
//!
//! A chain argument exhibits a sequence of executions `α1, α2, ..., αk` such
//! that each adjacent pair *looks the same* to some witness process. A
//! process that cannot distinguish two executions must decide the same value
//! in both; if every execution's processes must moreover agree *with each
//! other*, the decided value is transported along the entire chain. When the
//! problem statement forces different decisions at the two ends (e.g. the
//! all-zeros matrix must yield 0 and the all-ones matrix 1), the chain is a
//! contradiction.
//!
//! [`Chain`] stores the executions and witnesses; [`Chain::verify`] checks
//! the indistinguishability of every link with a caller-supplied *view*
//! function, and [`Chain::transport`] carries a decision from one end to the
//! other, yielding a [`ChainCertificate`].
//!
//! ```
//! use impossible_core::chain::Chain;
//! use impossible_core::ids::ProcessId;
//!
//! // Executions as plain data: (view of p0, view of p1, common decision).
//! type Exec = (u32, u32, u64);
//!
//! // p0 cannot tell e0 from e1; p1 cannot tell e1 from e2.
//! let (e0, e1, e2) = ((5, 8, 0), (5, 9, 0), (6, 9, 0));
//! let mut chain = Chain::start(e0);
//! chain.link(ProcessId(0), e1);
//! chain.link(ProcessId(1), e2);
//!
//! let view = |e: &Exec, p: ProcessId| if p.index() == 0 { e.0 } else { e.1 };
//! let cert = chain
//!     .transport(view, |e: &Exec, _| Some(e.2), |e: &Exec| Some(e.2))
//!     .unwrap();
//! // The decision forced at the head is transported to the tail:
//! assert_eq!((cert.head_value, cert.tail_value, cert.links), (0, 0, 2));
//! ```

use crate::ids::ProcessId;
use std::fmt;
use std::fmt::Debug;

/// A chain of executions linked by per-process indistinguishability.
///
/// Invariant: `witnesses.len() + 1 == executions.len()` (each witness links
/// executions `i` and `i+1`).
#[derive(Debug, Clone)]
pub struct Chain<E> {
    executions: Vec<E>,
    witnesses: Vec<ProcessId>,
}

/// Why a chain failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The witness of link `link` can distinguish the two executions.
    Distinguishable {
        /// Index of the broken link (between executions `link` and `link+1`).
        link: usize,
        /// The witness that was supposed to be fooled.
        witness: ProcessId,
    },
    /// The witness of link `link` has no decision in one of the executions,
    /// so nothing can be transported across it.
    Undecided {
        /// Index of the broken link.
        link: usize,
        /// The witness lacking a decision.
        witness: ProcessId,
    },
    /// Execution `exec` violates internal agreement: two processes decided
    /// differently inside a single execution.
    InternalDisagreement {
        /// Index of the offending execution.
        exec: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Distinguishable { link, witness } => write!(
                f,
                "link {link} broken: witness {witness} distinguishes the executions"
            ),
            ChainError::Undecided { link, witness } => {
                write!(f, "link {link}: witness {witness} undecided")
            }
            ChainError::InternalDisagreement { exec } => {
                write!(f, "execution {exec} violates agreement internally")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Result of transporting a decision along a verified chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainCertificate {
    /// The decision value forced at the head of the chain.
    pub head_value: u64,
    /// The decision value observed at the tail.
    pub tail_value: u64,
    /// Number of links traversed.
    pub links: usize,
}

impl fmt::Display for ChainCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain of {} links transports decision {} to decision {}{}",
            self.links,
            self.head_value,
            self.tail_value,
            if self.head_value == self.tail_value {
                " (forced equal)"
            } else {
                " (BROKEN: values differ)"
            }
        )
    }
}

impl<E> Chain<E> {
    /// Start a chain from a single execution.
    pub fn start(execution: E) -> Self {
        Chain {
            executions: vec![execution],
            witnesses: Vec::new(),
        }
    }

    /// Construct from parts.
    ///
    /// # Panics
    ///
    /// Panics unless `witnesses.len() + 1 == executions.len()`.
    pub fn from_parts(executions: Vec<E>, witnesses: Vec<ProcessId>) -> Self {
        assert_eq!(
            witnesses.len() + 1,
            executions.len(),
            "a chain has one more execution than witnesses"
        );
        Chain {
            executions,
            witnesses,
        }
    }

    /// Append an execution, linked to the previous one by `witness`.
    pub fn link(&mut self, witness: ProcessId, execution: E) {
        self.witnesses.push(witness);
        self.executions.push(execution);
    }

    /// The executions.
    pub fn executions(&self) -> &[E] {
        &self.executions
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// True if the chain has a single execution and no links.
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// Verify every link: `view(exec, witness)` must be equal on both sides.
    ///
    /// The *view* function is the formal content of "looks the same to":
    /// typically the witness's local-state history plus the messages it
    /// received — whatever the model says a process can observe.
    ///
    /// # Errors
    ///
    /// [`ChainError::Distinguishable`] for the first broken link.
    pub fn verify<V, F>(&self, view: F) -> Result<(), ChainError>
    where
        V: Eq,
        F: Fn(&E, ProcessId) -> V,
    {
        for (i, w) in self.witnesses.iter().enumerate() {
            let a = view(&self.executions[i], *w);
            let b = view(&self.executions[i + 1], *w);
            if a != b {
                return Err(ChainError::Distinguishable {
                    link: i,
                    witness: *w,
                });
            }
        }
        Ok(())
    }

    /// Verify the chain and transport the head decision to the tail.
    ///
    /// `view` defines indistinguishability; `decision(exec, p)` yields `p`'s
    /// decision in `exec` (`None` = undecided); `all_agree(exec)` returns the
    /// common decision of *all* processes in `exec` if agreement holds inside
    /// it (this is how the value jumps from the fooled witness to the next
    /// link's witness).
    ///
    /// # Errors
    ///
    /// Any [`ChainError`] discovered along the way.
    pub fn transport<V, F, D, G>(
        &self,
        view: F,
        decision: D,
        all_agree: G,
    ) -> Result<ChainCertificate, ChainError>
    where
        V: Eq,
        F: Fn(&E, ProcessId) -> V,
        D: Fn(&E, ProcessId) -> Option<u64>,
        G: Fn(&E) -> Option<u64>,
    {
        self.verify(&view)?;
        // Head value: the agreed value of execution 0.
        let head_value = all_agree(&self.executions[0])
            .ok_or(ChainError::InternalDisagreement { exec: 0 })?;
        let mut current = head_value;
        for (i, w) in self.witnesses.iter().enumerate() {
            // Witness w decides `current` in execution i (it agrees with
            // everyone there), hence also in execution i+1 (it cannot
            // distinguish), hence everyone in execution i+1 decides
            // `current` (internal agreement).
            let d_i = decision(&self.executions[i], *w)
                .ok_or(ChainError::Undecided { link: i, witness: *w })?;
            if d_i != current {
                return Err(ChainError::InternalDisagreement { exec: i });
            }
            let d_next = decision(&self.executions[i + 1], *w)
                .ok_or(ChainError::Undecided { link: i, witness: *w })?;
            // view-equality should force d_next == d_i; check defensively.
            if d_next != d_i {
                return Err(ChainError::Distinguishable {
                    link: i,
                    witness: *w,
                });
            }
            let agreed = all_agree(&self.executions[i + 1])
                .ok_or(ChainError::InternalDisagreement { exec: i + 1 })?;
            if agreed != d_next {
                return Err(ChainError::InternalDisagreement { exec: i + 1 });
            }
            current = agreed;
        }
        Ok(ChainCertificate {
            head_value,
            tail_value: current,
            links: self.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy "execution": per-process views and decisions, as plain data.
    #[derive(Debug, Clone)]
    struct Toy {
        views: Vec<u32>,
        decisions: Vec<Option<u64>>,
    }

    fn view(e: &Toy, p: ProcessId) -> u32 {
        e.views[p.index()]
    }
    fn decision(e: &Toy, p: ProcessId) -> Option<u64> {
        e.decisions[p.index()]
    }
    fn all_agree(e: &Toy) -> Option<u64> {
        let first = e.decisions.first().copied().flatten()?;
        e.decisions
            .iter()
            .all(|d| *d == Some(first))
            .then_some(first)
    }

    #[test]
    fn valid_chain_transports_value() {
        // Three executions; p0 links 0-1 (same view 5), p1 links 1-2 (view 9).
        let e0 = Toy {
            views: vec![5, 8],
            decisions: vec![Some(0), Some(0)],
        };
        let e1 = Toy {
            views: vec![5, 9],
            decisions: vec![Some(0), Some(0)],
        };
        let e2 = Toy {
            views: vec![6, 9],
            decisions: vec![Some(0), Some(0)],
        };
        let chain = Chain::from_parts(vec![e0, e1, e2], vec![ProcessId(0), ProcessId(1)]);
        let cert = chain.transport(view, decision, all_agree).unwrap();
        assert_eq!(cert.head_value, 0);
        assert_eq!(cert.tail_value, 0);
        assert_eq!(cert.links, 2);
    }

    #[test]
    fn broken_link_detected() {
        let e0 = Toy {
            views: vec![5, 8],
            decisions: vec![Some(0), Some(0)],
        };
        let e1 = Toy {
            views: vec![7, 8], // p0's view changed!
            decisions: vec![Some(0), Some(0)],
        };
        let chain = Chain::from_parts(vec![e0, e1], vec![ProcessId(0)]);
        assert_eq!(
            chain.verify(view).unwrap_err(),
            ChainError::Distinguishable {
                link: 0,
                witness: ProcessId(0)
            }
        );
    }

    #[test]
    fn internal_disagreement_detected() {
        let e0 = Toy {
            views: vec![5, 8],
            decisions: vec![Some(0), Some(1)], // disagree internally
        };
        let e1 = Toy {
            views: vec![5, 9],
            decisions: vec![Some(0), Some(0)],
        };
        let chain = Chain::from_parts(vec![e0, e1], vec![ProcessId(0)]);
        assert_eq!(
            chain.transport(view, decision, all_agree).unwrap_err(),
            ChainError::InternalDisagreement { exec: 0 }
        );
    }

    #[test]
    fn undecided_witness_detected() {
        let e0 = Toy {
            views: vec![5, 8],
            decisions: vec![Some(0), Some(0)],
        };
        let e1 = Toy {
            views: vec![5, 9],
            decisions: vec![None, Some(0)],
        };
        let chain = Chain::from_parts(vec![e0, e1], vec![ProcessId(0)]);
        let err = chain.transport(view, decision, all_agree).unwrap_err();
        assert!(matches!(err, ChainError::Undecided { .. }));
    }

    #[test]
    fn incremental_construction() {
        let e0 = Toy {
            views: vec![1, 1],
            decisions: vec![Some(1), Some(1)],
        };
        let mut chain = Chain::start(e0);
        assert!(chain.is_empty());
        chain.link(
            ProcessId(1),
            Toy {
                views: vec![2, 1],
                decisions: vec![Some(1), Some(1)],
            },
        );
        assert_eq!(chain.len(), 1);
        assert!(chain.verify(view).is_ok());
    }

    #[test]
    fn certificate_display() {
        let cert = ChainCertificate {
            head_value: 0,
            tail_value: 0,
            links: 7,
        };
        assert!(cert.to_string().contains("7 links"));
        assert!(cert.to_string().contains("forced equal"));
    }
}
