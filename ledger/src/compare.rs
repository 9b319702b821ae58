//! The comparison rule between two sets of runs of one metric.
//!
//! A metric regressed when the change's value is worse than the parent's by
//! more than the bound the benchmark fixed — the value being the median of
//! the samples, which is what every metric reports. Where the spread between a
//! side's own runs is wider than the bound and the two sides' ranges
//! overlap, the values cannot tell a regression from noise, and the row
//! is reported as unresolved rather than as unchanged.

use crate::stats::Summary;

/// Outcome of comparing one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Not worse than the parent by more than the bound.
    Ok,
    /// Worse by more than the bound, and the noise cannot explain it.
    Regressed,
    /// Spread wider than the bound and the runs overlap.
    Unresolved,
}

impl Class {
    /// Lowercase name as printed by `ledger.sh --compare`.
    pub fn name(self) -> &'static str {
        match self {
            Class::Ok => "ok",
            Class::Regressed => "regressed",
            Class::Unresolved => "unresolved",
        }
    }
}

/// One compared row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Parent-side summary.
    pub a: Summary,
    /// Change-side summary.
    pub b: Summary,
    /// Parent-side reported value.
    pub a_value: f64,
    /// Change-side reported value.
    pub b_value: f64,
    /// `(b_value - a_value) / a_value`, signed so that positive is worse.
    pub worse_by: f64,
    /// The verdict.
    pub class: Class,
}

/// Compare parent samples `a` with change samples `b` for a metric that is
/// better when lower (`lower_is_better`) or higher, against `bound` (a
/// share of the parent's value).
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Row {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let (a_value, b_value) = (sa.median, sb.median);
    let raw = (b_value - a_value) / a_value.abs();
    let worse_by = if lower_is_better { raw } else { -raw };
    let spread = sa.spread().max(sb.spread());
    let overlap = sa.min <= sb.max && sb.min <= sa.max;
    let class = if spread > bound && overlap {
        Class::Unresolved
    } else if worse_by > bound {
        Class::Regressed
    } else {
        Class::Ok
    };
    Row {
        a: sa,
        b: sb,
        a_value,
        b_value,
        worse_by,
        class,
    }
}
