//! Results of a prover run.
//!
//! Both provers (layout invariants and selector bounds) reduce to a
//! [`Report`]: a list of named checks, each with a [`Verdict`]. The
//! prover gate (`tests/provers.rs`) reads its tallies and prints the
//! violating outcomes when any exist.

/// Outcome of one invariant check on one subject.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds; `method` names the proof strategy
    /// (`"exhaustive"`, `"stride-symmetry"`, `"rank-table"`, …).
    Proved {
        /// How the invariant was established.
        method: String,
    },
    /// The invariant is violated; each entry is one concrete witness.
    Violated {
        /// Human-readable violation witnesses.
        details: Vec<String>,
    },
    /// The check did not apply to this subject.
    Skipped {
        /// Why the check was skipped.
        reason: String,
    },
}

impl Verdict {
    /// Whether this verdict represents a violation.
    #[inline]
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violated { .. })
    }
}

/// `Proved` by `method` when `details` is empty, else `Violated` with
/// them as the witnesses.
pub fn verdict(method: impl Into<String>, details: Vec<String>) -> Verdict {
    if details.is_empty() {
        Verdict::Proved {
            method: method.into(),
        }
    } else {
        Verdict::Violated { details }
    }
}

/// One named check applied to one subject under one configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Invariant identifier (`bijection`, `adjacency-step`, …).
    pub invariant: String,
    /// What was checked (mapping name, drive, …).
    pub subject: String,
    /// Sweep configuration (profile and grid).
    pub config: String,
    /// The result.
    pub verdict: Verdict,
}

/// A full static-analysis report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// All check outcomes, in execution order.
    pub outcomes: Vec<CheckOutcome>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Record one outcome.
    pub fn push(
        &mut self,
        invariant: impl Into<String>,
        subject: impl Into<String>,
        config: impl Into<String>,
        verdict: Verdict,
    ) {
        self.outcomes.push(CheckOutcome {
            invariant: invariant.into(),
            subject: subject.into(),
            config: config.into(),
            verdict,
        });
    }

    /// Append all outcomes of another report.
    pub fn merge(&mut self, other: Report) {
        self.outcomes.extend(other.outcomes);
    }

    /// Outcomes that are violations.
    pub fn violations(&self) -> Vec<&CheckOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_violation())
            .collect()
    }

    /// Whether every check passed (or was skipped).
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Count of `(proved, violated, skipped)` outcomes.
    pub fn tallies(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for o in &self.outcomes {
            match o.verdict {
                Verdict::Proved { .. } => t.0 += 1,
                Verdict::Violated { .. } => t.1 += 1,
                Verdict::Skipped { .. } => t.2 += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_and_cleanliness() {
        let mut r = Report::new();
        r.push("a", "x", "cfg", Verdict::Proved { method: "m".into() });
        r.push("b", "y", "cfg", Verdict::Skipped { reason: "n/a".into() });
        assert!(r.is_clean());
        assert_eq!(r.tallies(), (1, 0, 1));
        r.push(
            "c",
            "z",
            "cfg",
            Verdict::Violated {
                details: vec!["boom".into()],
            },
        );
        assert!(!r.is_clean());
        assert_eq!(r.violations().len(), 1);
    }
}
