//! The deviation catalog — every way a selfish processor can deviate from
//! DLS-LBL, as enumerated by Lemma 5.1, plus the pure bid-misreports of the
//! strategyproofness analysis.
//!
//! | Variant | Lemma 5.1 case | Phase | Detected by |
//! |---|---|---|---|
//! | `ContradictoryBid` | (i) | I | recipient compares authentic messages |
//! | `WrongEquivalent` | (ii) | I→II | successor's eq. 2.4 identity check |
//! | `WrongDistribution` | (ii) | II | successor's eq. 2.7 balance check |
//! | `ShedLoad` | (iii) | III | successor's Λ-proven overload grievance |
//! | `Overcharge` | (iv) | IV | probability-`q` proof audit |
//! | `FalseAccusation` | (v) | any | root exculpates the accused |
//! | `Underbid`/`Overbid`/`SlackExecution` | Lemma 5.3 | I/III | not "caught" — priced by the payment rule |

/// A strategic processor's chosen deviation for one protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deviation {
    /// Follow the protocol faithfully.
    None,
    /// Declare a rate `factor × t` (`factor < 1`): attracts extra load.
    Underbid {
        /// Multiplier on the true rate (< 1).
        factor: f64,
    },
    /// Declare a rate `factor × t` (`factor > 1`): sheds load at bid time.
    Overbid {
        /// Multiplier on the true rate (> 1).
        factor: f64,
    },
    /// Bid truthfully but compute at `factor × t` (`factor > 1`).
    SlackExecution {
        /// Multiplier on the true rate (> 1).
        factor: f64,
    },
    /// Phase I case (i): send two different signed `w̄` values.
    ContradictoryBid {
        /// Multiplier applied to the second message's value.
        second_factor: f64,
    },
    /// Phase I/II case (ii): report `factor × w̄_i` as the equivalent time.
    WrongEquivalent {
        /// Multiplier on the honest equivalent (≠ 1).
        factor: f64,
    },
    /// Phase II case (ii): miscompute the forwarded load `D_{i+1}` by
    /// `factor`.
    WrongDistribution {
        /// Multiplier on the honest `D_{i+1}` (≠ 1).
        factor: f64,
    },
    /// Phase III case (iii): retain only `keep_fraction` of the prescribed
    /// local share, shedding the rest onto the successor.
    ShedLoad {
        /// Fraction of the prescribed local retention actually kept
        /// (`< 1`).
        keep_fraction: f64,
    },
    /// Phase IV case (iv): inflate the bill by `amount`.
    Overcharge {
        /// Amount added to the honest bill.
        amount: f64,
    },
    /// Case (v): accuse the predecessor without evidence.
    FalseAccusation,
}

impl Deviation {
    /// True for conduct the *protocol* must catch and fine (Lemma 5.1
    /// cases); false for pure bid/speed strategies that the payment rule
    /// prices instead.
    pub fn is_finable(&self) -> bool {
        matches!(
            self,
            Deviation::ContradictoryBid { .. }
                | Deviation::WrongEquivalent { .. }
                | Deviation::WrongDistribution { .. }
                | Deviation::ShedLoad { .. }
                | Deviation::Overcharge { .. }
                | Deviation::FalseAccusation
        )
    }

    /// True if this deviation can drive a run of an agent with true rate
    /// `true_rate`: every parameter is finite, and every rate it makes is
    /// finite and positive. Those are the declared or metered rate
    /// `factor × t` of a bid or speed strategy, and the reported
    /// equivalent of `WrongEquivalent`, at most `factor × t` because an
    /// equivalent never exceeds its node's own rate.
    pub(crate) fn fits(&self, true_rate: f64) -> bool {
        match *self {
            Deviation::Underbid { factor }
            | Deviation::Overbid { factor }
            | Deviation::SlackExecution { factor }
            | Deviation::WrongEquivalent { factor } => {
                let rate = factor * true_rate;
                rate.is_finite() && rate > 0.0
            }
            Deviation::ContradictoryBid { second_factor: x }
            | Deviation::WrongDistribution { factor: x }
            | Deviation::ShedLoad { keep_fraction: x }
            | Deviation::Overcharge { amount: x } => x.is_finite(),
            Deviation::None | Deviation::FalseAccusation => true,
        }
    }

    /// True if the node follows the protocol exactly.
    pub fn is_compliant(&self) -> bool {
        matches!(self, Deviation::None)
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Deviation::None => "none",
            Deviation::Underbid { .. } => "underbid",
            Deviation::Overbid { .. } => "overbid",
            Deviation::SlackExecution { .. } => "slack-execution",
            Deviation::ContradictoryBid { .. } => "contradictory-bid",
            Deviation::WrongEquivalent { .. } => "wrong-equivalent",
            Deviation::WrongDistribution { .. } => "wrong-distribution",
            Deviation::ShedLoad { .. } => "shed-load",
            Deviation::Overcharge { .. } => "overcharge",
            Deviation::FalseAccusation => "false-accusation",
        }
    }

    /// The canonical catalog instantiated with representative parameters —
    /// one entry per Lemma 5.1 case plus the bid strategies (used by E6).
    pub fn catalog() -> Vec<Deviation> {
        vec![
            Deviation::Underbid { factor: 0.5 },
            Deviation::Overbid { factor: 2.0 },
            Deviation::SlackExecution { factor: 1.5 },
            Deviation::ContradictoryBid { second_factor: 0.7 },
            Deviation::WrongEquivalent { factor: 0.6 },
            Deviation::WrongDistribution { factor: 1.3 },
            Deviation::ShedLoad { keep_fraction: 0.5 },
            Deviation::Overcharge { amount: 0.5 },
            Deviation::FalseAccusation,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finable_classification() {
        assert!(!Deviation::None.is_finable());
        assert!(!Deviation::Underbid { factor: 0.5 }.is_finable());
        assert!(!Deviation::SlackExecution { factor: 2.0 }.is_finable());
        assert!(Deviation::ShedLoad { keep_fraction: 0.5 }.is_finable());
        assert!(Deviation::Overcharge { amount: 1.0 }.is_finable());
        assert!(Deviation::FalseAccusation.is_finable());
    }

    #[test]
    fn catalog_covers_all_lemma_cases() {
        let labels: Vec<&str> = Deviation::catalog().iter().map(|d| d.label()).collect();
        for expected in [
            "contradictory-bid",
            "wrong-equivalent",
            "wrong-distribution",
            "shed-load",
            "overcharge",
            "false-accusation",
        ] {
            assert!(labels.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn only_none_is_compliant() {
        assert!(Deviation::None.is_compliant());
        for d in Deviation::catalog() {
            assert!(!d.is_compliant());
        }
    }
}
