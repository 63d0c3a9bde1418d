//! Algorithm identities: a scheduling policy × a partitioning strategy,
//! named as in the paper (§4.2: EDF-DLT, FIFO-DLT, EDF-UserSplit,
//! FIFO-UserSplit; §5: EDF-OPR-MN, FIFO-OPR-MN, EDF-OPR-AN, FIFO-OPR-AN).

use core::fmt;
use core::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::policy::Policy;
use crate::strategy::StrategyKind;

/// One of the paper's eight named algorithms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct AlgorithmKind {
    /// Execution-order policy (first component of the paper's nomenclature).
    pub policy: Policy,
    /// Partitioning/assignment rule (second component).
    pub strategy: StrategyKind,
}

impl AlgorithmKind {
    /// EDF-DLT — the paper's headline algorithm.
    pub const EDF_DLT: Self = Self {
        policy: Policy::Edf,
        strategy: StrategyKind::DltIit,
    };
    /// FIFO-DLT.
    pub const FIFO_DLT: Self = Self {
        policy: Policy::Fifo,
        strategy: StrategyKind::DltIit,
    };
    /// EDF-OPR-MN — the best baseline of \[22\] (no IIT use).
    pub const EDF_OPR_MN: Self = Self {
        policy: Policy::Edf,
        strategy: StrategyKind::OprMn,
    };
    /// FIFO-OPR-MN.
    pub const FIFO_OPR_MN: Self = Self {
        policy: Policy::Fifo,
        strategy: StrategyKind::OprMn,
    };
    /// EDF-OPR-AN (all nodes per task).
    pub const EDF_OPR_AN: Self = Self {
        policy: Policy::Edf,
        strategy: StrategyKind::OprAn,
    };
    /// FIFO-OPR-AN.
    pub const FIFO_OPR_AN: Self = Self {
        policy: Policy::Fifo,
        strategy: StrategyKind::OprAn,
    };
    /// EDF-UserSplit — manual equal splitting under EDF.
    pub const EDF_USER_SPLIT: Self = Self {
        policy: Policy::Edf,
        strategy: StrategyKind::UserSplit,
    };
    /// FIFO-UserSplit.
    pub const FIFO_USER_SPLIT: Self = Self {
        policy: Policy::Fifo,
        strategy: StrategyKind::UserSplit,
    };

    /// All eight algorithms, EDF variants first.
    pub const ALL: [Self; 8] = [
        Self::EDF_DLT,
        Self::EDF_OPR_MN,
        Self::EDF_OPR_AN,
        Self::EDF_USER_SPLIT,
        Self::FIFO_DLT,
        Self::FIFO_OPR_MN,
        Self::FIFO_OPR_AN,
        Self::FIFO_USER_SPLIT,
    ];

    /// The paper's name for this algorithm, e.g. `EDF-DLT`.
    pub fn paper_name(&self) -> String {
        format!(
            "{}-{}",
            self.policy.paper_name(),
            self.strategy.paper_name()
        )
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.paper_name())
    }
}

/// Error for unrecognized algorithm names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAlgorithmError(pub String);

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown algorithm '{}'; expected one of: ", self.0)?;
        for (i, a) in AlgorithmKind::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(&a.paper_name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for AlgorithmKind {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        AlgorithmKind::ALL
            .into_iter()
            .find(|a| a.paper_name().to_ascii_lowercase() == norm)
            .ok_or_else(|| ParseAlgorithmError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for a in AlgorithmKind::ALL {
            let name = a.paper_name();
            let parsed: AlgorithmKind = name.parse().unwrap();
            assert_eq!(parsed, a, "round-trip failed for {name}");
            // Case-insensitive.
            let parsed: AlgorithmKind = name.to_lowercase().parse().unwrap();
            assert_eq!(parsed, a);
        }
    }

    #[test]
    fn expected_paper_names() {
        assert_eq!(AlgorithmKind::EDF_DLT.paper_name(), "EDF-DLT");
        assert_eq!(AlgorithmKind::FIFO_OPR_MN.paper_name(), "FIFO-OPR-MN");
        assert_eq!(AlgorithmKind::EDF_USER_SPLIT.paper_name(), "EDF-UserSplit");
        assert_eq!(AlgorithmKind::FIFO_OPR_AN.paper_name(), "FIFO-OPR-AN");
    }

    #[test]
    fn unknown_name_errors_with_suggestions() {
        let err = "EDF-MAGIC".parse::<AlgorithmKind>().unwrap_err();
        assert!(err.to_string().contains("EDF-DLT"));
    }
}
