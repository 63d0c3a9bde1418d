//! Error types for model construction and planning.

use core::fmt;

/// Errors raised when constructing model objects from invalid inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// A parameter failed validation; the message names the constraint.
    InvalidParams(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Why a task could not be planned to meet its deadline.
///
/// Returned by strategies and by the schedulability test; in the scheduler
/// this translates into *rejecting* the newly arrived task (the paper's
/// rejection = renegotiation with the client, §4.1.1 footnote).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Infeasible {
    /// `A + D − r ≤ 0`: the deadline passes before any node could start.
    DeadlineBeforeStart,
    /// `γ ≤ 0`: not enough time remains even to transmit the input data.
    NoTimeForTransmission,
    /// Every node count `n ≤ N` fails the `ñ_min` bound.
    NotEnoughNodes,
    /// UserSplit: the user cannot request enough nodes (`N_min > N`) or the
    /// relative deadline cannot cover the transmission time (`D ≤ σ·Cms`).
    UserRequestInfeasible,
    /// The planned completion estimate overshoots the absolute deadline.
    CompletionAfterDeadline,
}

impl Infeasible {
    /// Every cause.
    pub const ALL: [Infeasible; 5] = [
        Infeasible::DeadlineBeforeStart,
        Infeasible::NoTimeForTransmission,
        Infeasible::NotEnoughNodes,
        Infeasible::UserRequestInfeasible,
        Infeasible::CompletionAfterDeadline,
    ];

    /// The sentence the cause displays as — and journals and travels as.
    pub fn as_str(self) -> &'static str {
        match self {
            Infeasible::DeadlineBeforeStart => "deadline passes before any node is available",
            Infeasible::NoTimeForTransmission => "not enough time to transmit the input data",
            Infeasible::NotEnoughNodes => "no node count within the cluster meets the deadline",
            Infeasible::UserRequestInfeasible => "user-split node request cannot meet the deadline",
            Infeasible::CompletionAfterDeadline => "estimated completion exceeds the deadline",
        }
    }
}

impl fmt::Display for Infeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for Infeasible {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ModelError::InvalidParams("x").to_string().contains("x"));
        for e in Infeasible::ALL {
            assert!(!e.to_string().is_empty());
        }
    }
}
