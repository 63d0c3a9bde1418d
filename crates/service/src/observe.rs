//! Decision observation: the pull-based subscription channel the network
//! edge (and any other out-of-process consumer) uses to learn the fate of
//! *parked* tasks without polling the gateway's books.
//!
//! The `Verdict` a gateway returns at submission time is final for
//! `Accepted` / `Rejected` / `Throttled`, but `Reserved` and `Deferred`
//! are promises that resolve later — at a reservation's activation sweep,
//! at a defer re-test, or at end-of-stream flush. The simulation engine
//! learns those resolutions from the [`Turn`] each `drive` returns; a
//! network edge needs richer records (tickets, activation outcomes) to
//! push updates to still-connected clients.
//!
//! [`Turn`]: rtdls_sim::serve::Turn
//!
//! [`DecisionUpdate`] is that record. The [`ServiceBook`] appends one for
//! every parked-task resolution and every reservation-activation attempt —
//! but only while observation is enabled
//! ([`ServiceBook::observe_decisions`]), so gateways driven purely by the
//! simulator pay nothing. The channel is process-local observer state like
//! the latency histograms: it is *not* part of the durable snapshot, and a
//! journal replay regenerates nothing into it (observation defaults to
//! off on a restored gateway; the edge re-enables it after recovery).
//!
//! [`ServiceBook`]: crate::book::ServiceBook
//! [`ServiceBook::observe_decisions`]: crate::book::ServiceBook::observe_decisions

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{Infeasible, SimTime};

/// One observable decision event for a previously parked task.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DecisionUpdate {
    /// A parked task (defer ticket, or a reservation that missed its
    /// promise and fell back) reached its final verdict.
    Resolved {
        /// The task id.
        task: u64,
        /// The defer/reservation ticket the task was parked under, when it
        /// resolved out of a book (`None` for a terminal reject straight
        /// from an activation miss).
        ticket: Option<u64>,
        /// `true` when the task was admitted with its full deadline
        /// guarantee; `false` when it was rejected.
        admitted: bool,
        /// The rejection cause (`None` exactly when `admitted`).
        cause: Option<Infeasible>,
    },
    /// A reservation's activation sweep ran its admission test.
    Activated {
        /// The reservation ticket.
        ticket: u64,
        /// The task id.
        task: u64,
        /// The activation instant.
        at: SimTime,
        /// `true`: the promise held and the task is admitted (terminal).
        /// `false`: the promise was missed; the task fell back to the
        /// defer-or-reject protocol and a [`DecisionUpdate::Resolved`]
        /// follows (immediately for a terminal reject, later for a defer).
        admitted: bool,
    },
}

impl DecisionUpdate {
    /// The task id the update concerns.
    pub fn task(&self) -> u64 {
        match self {
            DecisionUpdate::Resolved { task, .. } | DecisionUpdate::Activated { task, .. } => *task,
        }
    }

    /// `true` when no further update for this task will follow.
    pub fn is_terminal(&self) -> bool {
        match self {
            DecisionUpdate::Resolved { .. } => true,
            DecisionUpdate::Activated { admitted, .. } => *admitted,
        }
    }

    /// The same update retagged to a different task id. The network edge
    /// namespaces task ids per connection (server-minted ids inside the
    /// gateway, the client's own id on the wire), so every update crossing
    /// back out of a reactor is rewritten to the id the submitting client
    /// knows.
    pub fn retagged(self, task: u64) -> Self {
        match self {
            DecisionUpdate::Resolved {
                ticket,
                admitted,
                cause,
                ..
            } => DecisionUpdate::Resolved {
                task,
                ticket,
                admitted,
                cause,
            },
            DecisionUpdate::Activated {
                ticket,
                at,
                admitted,
                ..
            } => DecisionUpdate::Activated {
                ticket,
                task,
                at,
                admitted,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminality_follows_the_protocol() {
        let resolved = DecisionUpdate::Resolved {
            task: 1,
            ticket: Some(3),
            admitted: false,
            cause: Some(Infeasible::CompletionAfterDeadline),
        };
        assert!(resolved.is_terminal());
        assert_eq!(resolved.task(), 1);
        let hit = DecisionUpdate::Activated {
            ticket: 0,
            task: 2,
            at: SimTime::ZERO,
            admitted: true,
        };
        assert!(hit.is_terminal());
        let miss = DecisionUpdate::Activated {
            ticket: 0,
            task: 2,
            at: SimTime::ZERO,
            admitted: false,
        };
        assert!(!miss.is_terminal(), "a miss resolves later");
    }

    #[test]
    fn updates_round_trip_through_serde() {
        let updates = [
            DecisionUpdate::Resolved {
                task: 9,
                ticket: None,
                admitted: true,
                cause: None,
            },
            DecisionUpdate::Activated {
                ticket: 4,
                task: 9,
                at: SimTime::new(12.5),
                admitted: false,
            },
        ];
        for u in updates {
            let json = serde_json::to_string(&u).unwrap();
            let back: DecisionUpdate = serde_json::from_str(&json).unwrap();
            assert_eq!(back, u);
        }
    }
}
