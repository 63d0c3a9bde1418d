//! The journal's event vocabulary.
//!
//! Events split into two classes:
//!
//! * **Inputs** ([`JournalEvent::is_input`] = `true`) — the commands the
//!   engine fed the gateway: submissions, node completions, dispatch/replan/
//!   re-test instants, finalization. The gateway is a deterministic state
//!   machine over these, so replaying the inputs after a snapshot rebuilds
//!   the exact pre-crash state (the replay-determinism property the journal
//!   proptests pin down).
//! * **Audit outputs** — the decisions the gateway produced (`Accepted`
//!   with its plan, `Deferred` with its ticket, `Rejected`, `Rescued`,
//!   recovery `Demoted`). Replay regenerates these from the inputs; they are
//!   journaled so an operator can reconstruct *what was promised to whom*
//!   without re-running anything — including the per-node progress state of
//!   partially dispatched loads (the accepted plan's chunk map).

use serde::{Deserialize, Serialize};

use rtdls_core::prelude::{Infeasible, SimTime, SubmitRequest, Task, TaskPlan};

/// One journal record (see the module docs for the input/audit split).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// Input: one bare-task submission at time `at`, under the default
    /// envelope (anonymous tenant, no reservation tolerance). Read-only:
    /// no writer emits it any more (submissions journal as
    /// [`RequestSubmitted`](JournalEvent::RequestSubmitted)), but WALs that
    /// hold it still replay.
    Submitted {
        /// The submitted task.
        task: Task,
        /// Submission instant.
        at: SimTime,
    },
    /// Input: one submission envelope (task + tenant + QoS class +
    /// reservation tolerance) at time `at`.
    RequestSubmitted {
        /// The full submission envelope.
        request: SubmitRequest,
        /// Submission instant.
        at: SimTime,
    },
    /// Input: reservations due at `at` were activated (the post-dispatch
    /// activation sweep ran). Replays through the same sweep.
    ActivationDue {
        /// The activation instant.
        at: SimTime,
    },
    /// Input: a burst decided through the retired batched path at time
    /// `at`. Read-only: no writer emits it any more, and WALs that hold it
    /// replay each member as a default-envelope submission, in the
    /// algorithm's policy order.
    BatchSubmitted {
        /// The burst, in submission order.
        tasks: Vec<Task>,
        /// Submission instant.
        at: SimTime,
    },
    /// Input: a node's committed release was overridden with an actual
    /// completion (the engine observed the node free up at `at`).
    Completed {
        /// Global node id.
        node: usize,
        /// The actual release instant.
        at: SimTime,
    },
    /// Input: waiting plans due at `at` were taken for dispatch.
    DispatchDue {
        /// The dispatch instant.
        at: SimTime,
    },
    /// Input: the waiting queue was replanned against current releases.
    Replanned {
        /// The replanning instant.
        at: SimTime,
    },
    /// Input: the defer queue was swept (re-tested) at `at`.
    Retested {
        /// The sweep instant.
        at: SimTime,
    },
    /// Input: the stream ended; still-parked tickets were flushed.
    Finalized {
        /// The finalization instant.
        at: SimTime,
    },
    /// Input: the engine collected (and thereby cleared) the pending defer
    /// resolutions. Clearing is a state change, so it replays like any
    /// other command.
    Drained,
    /// Audit: the task was admitted with this plan (per-chunk nodes, start
    /// times, and load fractions — the per-node progress state recovery
    /// needs for partially dispatched loads).
    Accepted {
        /// The admitted task's id.
        task: u64,
        /// The installed plan (shard-local node ids under a sharded
        /// gateway).
        plan: TaskPlan,
    },
    /// Audit: the task parked in the defer queue under this ticket.
    Deferred {
        /// The deferred task's id.
        task: u64,
        /// The issued ticket id.
        ticket: u64,
    },
    /// Audit: the task was rejected for good.
    Rejected {
        /// The rejected task's id.
        task: u64,
        /// The planning-level cause.
        cause: Infeasible,
    },
    /// Audit: a previously deferred task was admitted by a re-test.
    Rescued {
        /// The rescued task's id.
        task: u64,
    },
    /// Audit: recovery re-verification pushed a previously accepted task
    /// back out of the waiting queue (into the defer queue, or to a
    /// rejection when past hope).
    Demoted {
        /// The demoted task's id.
        task: u64,
        /// The recovery instant.
        at: SimTime,
    },
    /// Audit: the task was booked as a reservation — the gateway promised
    /// admission at `start_at`.
    Reserved {
        /// The reserved task's id.
        task: u64,
        /// The reservation ticket id.
        ticket: u64,
        /// The promised admission instant.
        start_at: SimTime,
    },
    /// Audit: a due reservation was activated — `admitted` records whether
    /// the re-run admission test honored the promise (a miss falls back to
    /// the defer-or-reject protocol, which journals its own outcome).
    ReservationActivated {
        /// The reservation's task id.
        task: u64,
        /// The reservation ticket id.
        ticket: u64,
        /// The activation instant.
        at: SimTime,
        /// Whether the activation admission test passed.
        admitted: bool,
    },
    /// Audit: the task was refused over its tenant's quota before any
    /// admission test ran.
    Throttled {
        /// The refused task's id.
        task: u64,
        /// The over-quota tenant.
        tenant: u32,
    },
    /// Audit: a deadline-SLO scope entered `Breached` — the versioned
    /// breach record, with the offending tenant's recent tasks and their
    /// flight-recorder timelines as forensic evidence. Replay regenerates
    /// the tracker state from the inputs; the *record* is journaled so the
    /// breach and its evidence survive a crash verbatim.
    SloBreach {
        /// The versioned breach record.
        breach: rtdls_service::prelude::SloBreach,
    },
}

impl JournalEvent {
    /// `true` for the replayed command events; `false` for audit outputs.
    pub fn is_input(&self) -> bool {
        matches!(
            self,
            JournalEvent::Submitted { .. }
                | JournalEvent::RequestSubmitted { .. }
                | JournalEvent::BatchSubmitted { .. }
                | JournalEvent::Completed { .. }
                | JournalEvent::DispatchDue { .. }
                | JournalEvent::Replanned { .. }
                | JournalEvent::Retested { .. }
                | JournalEvent::ActivationDue { .. }
                | JournalEvent::Finalized { .. }
                | JournalEvent::Drained
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdls_core::prelude::*;

    fn sample_plan() -> TaskPlan {
        let params = ClusterParams::paper_baseline();
        let avail = NodeAvailability::new(&[SimTime::ZERO; 16], SimTime::ZERO);
        plan_task(
            StrategyKind::DltIit,
            &Task::new(4, 0.0, 200.0, 30_000.0),
            &avail,
            &params,
            &PlanConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let events = vec![
            JournalEvent::Submitted {
                task: Task::new(1, 2.5, 100.0, 5_000.0).with_user_nodes(Some(3)),
                at: SimTime::new(2.5),
            },
            JournalEvent::BatchSubmitted {
                tasks: vec![Task::new(2, 0.0, 50.0, 1e6), Task::new(3, 0.0, 60.0, 2e6)],
                at: SimTime::ZERO,
            },
            JournalEvent::Completed {
                node: 7,
                at: SimTime::new(123.456),
            },
            JournalEvent::DispatchDue { at: SimTime::ZERO },
            JournalEvent::Replanned {
                at: SimTime::new(9.0),
            },
            JournalEvent::Retested {
                at: SimTime::new(10.0),
            },
            JournalEvent::Finalized {
                at: SimTime::new(11.0),
            },
            JournalEvent::Drained,
            JournalEvent::RequestSubmitted {
                request: rtdls_core::prelude::SubmitRequest::new(Task::new(8, 1.0, 120.0, 9e5))
                    .with_tenant(rtdls_core::prelude::TenantId(3))
                    .with_qos(rtdls_core::prelude::QosClass::Premium)
                    .with_max_delay(Some(777.0)),
                at: SimTime::new(1.0),
            },
            JournalEvent::ActivationDue {
                at: SimTime::new(13.0),
            },
            JournalEvent::Reserved {
                task: 8,
                ticket: 2,
                start_at: SimTime::new(42.0),
            },
            JournalEvent::ReservationActivated {
                task: 8,
                ticket: 2,
                at: SimTime::new(42.0),
                admitted: true,
            },
            JournalEvent::Throttled { task: 9, tenant: 3 },
            JournalEvent::SloBreach {
                breach: rtdls_service::prelude::SloBreach {
                    version: rtdls_service::prelude::SLO_BREACH_VERSION,
                    transition: rtdls_service::slo::SloTransition {
                        tenant: Some(3),
                        qos: None,
                        objective: rtdls_service::prelude::SloObjective::Acceptance,
                        from: rtdls_service::prelude::SloHealth::Burning,
                        to: rtdls_service::prelude::SloHealth::Breached,
                        at: SimTime::new(77.0),
                    },
                    row: rtdls_service::prelude::SloStatusRow {
                        tenant: Some(3),
                        qos: None,
                        objective: rtdls_service::prelude::SloObjective::Acceptance,
                        good: 10,
                        bad: 30,
                        short_burn: 15.0,
                        long_burn: 6.5,
                        state: rtdls_service::prelude::SloHealth::Breached,
                        breaches: 1,
                    },
                    recent_tasks: vec![4, 5, 6],
                    timelines: vec!["plan shard=0 task=4 Rejected".to_string()],
                },
            },
            JournalEvent::Accepted {
                task: 4,
                plan: sample_plan(),
            },
            JournalEvent::Deferred { task: 5, ticket: 0 },
            JournalEvent::Rejected {
                task: 6,
                cause: Infeasible::NoTimeForTransmission,
            },
            JournalEvent::Rescued { task: 5 },
            JournalEvent::Demoted {
                task: 4,
                at: SimTime::new(12.0),
            },
        ];
        for ev in events {
            let json = serde_json::to_string(&ev).unwrap();
            let back: JournalEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev, "{json}");
        }
    }

    #[test]
    fn input_classification_matches_the_replay_contract() {
        assert!(JournalEvent::DispatchDue { at: SimTime::ZERO }.is_input());
        assert!(JournalEvent::ActivationDue { at: SimTime::ZERO }.is_input());
        assert!(JournalEvent::RequestSubmitted {
            request: rtdls_core::prelude::SubmitRequest::new(Task::new(1, 0.0, 1.0, 1.0)),
            at: SimTime::ZERO,
        }
        .is_input());
        assert!(!JournalEvent::Rescued { task: 1 }.is_input());
        assert!(!JournalEvent::Reserved {
            task: 1,
            ticket: 0,
            start_at: SimTime::ZERO
        }
        .is_input());
        assert!(!JournalEvent::ReservationActivated {
            task: 1,
            ticket: 0,
            at: SimTime::ZERO,
            admitted: false
        }
        .is_input());
        assert!(!JournalEvent::Throttled { task: 1, tenant: 0 }.is_input());
        assert!(!JournalEvent::Accepted {
            task: 4,
            plan: sample_plan()
        }
        .is_input());
    }
}
