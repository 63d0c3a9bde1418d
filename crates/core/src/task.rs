//! The aperiodic divisible task model (§3 of the paper).
//!
//! A task `T_i = (A_i, σ_i, D_i)` is a single invocation: arrival time,
//! total data size, relative deadline. The load is *arbitrarily divisible*:
//! it can be split into independent fractions of any size with no
//! inter-subtask communication.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Stable task identifier, assigned in arrival order by the workload source.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TaskId(pub u64);

/// An arbitrarily divisible real-time task.
///
/// A `Task` is checked wherever one comes into being: [`Task::new`] panics
/// on a size or deadline that is not finite and positive (a programming
/// error), and deserialization — the edge wire, the ops channel, a journal —
/// refuses one as a decode error, so the planner never sees a task its
/// arithmetic is undefined for.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct Task {
    /// Identifier, unique within one simulation / scheduler instance.
    pub id: TaskId,
    /// `A`: arrival time.
    pub arrival: SimTime,
    /// `σ`: total data size (workload units), strictly positive.
    pub data_size: f64,
    /// `D`: relative deadline (time units), strictly positive.
    pub rel_deadline: f64,
    /// For the User-Split strategy only: the node count `n ∈ [N_min, N]` the
    /// user requested for this task, drawn once at task-creation time
    /// (§4.1.2). `None` means the user could not pick a feasible count
    /// (`N_min > N` or `D ≤ σ·Cms`) — a User-Split scheduler rejects such a
    /// task outright. DLT-based strategies ignore this field.
    pub user_nodes: Option<usize>,
}

impl Task {
    /// Creates a task with no user-split annotation.
    pub fn new(id: u64, arrival: impl Into<SimTime>, data_size: f64, rel_deadline: f64) -> Self {
        let t = Task {
            id: TaskId(id),
            arrival: arrival.into(),
            data_size,
            rel_deadline,
            user_nodes: None,
        };
        if let Err(problem) = t.check() {
            panic!("{problem}");
        }
        t
    }

    /// Attaches a user-requested node count (User-Split workloads).
    pub fn with_user_nodes(mut self, n: Option<usize>) -> Self {
        self.user_nodes = n;
        self
    }

    /// `A + D`: the absolute deadline.
    #[inline]
    pub fn absolute_deadline(&self) -> SimTime {
        self.arrival + SimTime::new(self.rel_deadline)
    }

    /// What the task model (§3) requires of a task's numbers.
    fn check(&self) -> Result<(), String> {
        if !self.arrival.as_f64().is_finite() {
            return Err(format!("task arrival must be finite, got {}", self.arrival));
        }
        if !(self.data_size.is_finite() && self.data_size > 0.0) {
            return Err(format!(
                "task data size must be finite and > 0, got {}",
                self.data_size
            ));
        }
        if !(self.rel_deadline.is_finite() && self.rel_deadline > 0.0) {
            return Err(format!(
                "task relative deadline must be finite and > 0, got {}",
                self.rel_deadline
            ));
        }
        if self.user_nodes == Some(0) {
            return Err("task user-split node count must be >= 1, got 0".to_string());
        }
        Ok(())
    }
}

// Hand-written for a reason a derive cannot state: the five fields read as
// the derive would read them, then the whole task goes through `check()`.
impl Deserialize for Task {
    fn read_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::Error> {
        use serde::de::required;
        let (mut id, mut arrival, mut data_size, mut rel_deadline, mut user_nodes) =
            (None, None, None, None, None);
        p.object(|p, key| match key {
            "id" => p.field(&mut id, key),
            "arrival" => p.field(&mut arrival, key),
            "data_size" => p.field(&mut data_size, key),
            "rel_deadline" => p.field(&mut rel_deadline, key),
            "user_nodes" => p.field(&mut user_nodes, key),
            _ => p.skip(),
        })?;
        let task = Task {
            id: required(id, "id")?,
            arrival: required(arrival, "arrival")?,
            data_size: required(data_size, "data_size")?,
            rel_deadline: required(rel_deadline, "rel_deadline")?,
            user_nodes: required(user_nodes, "user_nodes")?,
        };
        task.check().map_err(serde::Error::msg)?;
        Ok(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_deadline_is_arrival_plus_relative() {
        let t = Task::new(7, 100.0, 200.0, 50.0);
        assert_eq!(t.absolute_deadline(), SimTime::new(150.0));
        assert_eq!(t.id, TaskId(7));
        assert_eq!(t.user_nodes, None);
    }

    #[test]
    fn user_nodes_annotation_round_trips() {
        let t = Task::new(1, 0.0, 10.0, 10.0).with_user_nodes(Some(4));
        assert_eq!(t.user_nodes, Some(4));
        let t = t.with_user_nodes(None);
        assert_eq!(t.user_nodes, None);
    }

    #[test]
    #[should_panic(expected = "data size")]
    fn zero_size_is_rejected() {
        let _ = Task::new(1, 0.0, 0.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn negative_deadline_is_rejected() {
        let _ = Task::new(1, 0.0, 10.0, -1.0);
    }

    #[test]
    fn deserialization_refuses_what_the_constructor_refuses() {
        let good = Task::new(7, 2.5, 100.0, 5_000.0).with_user_nodes(Some(3));
        let wire = serde_json::to_string(&good).unwrap();
        assert_eq!(serde_json::from_str::<Task>(&wire).unwrap(), good);
        let plain = Task::new(8, 0.0, 1.0, 1.0);
        let back: Task = serde_json::from_str(&serde_json::to_string(&plain).unwrap()).unwrap();
        assert_eq!(back, plain);
        // The same frame with one number a hostile peer would send. A
        // literal beyond f64 never gets as far as `check`: the JSON parser
        // refuses it by name.
        for (field, hostile, names) in [
            ("\"data_size\":100.0", "\"data_size\":0", "data size"),
            ("\"data_size\":100.0", "\"data_size\":-3.5", "data size"),
            ("\"data_size\":100.0", "\"data_size\":1e999", "`1e999`"),
            ("\"rel_deadline\":5000.0", "\"rel_deadline\":0", "deadline"),
            ("\"rel_deadline\":5000.0", "\"rel_deadline\":-1", "deadline"),
            (
                "\"rel_deadline\":5000.0",
                "\"rel_deadline\":1e999",
                "`1e999`",
            ),
            ("\"arrival\":2.5", "\"arrival\":-1e999", "`-1e999`"),
            ("\"user_nodes\":3", "\"user_nodes\":0", "node count"),
            ("\"user_nodes\":3", "\"user_nodes\":-1", "usize"),
        ] {
            assert!(wire.contains(field), "{field} not in {wire}");
            let err = serde_json::from_str::<Task>(&wire.replace(field, hostile))
                .expect_err(hostile)
                .to_string();
            assert!(err.contains(names), "{hostile}: {err}");
        }
    }
}
