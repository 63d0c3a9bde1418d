//! Small-scope exhaustive books: every book on 2–3 nodes with up to three
//! waiting tasks, drawn from a small integer grid, run through both engines
//! op by op.
//!
//! Random books rarely keep every node busy across instants, rarely tie,
//! and rarely have a later queue position fall due first — the shapes a
//! reuse gate's side condition or the start search's owner check exists
//! for. On a grid this small they are common: releases, arrivals, sizes and
//! deadlines take a handful of integer values, so equal release times,
//! simultaneous due instants and clusters busy past every arrival occur in
//! most books, and one deadline kind sits exactly at the completion of the
//! plan the book would give the task.
//!
//! A book is a cluster size, one committed release per node and up to
//! `DEPTH` tasks submitted in order. Both engines — the oracle
//! ([`ReferenceController`]) and the production [`AdmissionController`] —
//! are built alike and given every op: the submits, the start search for
//! every task kind, a dispatch at the first due instant into a kept buffer
//! whose plans go back to the production engine (so the insertion after it
//! refills recycled buffers), an early node release and a replan. After
//! every op the answers are compared (decisions, dispatched lists and
//! search instants by bits) and the books (`agree`: every field of every
//! queued plan and the committed releases), and the serialized states byte
//! for byte; after every pass that installed a queue, every queued plan is
//! certified ([`certify`]) on the vector it was planned on.

use rtdls_core::prelude::*;
use rtdls_core::strategy::NodeCountPolicy;

use crate::independent::certify;
use crate::oracle::{agree, pair, ReferenceController};

/// Committed releases a node may start a book with.
const RELEASES: [f64; 3] = [0.0, 2.0, 5.0];
/// Arrival offsets of a task kind, from the instant its op runs at.
const ARRIVALS: [f64; 2] = [0.0, 2.0];
/// Data sizes.
const SIGMAS: [f64; 2] = [1.0, 3.0];
/// Relative deadlines; `None` is the exact completion of the plan the
/// book would give the task with all the time in the world.
const DEADLINES: [Option<f64>; 2] = [None, Some(8.0)];
/// Task kinds: every arrival × size × deadline.
const KINDS: usize = ARRIVALS.len() * SIGMAS.len() * DEADLINES.len();

/// Cluster sizes.
const NODES: [usize; 2] = [2, 3];
/// Policy × strategy, with the node-count reading each runs under: DLT with
/// both readings, FIFO, and an OPR strategy.
const CONFIGS: [(AlgorithmKind, NodeCountPolicy); 4] = [
    (AlgorithmKind::EDF_DLT, NodeCountPolicy::FixedPoint),
    (AlgorithmKind::EDF_DLT, NodeCountPolicy::OneShot),
    (AlgorithmKind::FIFO_DLT, NodeCountPolicy::FixedPoint),
    (AlgorithmKind::EDF_OPR_MN, NodeCountPolicy::FixedPoint),
];
/// Most tasks a book is built with.
const DEPTH: usize = 3;

/// What an enumeration ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Books run.
    pub books: u64,
    /// Ops given to both engines and compared.
    pub ops: u64,
    /// Plans certified.
    pub certified: u64,
}

/// Runs every `stride`-th book (1: all of them; CI runs the full bound in
/// release, the tier-1 tests one book in 11); the first disagreement or
/// failed certificate is the error, with the book and the op that found it.
pub fn exhaust(stride: usize) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut index = 0u64;
    for nodes in NODES {
        let params = ClusterParams::new(nodes, 1.0, 3.0).expect("valid grid cluster");
        for (algorithm, node_count) in CONFIGS {
            let cfg = PlanConfig {
                node_count,
                ..PlanConfig::default()
            };
            for releases in grid(nodes, RELEASES.len()) {
                let releases: Vec<SimTime> = releases
                    .iter()
                    .map(|&r| SimTime::new(RELEASES[r]))
                    .collect();
                for depth in 0..=DEPTH {
                    for kinds in grid(depth, KINDS) {
                        index += 1;
                        if !index.is_multiple_of(stride as u64) {
                            continue;
                        }
                        let mut book = Book::new(params, algorithm, cfg, &releases);
                        book.run(&kinds).map_err(|e| {
                            format!("{nodes} nodes, {algorithm:?} {node_count:?}, releases {releases:?}, kinds {kinds:?}: {e}")
                        })?;
                        tally.books += 1;
                        tally.ops += book.ops;
                        tally.certified += book.certified;
                    }
                }
            }
        }
    }
    Ok(tally)
}

/// Every vector of `len` indices below `base`, in lexicographic order.
fn grid(len: usize, base: usize) -> impl Iterator<Item = Vec<usize>> {
    let total = base.pow(len as u32);
    (0..total).map(move |mut i| {
        let mut v = vec![0; len];
        for slot in v.iter_mut().rev() {
            *slot = i % base;
            i /= base;
        }
        v
    })
}

/// Both engines over one book, the clock, and the production engine's kept
/// dispatch buffer.
struct Book {
    oracle: ReferenceController,
    engine: AdmissionController,
    now: f64,
    next_id: u64,
    due: Vec<(Task, TaskPlan)>,
    ops: u64,
    certified: u64,
}

impl Book {
    fn new(
        params: ClusterParams,
        algorithm: AlgorithmKind,
        cfg: PlanConfig,
        releases: &[SimTime],
    ) -> Self {
        let (oracle, engine) = pair(params, algorithm, cfg, releases);
        Book {
            oracle,
            engine,
            now: 0.0,
            next_id: 0,
            due: Vec::new(),
            ops: 0,
            certified: 0,
        }
    }

    /// The book's submits, then every other op kind on it.
    fn run(&mut self, kinds: &[usize]) -> Result<(), String> {
        for &kind in kinds {
            self.submit(kind)?;
        }
        self.search_every_kind()?;
        // The same book restored with its first two waiting tasks' plans
        // traded: an image whose later position falls due first.
        if self.engine.queue_len() >= 2 {
            self.thaw_traded()?;
            self.search_every_kind()?;
        }
        // A dispatch, and an insertion into the buffers it freed.
        if let Some(t) = self.oracle.next_dispatch_due() {
            self.now = self.now.max(t.as_f64());
            self.take_due()?;
        }
        self.submit(kinds.first().map_or(0, |k| (k + 1) % KINDS))?;
        // An early release of a busy node, and the replan it allows.
        let node = kinds.len() % self.engine.params().num_nodes;
        let now = SimTime::new(self.now);
        if self.engine.committed_releases()[node] > now {
            self.oracle.set_node_release(node, now);
            self.engine.set_node_release(node, now);
            self.check("set_node_release")?;
        }
        let (a, b) = (self.oracle.replan(now), self.engine.replan(now));
        if a != b {
            return Err(format!("replan: {a:?} vs {b:?}"));
        }
        self.check("replan")?;
        if b.is_ok() {
            self.certify_queue()?;
        }
        let task = self.task(kinds.len() % KINDS);
        self.search(&task)
    }

    fn search_every_kind(&mut self) -> Result<(), String> {
        for kind in 0..KINDS {
            let task = self.task(kind);
            self.search(&task)?;
        }
        Ok(())
    }

    /// Rebuilds both engines from the production engine's image with the
    /// plans of waiting positions 0 and 1 traded (each relabelled to its new
    /// task) — a legal image, whatever order its plans fall due in.
    fn thaw_traded(&mut self) -> Result<(), String> {
        let mut state = self.engine.state();
        let (first, second) = state.queue.split_at_mut(1);
        std::mem::swap(&mut first[0].1, &mut second[0].1);
        for (task, plan) in &mut state.queue[..2] {
            plan.task = task.id;
        }
        self.oracle = ReferenceController::from_state(state.clone()).map_err(|e| e.to_string())?;
        self.engine = AdmissionController::from_state(state).map_err(|e| e.to_string())?;
        self.check("from_state")
    }

    /// A task of `kind` arriving at the book's clock plus the kind's offset.
    fn task(&mut self, kind: usize) -> Task {
        let deadline = DEADLINES[kind % DEADLINES.len()];
        let sigma = SIGMAS[kind / DEADLINES.len() % SIGMAS.len()];
        let arrival = self.now + ARRIVALS[kind / (DEADLINES.len() * SIGMAS.len())];
        self.next_id += 1;
        let id = self.next_id;
        let rel = deadline.unwrap_or_else(|| {
            // The exact completion of the plan an unhurried task would get.
            let unhurried = Task::new(id, arrival, sigma, 1e6);
            match self.oracle.probe_plan(&unhurried, SimTime::new(arrival)) {
                Ok(plan) => plan.est_completion.as_f64() - arrival,
                Err(_) => 1.0,
            }
        });
        Task::new(id, arrival, sigma, rel)
    }

    fn submit(&mut self, kind: usize) -> Result<(), String> {
        let task = self.task(kind);
        let at = task.arrival;
        let (a, b) = (self.oracle.submit(task, at), self.engine.submit(task, at));
        if a != b {
            return Err(format!("submit {task:?}: {a:?} vs {b:?}"));
        }
        self.check("submit")?;
        if b.is_accepted() {
            self.certify_queue()?;
        }
        Ok(())
    }

    fn search(&mut self, task: &Task) -> Result<(), String> {
        let at = task.arrival;
        let a = self.oracle.earliest_start_after(task, at);
        let b = self.engine.earliest_start_after(task, at);
        let bits = |t: Option<SimTime>| t.map(|t| t.as_f64().to_bits());
        if bits(a) != bits(b) {
            return Err(format!("earliest_start_after {task:?}: {a:?} vs {b:?}"));
        }
        self.ops += 1;
        Ok(())
    }

    /// The oracle's dispatch into a fresh vector, the production engine's
    /// into the kept buffer, whose spent plans it takes back first.
    fn take_due(&mut self) -> Result<(), String> {
        let now = SimTime::new(self.now);
        for (_, plan) in self.due.drain(..) {
            self.engine.recycle(plan);
        }
        let expected = self.oracle.take_due(now);
        self.engine.take_due_into(now, &mut self.due);
        if expected != self.due {
            return Err(format!("take_due: {expected:?} vs {:?}", self.due));
        }
        self.check("take_due")
    }

    /// The books agree, and their serialized states are the same bytes.
    fn check(&mut self, op: &str) -> Result<(), String> {
        self.ops += 1;
        agree(&self.oracle, &self.engine, SimTime::new(self.now))
            .map_err(|e| format!("{op}: {e}"))?;
        let (a, b) = (self.oracle.state(), self.engine.state());
        let (a, b) = (serde_json::to_string(&a), serde_json::to_string(&b));
        if a.is_err() || a != b {
            return Err(format!("{op}: serialized states differ"));
        }
        Ok(())
    }

    /// Every queued plan, on the vector a literal walk from the committed
    /// releases builds: what the pass that just installed the queue planned
    /// each on.
    fn certify_queue(&mut self) -> Result<(), String> {
        let params = *self.engine.params();
        let mut walk = self.engine.committed_releases().to_vec();
        for (task, plan) in self.engine.queue() {
            certify(&params, task, &walk, plan)
                .map_err(|v| format!("certificate, task {:?}: {v}\n plan: {plan:?}", task.id))?;
            for (node, &release) in plan.nodes.iter().zip(&plan.node_release_estimates) {
                walk[node.index()] = release;
            }
            self.certified += 1;
        }
        Ok(())
    }
}
