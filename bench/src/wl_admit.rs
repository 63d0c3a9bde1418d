//! `admit_deep`: admission against a deep waiting queue, by direct calls.
//!
//! One wide shard (64 nodes), long deadlines (DCRatio 40) and more offered
//! load than the cluster can take (SystemLoad 1.5), with reservations on
//! (`max_delay_factor` 4): the waiting queue sits tens of tasks deep and
//! every arrival is planned against all of them. Time is the stream's own:
//! each request is decided at its arrival stamp, then the book is driven to
//! that instant. Every block starts from a clone of the same pre-warmed
//! book, so depth is at steady state and the work is identical block to
//! block. `core` planning at depth dominates; `edge`, `journal` and `sim`
//! do nothing.

use std::time::Instant;

use rtdls::core::prelude::{SimTime, TenantMix};
use rtdls::edge::EdgeGateway;
use rtdls::service::prelude::ShardedGateway;

use crate::edge::Tally;
use crate::harness::{time_direct, Checks, Sample, SetupSplit, Workload};
use crate::inputs::{calibrate_load, serving_gateway, serving_requests, tenant_mix, Script};
use crate::stack::{run_gateway, run_gateway_observed, PassOpts};
use crate::stats::median;
use crate::trace::Recorder;

/// Requests that fill the book before the first block.
pub const PREWARM: usize = 600;
/// Decisions per block.
pub const OPS_PER_BLOCK: usize = 3_200;
/// Deadline-to-cost ratio of the stream: long deadlines, deep queue.
pub const DC_RATIO: f64 = 40.0;
/// Offered load: half again what the cluster can take.
pub const SYSTEM_LOAD: f64 = 1.5;
/// A decision (submit plus drive) slower than this misses its limit.
pub const LIMIT_NS: u64 = 5_000_000;

/// The mix of the deep workload: the shared tenants, reservations on.
pub fn deep_mix() -> TenantMix {
    tenant_mix().with_max_delay_factor(4.0)
}

pub struct AdmitWorkload {
    /// The stream prefix that fills the book (the ladder replays it to
    /// bring bare engines to the same state).
    pub prewarm: Script,
    /// The pre-warmed book every block clones.
    pub book: ShardedGateway,
    /// The block's script: the stream right after the pre-warm prefix.
    pub script: Script,
    first: Option<(Tally, u64)>,
    mismatched_blocks: u64,
    depth_p50: u64,
}

impl AdmitWorkload {
    pub fn setup(seed: u64) -> (Self, SetupSplit) {
        let started = Instant::now();
        let mut requests = serving_requests(
            seed,
            PREWARM + OPS_PER_BLOCK,
            DC_RATIO,
            SYSTEM_LOAD,
            deep_mix(),
        );
        // The pre-warm prefix and the block each offer exactly the nominal
        // load, so every seed fills the book to the same pressure.
        let (prefix, block) = requests.split_at_mut(PREWARM);
        calibrate_load(prefix, 0.0, SYSTEM_LOAD);
        let block_starts = prefix[PREWARM - 1].task.arrival.as_f64();
        let shift = block_starts - block[0].task.arrival.as_f64()
            + (block[1].task.arrival.as_f64() - block[0].task.arrival.as_f64());
        for r in block.iter_mut() {
            r.task.arrival = SimTime::new(r.task.arrival.as_f64() + shift);
        }
        calibrate_load(block, block_starts, SYSTEM_LOAD);
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let block = requests.split_off(PREWARM);
        let mut book = serving_gateway(1);
        book.enable_observation();
        let prewarm = Script::per_arrival(requests);
        run_gateway(
            &mut book,
            &prewarm,
            &mut Recorder::disabled(),
            PassOpts::default(),
        );
        let workload = AdmitWorkload {
            prewarm,
            book,
            script: Script::per_arrival(block),
            first: None,
            mismatched_blocks: 0,
            depth_p50: 0,
        };
        (
            workload,
            SetupSplit {
                generate_s,
                construct_s: started.elapsed().as_secs_f64(),
                ..SetupSplit::default()
            },
        )
    }

    fn note(&mut self, tally: Tally, updates: u64) {
        let this = (tally, updates);
        if *self.first.get_or_insert(this) != this {
            self.mismatched_blocks += 1;
        }
    }
}

impl Workload for AdmitWorkload {
    fn block(&mut self) -> Sample {
        let mut gateway = self.book.clone();
        let opts = PassOpts {
            limit_ns: LIMIT_NS,
            keep_drive_log: false,
        };
        let (out, wall_ns, cpu_ns) = time_direct(|| {
            run_gateway(&mut gateway, &self.script, &mut Recorder::disabled(), opts)
        });
        self.note(out.tally, out.updates);
        let ops = self.script.ops();
        Sample {
            wall_ns,
            cpu_ns,
            ops,
            within_limit: ops - out.over_limit.min(ops),
            failed: ops - out.tally.total().min(ops),
            ..Sample::default()
        }
    }

    fn header(&self) -> Vec<(&'static str, String)> {
        vec![
            ("prewarm", PREWARM.to_string()),
            ("ops_per_block", OPS_PER_BLOCK.to_string()),
            ("decision_limit_ms", (LIMIT_NS as f64 / 1e6).to_string()),
        ]
    }

    fn verify(&mut self, checks: &mut Checks) {
        // The check pass: the same block once more, reading the waiting
        // queue's depth before every decision.
        let mut gateway = self.book.clone();
        let mut depths = Vec::with_capacity(self.script.requests.len());
        let out = run_gateway_observed(
            &mut gateway,
            &self.script,
            &mut Recorder::disabled(),
            PassOpts::default(),
            |g| depths.push(g.shard_queue_lens().iter().sum::<usize>() as f64),
        );
        self.note(out.tally, out.updates);
        self.depth_p50 = median(&depths) as u64;
        checks.equal("admit.blocks_repeat_exactly", self.mismatched_blocks, 0);
        checks.equal(
            "admit.one_verdict_per_request",
            out.tally.total(),
            self.script.ops(),
        );
        // The gateway's own book agrees with the verdicts it returned
        // (the pre-warm prefix is in the book too, so compare the deltas).
        // A reservation that misses its promise falls back to the defer
        // queue or is rejected outright, so the book's deferred and
        // rejected counts may exceed the verdicts'.
        let (before, after) = (self.book.metrics(), gateway.metrics());
        let t = out.tally;
        checks.equal(
            "books.verdicts",
            [
                after.accepted_immediate - before.accepted_immediate,
                after.reserved - before.reserved,
                after.throttled - before.throttled,
            ],
            [t.accepted, t.reserved, t.throttled],
        );
        let parked = after.deferred - before.deferred;
        let refused = after.rejected_immediate - before.rejected_immediate;
        checks.check(
            "books.deferred_and_rejected",
            parked >= t.deferred && refused >= t.rejected,
            format!(
                "book parked {parked} and refused {refused}, verdicts said {} and {}",
                t.deferred, t.rejected
            ),
        );
        checks.check(
            "regime.queue_depth_p50",
            self.depth_p50 >= 32,
            format!("waiting-queue depth p50 {}, want >= 32", self.depth_p50),
        );
        let share = |n: u64| n as f64 / out.tally.total().max(1) as f64;
        checks.check(
            "regime.verdict_mix",
            [t.accepted, t.reserved, t.deferred]
                .iter()
                .all(|&n| share(n) >= 0.05),
            format!(
                "accepted {:.3} reserved {:.3} deferred {:.3} rejected {:.3}, want the first three >= 0.05",
                share(t.accepted),
                share(t.reserved),
                share(t.deferred),
                share(t.rejected)
            ),
        );
    }

    fn fingerprint(&self) -> Vec<u64> {
        let (tally, updates) = self.first.unwrap_or_default();
        let mut counts = tally.as_array().to_vec();
        counts.push(updates);
        counts.push(self.depth_p50);
        counts
    }
}
