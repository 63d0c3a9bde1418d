//! Seed-pinned fingerprints: `bench/expected.json`.
//!
//! Every workload reduces its outputs to a *fingerprint* — a flat list of
//! exact counts (verdict tallies, events replayed and demoted, arrivals and
//! rejections per grid cell). The counts are a pure function of the seed, so
//! for the seeds listed in `expected.json` a run must reproduce them
//! exactly; a fast wrong verdict is a failure, not a speed-up. For any
//! other seed the run still checks that every block produced the same
//! fingerprint as the first and that the workload's regime assertions hold.
//! `rtdls-perfbench pin <seed>…` prints the file for the given seeds.

use serde::Value;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// The pinned fingerprint of `workload` at `seed`, when there is one.
pub fn lookup(workload: &str, seed: u64) -> Option<Vec<u64>> {
    let doc: Value = serde_json::from_str(EXPECTED_JSON).ok()?;
    let Value::Seq(counts) = doc.get("seeds")?.get(&seed.to_string())?.get(workload)? else {
        return None;
    };
    counts
        .iter()
        .map(|v| match v {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::UInt(u) => Some(*u),
            _ => None,
        })
        .collect()
}

/// One seed's fingerprints: `(seed, [(workload, fingerprint)])`.
pub type SeedRow = (u64, Vec<(String, Vec<u64>)>);

/// Renders `expected.json` from one row per seed.
pub fn render(rows: &[SeedRow]) -> String {
    let mut out = String::from(
        "{\n  \"note\": \"exact per-seed fingerprints; see bench/src/expected.rs and README.md (regenerate with `rtdls-perfbench pin <seed>...`)\",\n  \"seeds\": {\n",
    );
    for (i, (seed, workloads)) in rows.iter().enumerate() {
        out.push_str(&format!("    \"{seed}\": {{\n"));
        for (j, (name, counts)) in workloads.iter().enumerate() {
            let list: Vec<String> = counts.iter().map(u64::to_string).collect();
            let comma = if j + 1 < workloads.len() { "," } else { "" };
            out.push_str(&format!("      \"{name}\": [{}]{comma}\n", list.join(", ")));
        }
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}
