//! `aa <k>`: the benchmark's self-test.
//!
//! Runs two interleaved sets (A, B, A, B, …) of `k` runs of this same
//! binary per workload — run `i` of either set uses seed `i` — and judges
//! every end-to-end metric the way the benchmark contract does: the
//! first-to-third-quartile spread of a set as a share of its median, and
//! how much worse set B's median reads than set A's, both against the
//! metric's bound in `BENCHMARK.json`. Same code on both sides, so every
//! disagreement it prints is measurement noise.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde::Value;

use crate::stats::{contract_spread, median};
use crate::{bench_dir, WorkloadId};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Num(f) => Some(*f),
        _ => None,
    }
}

fn read_contract() -> Result<(f64, Vec<Bound>), String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let seconds = doc
        .get("run_seconds")
        .and_then(number)
        .ok_or("BENCHMARK.json: run_seconds missing")?;
    let Some(Value::Seq(entries)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: end_to_end missing".to_string());
    };
    let bounds = entries
        .iter()
        .map(|e| {
            let text = |key: &str| match e.get(key) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: end_to_end entry lacks {key}")),
            };
            Ok(Bound {
                name: text("name")?,
                lower_is_better: text("better")? == "lower",
                bound: e
                    .get("bound")
                    .and_then(number)
                    .ok_or("BENCHMARK.json: end_to_end entry lacks bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((seconds, bounds))
}

/// Runs one child and returns its end-to-end metrics by name.
fn run_child(
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc: Value = serde_json::from_str(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} seed {seed}: correct is not true",
            workload.name()
        ));
    }
    let Some(Value::Map(metrics)) = doc.get("metrics") else {
        return Err("result line lacks metrics".to_string());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value").and_then(number)?)))
        .collect())
}

pub fn run(k: usize, seconds: Option<f64>, only: Option<WorkloadId>) -> ExitCode {
    let (contract_seconds, bounds) = match read_contract() {
        Ok(contract) => contract,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = seconds.unwrap_or(contract_seconds);
    let mut all_pass = true;
    for workload in WorkloadId::ALL {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..k {
            for set in &mut sets {
                match run_child(workload, i as u64 + 1, seconds) {
                    Ok(metrics) => set.push(metrics),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("aa {}: 2 sets x {k} runs x {seconds} s", workload.name());
        println!(
            "  {:<20} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9} {:>7}  verdict",
            "metric", "median A", "median B", "B worse", "spread A", "spread B", "max-min", "bound"
        );
        for b in &bounds {
            let values = |set: &Vec<BTreeMap<String, f64>>| -> Vec<f64> {
                set.iter().filter_map(|m| m.get(&b.name).copied()).collect()
            };
            let (a, bb) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (median(&a), median(&bb));
            // How much worse B reads than A, as a share of A.
            let worse = if med_a == 0.0 {
                0.0
            } else if b.lower_is_better {
                (med_b - med_a) / med_a
            } else {
                (med_a - med_b) / med_a
            };
            let (spread_a, spread_b) = (contract_spread(&a), contract_spread(&bb));
            let both: Vec<f64> = a.iter().chain(&bb).copied().collect();
            let range = both.iter().copied().fold(f64::MIN, f64::max)
                - both.iter().copied().fold(f64::MAX, f64::min);
            let range = if median(&both) == 0.0 {
                0.0
            } else {
                range / median(&both)
            };
            // The contract exempts setup_s from the spread rule only.
            let spread_ok = b.name == "setup_s" || spread_a.max(spread_b) <= b.bound;
            let pass = worse <= b.bound && spread_ok;
            all_pass &= pass;
            println!(
                "  {:<20} {:>12.4} {:>12.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                b.name,
                med_a,
                med_b,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                range * 100.0,
                b.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("aa: {}", if all_pass { "PASS" } else { "FAIL" });
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
