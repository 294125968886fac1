//! Metric catalogue and the result line every run ends with.
//!
//! The catalogue here and `BENCHMARK.json` at the repository root must
//! name the same metrics with the same units; a self-test pins that.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off: (name, unit). Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("sim_mips", "Minst/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p75_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer a
/// workload does not reach from the outside reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("genomics.parse_s", "s"),
    ("algos.prep_s", "s"),
    ("isa.programs_built", "count"),
    ("isa.distinct_images", "count"),
    ("uarch.exec_s", "s"),
    ("batch.self_s", "s"),
    ("pool.built", "count"),
    ("pool.quarantined", "count"),
    ("ingest.self_s", "s"),
    ("ingest.concat_s", "s"),
    ("ingest.shards", "count"),
    ("ingest.bytes_written", "B"),
    ("served.busy_s", "s"),
    ("served.wait_s", "s"),
    ("served.frames", "count"),
    ("served.bytes", "B"),
    ("served.items_ok", "count"),
    ("served.items_rejected", "count"),
    ("served.items_failed_sim", "count"),
    ("served.items_failed_panic", "count"),
    ("verify.admit_s", "s"),
    ("verify.programs", "count"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.mem_requests", "count"),
    ("sim.dram_bytes", "B"),
    ("sim.indexed_ops", "count"),
    ("sim.qz_accesses", "count"),
    ("sim.mispredicts", "count"),
    ("sim.stall.base", "count"),
    ("sim.stall.frontend", "count"),
    ("sim.stall.scalar_compute", "count"),
    ("sim.stall.vector_compute", "count"),
    ("sim.stall.memory", "count"),
    ("sim.stall.quetzal", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.audit_gap_frac", "frac"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

/// Whether `name` is a valid metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pairs, kernel runs or requests).
    pub attempted: u64,
    /// Operations whose result was wrong or missing.
    pub failed: u64,
    /// Gate failures beyond per-operation ones (audit, determinism).
    pub problems: Vec<String>,
    /// Operations completed per measured second (also kept on traced
    /// runs, where it is the base of `trace.overhead_frac`).
    pub ops_per_s: f64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Whether every correctness gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Records a gate failure.
    pub fn problem(&mut self, msg: String) {
        eprintln!("qzperf: FAIL: {msg}");
        self.problems.push(msg);
    }
}

/// Renders the result line: `correct`, `attempted`, `failed`, and every
/// metric of `catalogue` with its unit. A catalogue metric the run did
/// not set reports 0 (only the per-layer catalogue relies on this).
///
/// # Errors
///
/// Returns a message if a name or unit breaks the pattern or a value is
/// not finite.
pub fn render(outcome: &Outcome, catalogue: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!(
                "metric {name:?} / unit {unit:?} breaks the pattern"
            ));
        }
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quetzal_trace::json::Value;

    #[test]
    fn metric_names_and_units_follow_the_pattern() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        for bad in [
            "",
            ".lead",
            "-lead",
            "has space",
            "semi;colon",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["a", "9lives", "sim.stall.base", "a_b-c.d"] {
            assert!(valid_name(good), "{good}");
        }
        let mut seen = std::collections::HashSet::new();
        for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_shape() {
        let mut outcome = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        outcome.values.insert("setup_s", 0.25);
        outcome.values.insert("lat_p75_ms", 1.0 / 3.0);
        let line = render(&outcome, END_TO_END).unwrap();
        let v = Value::parse(&line).unwrap();
        let Value::Object(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(12));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            panic!("metrics not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for &(name, unit) in END_TO_END {
            let m = &metrics[name];
            let Value::Object(fields) = m else {
                panic!("{name} not an object")
            };
            assert_eq!(fields.len(), 2);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
        }
        // Values keep all their digits.
        assert!(line.contains("0.3333333333333333"));
        outcome.failed = 1;
        let failed = render(&outcome, END_TO_END).unwrap();
        assert!(failed.starts_with("{\"correct\": false"));
        outcome.values.insert("setup_s", f64::NAN);
        assert!(render(&outcome, END_TO_END).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(END_TO_END));
        assert_eq!(listed("per_layer"), want(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
