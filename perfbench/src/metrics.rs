//! Metric names, units and the result line.
//!
//! The names are the benchmark's contract with `BENCHMARK.json`: a test
//! pins them to that file, so renaming one is a visible change.

use std::fmt::Write as _;

/// `(name, unit, better)` of every end-to-end metric (untraced runs).
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("throughput_gflops", "GFLOP/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_tail_us", "us", "lower"),
    ("success_rate", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (traced runs).
pub const PER_LAYER: [(&str, &str, &str); 33] = [
    ("install.timer_s", "s", "lower"),
    ("install.timer_calls", "count", "lower"),
    ("install.fit_s", "s", "lower"),
    ("install.grid_points", "count", "lower"),
    ("artifact.load_ms", "ms", "lower"),
    ("decide.miss_us", "us", "lower"),
    ("decide.hit_ns", "ns", "lower"),
    ("decide.misses", "count", "lower"),
    ("decide.share", "ratio", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("service.overhead_us", "us", "lower"),
    ("gemm.kernel_gflops_per_core", "GFLOP/s", "higher"),
    ("gemm.peak_fraction", "ratio", "higher"),
    ("gemm.pack_share", "ratio", "lower"),
    ("gemm.packed_bytes_per_flop", "B/flop", "lower"),
    ("gemm.arena_allocs_after_warmup", "count", "lower"),
    ("pool.sync_share", "ratio", "lower"),
    ("pool.threads_used_mean", "threads", "higher"),
    ("pool.gang_fallbacks", "count", "lower"),
    ("select.speedup_vs_all_threads", "x", "higher"),
    ("select.speedup_vs_serial", "x", "higher"),
    ("select.multi_thread_share", "ratio", "higher"),
    ("select.pred_abs_log_err", "ln-ratio", "lower"),
    ("select.algo_strassen_share", "ratio", "higher"),
    ("select.algo_zorder_share", "ratio", "higher"),
    ("select.plan_downgrades", "count", "lower"),
    ("sched.queue_wait_us", "us", "lower"),
    ("sched.fused_ops", "count", "higher"),
    ("sched.waves", "count", "lower"),
    ("sched.admission_waits", "count", "lower"),
    ("sched.max_queue_depth", "count", "lower"),
    ("sched.makespan_error", "ln-ratio", "lower"),
    ("trace.overhead", "ratio", "higher"),
];

/// Tail percentiles the benchmark may report, highest first.
const TAIL_LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// 1-based nearest rank of percentile `p` among `n` samples (the small
/// slack keeps `99.9% of 10000` at 9990 despite binary rounding).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[rank(p, sorted.len()) - 1] as f64
}

/// The highest ladder percentile with at least ten samples beyond it,
/// as `(percentile, value)`; the median when there are too few samples.
pub fn tail(samples: &[u64]) -> (f64, f64) {
    let n = samples.len();
    let p = TAIL_LADDER.into_iter().find(|&p| n.saturating_sub(rank(p, n)) >= 10).unwrap_or(50.0);
    (p, percentile(samples, p))
}

pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The last line of every run: `correct`, `attempted`, `failed`, and the
/// named metrics with their units, in the order of `table`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str, &str)],
    value: impl Fn(&str) -> f64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, _)) in table.iter().enumerate() {
        let v = value(name);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&samples), (99.0, 990.0));
        let many: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&many).0, 99.9);
        let few: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&few).0, 50.0);
        assert_eq!(percentile(&few, 50.0), 10.0);
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let line = result_line(true, 3, 0, &END_TO_END, |_| 1.5);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit, _) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert_eq!(line.matches(&entry).count(), 1, "{line}");
        }
    }

    /// The metric names and units the program prints are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_names_match_the_benchmark_declaration() {
        use serde::Value;
        fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
            match v {
                Value::Map(entries) => &entries.iter().find(|(k, _)| k == key).expect(key).1,
                other => panic!("expected an object around {key}, got {other:?}"),
            }
        }
        fn text(v: &Value) -> String {
            match v {
                Value::Str(s) => s.clone(),
                other => panic!("expected a string, got {other:?}"),
            }
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&doc).expect("valid JSON");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let Value::Seq(list) = field(&doc, key) else { panic!("{key} is not a list") };
            let declared: Vec<[String; 3]> = list
                .iter()
                .map(|m| [text(field(m, "name")), text(field(m, "unit")), text(field(m, "better"))])
                .collect();
            let ours: Vec<[String; 3]> = table
                .iter()
                .map(|(n, u, b)| [n.to_string(), u.to_string(), b.to_string()])
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }
}
