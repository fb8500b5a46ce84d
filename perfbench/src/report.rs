//! The metric catalogue, operation tally and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ok_rate", "fraction"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics, reported by the traced run. A workload that never
/// calls into a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("op_p95_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("cube_s.qc_dfs", "s"),
    ("cube_s.cc_mm", "s"),
    ("cube_s.cc_star", "s"),
    ("cube_s.cc_stararray", "s"),
    ("cube_s.planner", "s"),
    ("cube_s.parallel", "s"),
    ("session.new_ms", "ms"),
    ("session.planner_regret.m1", "ratio"),
    ("session.planner_regret.m8", "ratio"),
    ("session.cache.stat_builds", "count"),
    ("session.cache.partition_builds", "count"),
    ("session.cache.pool_builds", "count"),
    ("session.cache.artifacts_patched", "count"),
    ("session.ingest.widened", "count"),
    ("session.ingest.repacked", "count"),
    ("session.ingest.pool_patched", "count"),
    ("session.slice_ms.p50", "ms"),
    ("baselines.qc_dfs.m1_s", "s"),
    ("baselines.qc_dfs.m8_s", "s"),
    ("mm.cc_mm.m1_s", "s"),
    ("mm.cc_mm.m8_s", "s"),
    ("star.cc_star.m1_s", "s"),
    ("star.cc_star.m8_s", "s"),
    ("star.cc_stararray.m1_s", "s"),
    ("star.cc_stararray.m8_s", "s"),
    ("paper.cells.m1", "count"),
    ("paper.cells.m8", "count"),
    ("core.partition_ns_per_tuple", "ns"),
    ("core.for_group_ns_per_tuple", "ns"),
    ("engine.speedup.qc_dfs", "ratio"),
    ("engine.speedup.cc_mm", "ratio"),
    ("engine.speedup.cc_star", "ratio"),
    ("engine.speedup.cc_stararray", "ratio"),
    ("engine.tasks", "count"),
    ("engine.splits", "count"),
    ("engine.steals", "count"),
    ("engine.peak_buffered_frac", "fraction"),
    ("serve.client_ms.p50", "ms"),
    ("serve.client_ms.p95", "ms"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p95", "ms"),
    ("serve.wire_ms.p50", "ms"),
    ("serve.wire_ms.p95", "ms"),
    ("serve.first_batch_ms.p50", "ms"),
    ("serve.first_reply_ms.p50", "ms"),
    ("serve.inproc_ms.p50", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.peak_running", "count"),
    ("serve.retried", "count"),
    ("serve.resumed", "count"),
    ("serve.overloaded", "count"),
    ("serve.fast_path_share", "fraction"),
    ("serve.tasks_mean", "count"),
    ("serve.peak_buffered_bytes_max", "bytes"),
    ("serve.repeat_share", "fraction"),
    ("delta.groups_rechecked", "count"),
    ("delta.cells_added", "count"),
    ("delta.cells_updated", "count"),
    ("delta.serve_ms.p50", "ms"),
    ("delta.patch_vs_cold", "ratio"),
    ("trace.spans", "count"),
    ("trace.record_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
    ("trace.ops_per_s", "1/s"),
    ("trace.op_p50_ms", "ms"),
];

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line's `metrics` object over `catalogue`, in catalogue
    /// order. A missing end-to-end metric is a bug in the workload; a
    /// missing per-layer metric is a layer the workload never calls (0).
    pub fn json(&self, catalogue: &[(&str, &str)], missing_is_zero: bool) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if missing_is_zero => 0.0,
                    None => panic!("workload did not measure end-to-end metric {name}"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Operations attempted and failed (error, refusal or wrong answer).
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation that succeeded with a correct answer (`ok`) or
    /// not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// A check made after the timed phase failed: the answer it covers was
    /// wrong, so one more operation counts as failed.
    pub fn fail_check(&mut self, what: &str) {
        eprintln!("check failed: {what}");
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
    }

    /// Share of operations that succeeded with a correct answer.
    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Restart the peak resident set (VmHWM) from the current resident set.
/// Where the kernel refuses, VmHWM keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
