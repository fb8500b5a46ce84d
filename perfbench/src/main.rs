//! The repository benchmark: drives the C-Cubing system through its public
//! APIs on one workload and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|serve|ingest> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` records spans around every call into the system,
//! writes them to `perfbench/traces/`, and reports the per-layer metrics.
//! See `perfbench/README.md` for the workloads and the metric map.

mod cube;
mod ingest;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;

use c_cubing::CacheStats;
use report::{Metrics, Tally, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{self_times, Tracer};

/// What a workload hands back to `main`.
pub struct Workload {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Length of the measured phase, in seconds.
    pub phase_secs: f64,
    /// One human-readable line about what ran.
    pub summary: String,
}

/// Engine threads for the `nproc` pass: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Add the change in [`CacheStats`] from `before` to `after` to the
/// `session.cache.*` metrics.
pub fn add_cache_deltas(m: &mut Metrics, before: CacheStats, after: CacheStats) {
    for (name, a, b) in [
        ("stat_builds", after.stat_builds, before.stat_builds),
        (
            "partition_builds",
            after.partition_builds,
            before.partition_builds,
        ),
        ("pool_builds", after.pool_builds, before.pool_builds),
        (
            "artifacts_patched",
            after.artifacts_patched,
            before.artifacts_patched,
        ),
    ] {
        let name = format!("session.cache.{name}");
        let sum = m.get(&name).unwrap_or(0.0) + f64::from(a - b);
        m.set(name, sum);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    let args = Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <paper|serve|ingest> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let seconds = args.seconds as f64;
    let run = match args.workload.as_str() {
        "paper" => paper::run(args.seed, seconds, &tracer),
        "serve" => serve::run(args.seed, seconds, &tracer),
        "ingest" => ingest::run(args.seed, seconds, &tracer),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut w = match run {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let m = &mut w.metrics;
    m.set("ok_rate", w.tally.ok_rate());
    println!(
        "{} seed {}: {}; {} operations, {} failed",
        args.workload, args.seed, w.summary, w.tally.attempted, w.tally.failed
    );

    let catalogue: &[(&str, &str)] = if args.trace {
        let spans = tracer.spans();
        m.set("trace.spans", spans.len() as f64);
        m.set(
            "trace.record_ns",
            tracer.record_ns() as f64 / spans.len().max(1) as f64,
        );
        m.set(
            "trace.overhead_frac",
            tracer.record_ns() as f64 / (w.phase_secs * 1e9),
        );
        m.set("trace.ops_per_s", m.get("ops_per_s").unwrap_or(0.0));
        m.set("trace.op_p50_ms", m.get("op_p50_ms").unwrap_or(0.0));
        print_self_times(&tracer);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let correct = w.tally.failed == 0 && w.tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        w.tally.attempted,
        w.tally.failed,
        w.metrics.json(catalogue, args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per span name: count, total duration and total self time.
fn print_self_times(tracer: &Tracer) {
    let spans = tracer.spans();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += self_ns;
    }
    println!(
        "{:<34} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in by_name {
        println!(
            "{name:<34} {n:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
