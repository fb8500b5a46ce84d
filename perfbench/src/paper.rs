//! `paper`: the cube pass of [`crate::cube`] on an in-process session over
//! the paper's 50K-tuple, 8-dimension synthetic table, cycle after cycle.

use crate::cube::{core_probes, CubePass};
use crate::report::{self, Metrics, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Workload;
use c_cubing::prelude::*;
use std::time::Instant;

const SETUP_REPS: u64 = 5;
/// Cycles run even when `--seconds` is shorter, so the medians over cycles
/// have more than one sample.
const MIN_CYCLES: u64 = 2;

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Workload, String> {
    let table = SyntheticSpec::uniform(50_000, 8, 100, 1.0, seed).generate();
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Set-up: CubeSession::new, timed in batches before the first cycle and
    // after every cycle, so its median spans the whole run rather than one
    // moment of it. The first batch's last session runs the cycles.
    let mut setups = Vec::new();
    let mut set_up = |batch: u64| -> Result<CubeSession, String> {
        let mut last = None;
        for r in 0..SETUP_REPS {
            let t = table.clone();
            let op = batch * SETUP_REPS + r;
            let (s, took) = tracer.timed("session.new", op, 0, |_| CubeSession::new(t));
            setups.push(took.as_secs_f64());
            last = Some(s.map_err(|e| e.to_string())?);
        }
        Ok(last.expect("SETUP_REPS > 0"))
    };
    let mut session = set_up(0)?;
    let cache0 = session.cache_stats();

    let mut pass = CubePass::default();
    pass.warm_up(&mut session, crate::nproc(), &mut tally);
    let start = Instant::now();
    let mut cycle = 0;
    // Peak memory per cycle: how much the engine's worker arenas still hold
    // when the next cycle's largest query peaks varies from cycle to cycle,
    // and the median over cycles does not hang on the unluckiest one.
    let mut cycle_rss_mb = Vec::new();
    while cycle < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        report::reset_peak_rss();
        pass.cycle(&mut session, crate::nproc(), cycle, tracer, &mut tally);
        cycle_rss_mb.push(report::peak_rss_mb());
        cycle += 1;
        set_up(cycle)?;
    }
    m.set("peak_rss_mb", median(&cycle_rss_mb));
    let phase = start.elapsed().as_secs_f64();
    m.set("setup_s", median(&setups));
    m.set("session.new_ms", median(&setups) * 1e3);
    m.set("ops_per_s", pass.ops_per_s());
    m.set("op_p50_ms", pass.mean_query_ms());
    pass.per_layer(&mut m);
    crate::add_cache_deltas(&mut m, cache0, session.cache_stats());
    if tracer.on() {
        core_probes(&table, &mut m);
    }

    Ok(Workload {
        tally,
        metrics: m,
        phase_secs: phase,
        summary: format!("{cycle} cycles in {phase:.2} s"),
    })
}
