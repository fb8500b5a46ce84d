//! `ingest`: writes beside reads on one in-process session over a
//! 100K-tuple skewed table with a materialized closed cube at min_sup 8.
//!
//! Each step ingests one 1,000-row batch drawn from the table's
//! distribution, then reads `query_materialized` at min_sup 8 and 16 and one
//! planner-default `slice(0, 0)` query. Steps run in epochs of
//! [`EPOCH_STEPS`] on a fresh session over the base table, so the table
//! grows by at most half within an epoch and every epoch has the same
//! shape. After each epoch the grown session must answer exactly as a cold
//! session over the same rows.

use crate::cube::{core_probes, Digest};
use crate::report::{self, Metrics, Tally};
use crate::stats::{block_rates, median, percentile_of};
use crate::trace::Tracer;
use crate::Workload;
use c_cubing::prelude::*;
use std::time::Instant;

const ROWS: usize = 100_000;
const DIMS: usize = 6;
const CARD: u32 = 1000;
const SKEW: f64 = 1.5;
const BATCH: usize = 1000;
const EPOCH_STEPS: u64 = 50;
const MATERIALIZED: u64 = 8;
/// Steps per throughput block.
const BLOCK: usize = 8;
/// Operations per step: one ingest and three reads.
const OPS_PER_STEP: f64 = 4.0;
const SETUP_REPS: u64 = 2;

/// Row-major rows of batch `step` of `epoch`, from the table's distribution.
fn batch_rows(seed: u64, epoch: u64, step: u64) -> Vec<u32> {
    let batch_seed = crate::cube::mix(seed ^ crate::cube::mix(epoch << 32 | step));
    let t = SyntheticSpec::uniform(BATCH, DIMS, CARD, SKEW, batch_seed).generate();
    (0..t.rows() as TupleId).flat_map(|r| t.row(r)).collect()
}

fn cold_session(table: &Table) -> Result<CubeSession, String> {
    CubeSession::new(table.clone()).map_err(|e| e.to_string())
}

/// Set-up: `CubeSession::new` + `materialize(8)` over the base table.
fn set_up(base: &Table, op: u64, tracer: &Tracer, s: &mut Samples) -> Result<CubeSession, String> {
    let table = base.clone();
    let (session, took) = tracer.timed("ingest.setup", op, 0, |setup| {
        let (session, new) = tracer.timed("session.new", op, setup, |_| CubeSession::new(table));
        s.new_ms.push(new.as_secs_f64() * 1e3);
        let mut session = session.map_err(|e| e.to_string())?;
        tracer
            .timed("session.materialize", op, setup, |_| {
                session.materialize(MATERIALIZED)
            })
            .0
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(session)
    });
    s.setup_s.push(took.as_secs_f64());
    session
}

/// Per-step samples, in ms unless noted.
#[derive(Default)]
struct Samples {
    ingest_ms: Vec<f64>,
    read_ms: Vec<f64>,
    materialized_ms: Vec<f64>,
    slice_ms: Vec<f64>,
    step_s: Vec<f64>,
    setup_s: Vec<f64>,
    new_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    groups_rechecked: Vec<f64>,
    cells_added: Vec<f64>,
    cells_updated: Vec<f64>,
    widened: u64,
    repacked: u64,
    pool_patched: u64,
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Workload, String> {
    let base = SyntheticSpec::uniform(ROWS, DIMS, CARD, SKEW, seed).generate();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut s = Samples::default();
    let (mut steps, mut measured) = (0u64, 0.0f64);

    let mut epoch_rss_mb = Vec::new();
    let mut epoch = 0u64;
    while measured < seconds {
        let batches: Vec<Vec<u32>> = (0..EPOCH_STEPS)
            .map(|b| batch_rows(seed, epoch, b))
            .collect();
        // Each epoch opens with SETUP_REPS timed set-ups and keeps the last,
        // so the set-up median has samples from across the run.
        for r in 1..SETUP_REPS {
            set_up(&base, epoch * SETUP_REPS + r, tracer, &mut s)?;
        }
        let mut session = set_up(&base, epoch * SETUP_REPS, tracer, &mut s)?;
        let cache0 = session.cache_stats();

        // Peak memory of the epoch's steps, without its set-up and checks.
        report::reset_peak_rss();
        let mut last_slice = None;
        for (b, rows) in batches.iter().enumerate() {
            if measured >= seconds {
                break;
            }
            let op = epoch << 32 | b as u64;
            let (_, took) = tracer.timed("ingest.step", op, 0, |step| {
                let (res, took) =
                    tracer.timed("session.ingest", op, step, |_| session.ingest(rows));
                s.ingest_ms.push(took.as_secs_f64() * 1e3);
                match res {
                    Ok(st) => {
                        tally.op(st.rows == BATCH);
                        s.widened += u64::from(!st.widened.is_empty());
                        s.repacked += u64::from(st.repacked);
                        s.pool_patched += u64::from(st.pool_patched);
                        if let Some(d) = st.materialization {
                            s.groups_rechecked.push(d.groups_rechecked as f64);
                            s.cells_added.push(d.cells_added as f64);
                            s.cells_updated.push(d.cells_updated as f64);
                        }
                    }
                    Err(e) => {
                        eprintln!("ingest: {e}");
                        tally.op(false);
                    }
                }
                let mut served = [Digest::default(); 2];
                for (i, (k, name)) in [
                    (MATERIALIZED, "session.query_materialized.m8"),
                    (16, "session.query_materialized.m16"),
                ]
                .into_iter()
                .enumerate()
                {
                    let (res, took) = tracer.timed(name, op, step, |_| {
                        session.query_materialized(k, &mut served[i])
                    });
                    let ms = took.as_secs_f64() * 1e3;
                    s.read_ms.push(ms);
                    s.materialized_ms.push(ms);
                    tally.op(res.is_ok_and(|n| n == served[i].cells));
                }
                // A higher threshold serves a subset.
                if served[1].cells > served[0].cells {
                    tally.fail_check("query_materialized(16) served more cells than (8)");
                }
                let (res, took) = tracer.timed("session.query.slice", op, step, |_| {
                    session.query().slice(0, 0).stats()
                });
                let ms = took.as_secs_f64() * 1e3;
                s.read_ms.push(ms);
                s.slice_ms.push(ms);
                tally.op(res.is_ok());
                last_slice = res.ok();
            });
            measured += took.as_secs_f64();
            s.step_s.push(took.as_secs_f64());
            steps += 1;
        }
        epoch_rss_mb.push(report::peak_rss_mb());

        // Epoch check: the grown session answers as a cold one.
        let grown = session.table().clone();
        let mut cold = cold_session(&grown)?;
        let t = Instant::now();
        let mut cold_mat = cold_session(&grown)?;
        cold_mat
            .materialize(MATERIALIZED)
            .map_err(|e| e.to_string())?;
        s.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut patched = CollectSink::default();
        session
            .query_materialized(MATERIALIZED, &mut patched)
            .map_err(|e| e.to_string())?;
        let mut fresh = CollectSink::default();
        cold.query()
            .min_sup(MATERIALIZED)
            .run(&mut fresh)
            .map_err(|e| e.to_string())?;
        if patched.counts() != fresh.counts() {
            tally.fail_check(&format!(
                "epoch {epoch}: materialized cube ({} cells) differs from a cold query ({} cells)",
                patched.len(),
                fresh.len()
            ));
        }
        let mut patched16 = Digest::default();
        session
            .query_materialized(16, &mut patched16)
            .map_err(|e| e.to_string())?;
        let mut fresh16 = Digest::default();
        cold.query()
            .min_sup(16)
            .run(&mut fresh16)
            .map_err(|e| e.to_string())?;
        if patched16 != fresh16 {
            tally.fail_check(&format!(
                "epoch {epoch}: min_sup 16 served {patched16:?}, cold {fresh16:?}"
            ));
        }
        let cold_slice = cold
            .query()
            .slice(0, 0)
            .algorithm(Algorithm::QcDfs)
            .stats()
            .map_err(|e| e.to_string())?;
        if let Some(sl) = last_slice {
            if (sl.cells, sl.count_sum) != (cold_slice.cells, cold_slice.count_sum) {
                tally.fail_check(&format!("epoch {epoch}: slice {sl:?}, cold {cold_slice:?}"));
            }
        }
        crate::add_cache_deltas(&mut m, cache0, session.cache_stats());
        epoch += 1;
    }

    m.set("setup_s", median(&s.setup_s));
    m.set("peak_rss_mb", median(&epoch_rss_mb));
    let rates = block_rates(&s.step_s, BLOCK, OPS_PER_STEP);
    if rates.is_empty() {
        return Err(format!("too few steps ({steps}) for ops_per_s"));
    }
    m.set("ops_per_s", median(&rates));
    m.set("op_p50_ms", percentile_of(&s.read_ms, 0.5, "op_p50_ms")?);

    if tracer.on() {
        core_probes(&base, &mut m);
        let ingest_p50 = percentile_of(&s.ingest_ms, 0.5, "ingest_p50_ms")?;
        m.set("ingest_p50_ms", ingest_p50);
        m.set("op_p95_ms", percentile_of(&s.read_ms, 0.95, "op_p95_ms")?);
        m.set("session.new_ms", median(&s.new_ms));
        m.set(
            "session.slice_ms.p50",
            percentile_of(&s.slice_ms, 0.5, "slice p50")?,
        );
        m.set("session.ingest.widened", s.widened as f64);
        m.set("session.ingest.repacked", s.repacked as f64);
        m.set("session.ingest.pool_patched", s.pool_patched as f64);
        m.set("delta.groups_rechecked", median(&s.groups_rechecked));
        m.set("delta.cells_added", median(&s.cells_added));
        m.set("delta.cells_updated", median(&s.cells_updated));
        m.set(
            "delta.serve_ms.p50",
            percentile_of(&s.materialized_ms, 0.5, "delta serve p50")?,
        );
        m.set("delta.patch_vs_cold", ingest_p50 / median(&s.cold_ms));
    }

    Ok(Workload {
        tally,
        metrics: m,
        phase_secs: measured,
        summary: format!("{steps} steps over {epoch} epochs in {measured:.2} s of steps"),
    })
}
