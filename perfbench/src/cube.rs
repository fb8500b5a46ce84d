//! The cube pass: the paper's closed cubers, the planner and the parallel
//! engine on one session, plus the order-independent answer digest and the
//! `ccube-core` kernel probes every workload shares.
//!
//! One cycle runs, through `CubeSession::query`:
//! * QC-DFS, CC(MM), CC(Star) and CC(StarArray) at min_sup 1 and 8 on one
//!   thread;
//! * the planner default (no `.algorithm`) at min_sup 1 and 8;
//! * the four cubers at min_sup 8 on `nproc` engine threads.
//!
//! Every answer at one min_sup must agree on `cells` and `count_sum`.

use crate::report::{Metrics, Tally};
use crate::stats::median;
use crate::trace::Tracer;
use c_cubing::core::partition::{Group, Partitioner};
use c_cubing::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// The paper's four closed cubers with their metric names and the module
/// (layer) that implements each.
const CUBERS: [(Algorithm, &str, &str); 4] = [
    (Algorithm::QcDfs, "qc_dfs", "baselines"),
    (Algorithm::CCubingMm, "cc_mm", "mm"),
    (Algorithm::CCubingStar, "cc_star", "star"),
    (Algorithm::CCubingStarArray, "cc_stararray", "star"),
];

/// The two thresholds of a cycle: the full closed cube and the iceberg one.
const MIN_SUPS: [u64; 2] = [1, 8];

/// Span names: `[cuber][min_sup index]` on one thread, then the planner, then
/// the `nproc`-thread pass at min_sup 8.
const SEQ_SPANS: [[&str; 2]; 4] = [
    ["query.qc_dfs.m1", "query.qc_dfs.m8"],
    ["query.cc_mm.m1", "query.cc_mm.m8"],
    ["query.cc_star.m1", "query.cc_star.m8"],
    ["query.cc_stararray.m1", "query.cc_stararray.m8"],
];
const PLANNER_SPANS: [&str; 2] = ["query.planner.m1", "query.planner.m8"];
const PAR_SPANS: [&str; 4] = [
    "query.qc_dfs.m8.par",
    "query.cc_mm.m8.par",
    "query.cc_star.m8.par",
    "query.cc_stararray.m8.par",
];

/// Order-independent summary of a cube answer: cell count, count sum and a
/// commutative hash of every `(cell, count)` pair. Two answers with equal
/// digests hold the same cells with overwhelming probability, whatever
/// order they were produced in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub cells: u64,
    pub count_sum: u64,
    pub hash: u64,
}

impl Digest {
    /// Fold one result cell in.
    pub fn add(&mut self, cell: &[u32], count: u64) {
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for &v in cell {
            h = mix(h ^ u64::from(v));
        }
        self.cells += 1;
        self.count_sum += count;
        self.hash = self.hash.wrapping_add(mix(h ^ count));
    }
}

impl CellSink<()> for Digest {
    fn emit(&mut self, cell: &[u32], count: u64, _acc: &()) {
        self.add(cell, count);
    }
}

/// splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Timings and counters of one cycle, in seconds.
#[derive(Clone, Debug, Default)]
struct Cycle {
    /// `[cuber][min_sup index]` one-thread times.
    seq: [[f64; 2]; 4],
    /// Planner-default times per min_sup.
    planner: [f64; 2],
    /// `nproc`-thread times at min_sup 8, per cuber.
    par: [f64; 4],
    /// Engine counters summed over the `nproc` pass.
    tasks: u64,
    splits: u64,
    steals: u64,
    /// Largest `peak_buffered_bytes / total_output_bytes` of the pass.
    peak_buffered_frac: f64,
    /// Closed cells per min_sup.
    cells: [u64; 2],
}

/// Queries one cycle runs.
const QUERIES_PER_CYCLE: usize = CUBERS.len() * MIN_SUPS.len() + MIN_SUPS.len() + CUBERS.len();

/// Every cycle of a cube pass.
#[derive(Default)]
pub struct CubePass {
    cycles: Vec<Cycle>,
    /// The answer every query at a min_sup must give: the first one seen.
    reference: [Option<QueryStats>; 2],
}

impl CubePass {
    /// Run the `threads`-way pass once, untimed, so the engine's first
    /// thread start and buffer faults land outside the measured cycles. Its
    /// answers are still checked.
    pub fn warm_up(&mut self, session: &mut CubeSession, threads: usize, tally: &mut Tally) {
        let tracer = Tracer::new(false);
        for &(algo, name, _) in &CUBERS {
            self.query(&tracer, name, 0, 0, 1, tally, || {
                session
                    .query()
                    .min_sup(MIN_SUPS[1])
                    .algorithm(algo)
                    .threads(threads)
                    .stats()
            });
        }
    }

    /// Run one cycle on `session` as operation `op`.
    pub fn cycle(
        &mut self,
        session: &mut CubeSession,
        threads: usize,
        op: u64,
        tracer: &Tracer,
        tally: &mut Tally,
    ) {
        let mut c = Cycle::default();
        tracer.timed("cycle", op, 0, |cycle| {
            for (mi, &m) in MIN_SUPS.iter().enumerate() {
                for (ci, &(algo, _, _)) in CUBERS.iter().enumerate() {
                    let (secs, _) =
                        self.query(tracer, SEQ_SPANS[ci][mi], op, cycle, mi, tally, || {
                            session.query().min_sup(m).algorithm(algo).stats()
                        });
                    c.seq[ci][mi] = secs;
                }
                let (secs, stats) =
                    self.query(tracer, PLANNER_SPANS[mi], op, cycle, mi, tally, || {
                        session.query().min_sup(m).stats()
                    });
                c.planner[mi] = secs;
                c.cells[mi] = stats.map_or(0, |s| s.cells);
            }
            for (ci, &(algo, _, _)) in CUBERS.iter().enumerate() {
                let (secs, stats) = self.query(tracer, PAR_SPANS[ci], op, cycle, 1, tally, || {
                    session
                        .query()
                        .min_sup(MIN_SUPS[1])
                        .algorithm(algo)
                        .threads(threads)
                        .stats()
                });
                c.par[ci] = secs;
                if let Some(e) = stats.map(|s| s.engine) {
                    c.tasks += e.tasks;
                    c.splits += e.splits;
                    c.steals += e.steals;
                    if e.total_output_bytes > 0 {
                        let frac = e.peak_buffered_bytes as f64 / e.total_output_bytes as f64;
                        c.peak_buffered_frac = c.peak_buffered_frac.max(frac);
                    }
                }
            }
        });
        self.cycles.push(c);
    }

    /// Time one query, check its answer against the min_sup's reference,
    /// and return its seconds and stats.
    #[allow(clippy::too_many_arguments)]
    fn query(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
        op: u64,
        parent: u64,
        mi: usize,
        tally: &mut Tally,
        run: impl FnOnce() -> Result<QueryStats, CubeError>,
    ) -> (f64, Option<QueryStats>) {
        let (res, took) = tracer.timed(name, op, parent, |_| run());
        let ok = match &res {
            Ok(s) => {
                let reference = self.reference[mi].get_or_insert(*s);
                let same = (s.cells, s.count_sum) == (reference.cells, reference.count_sum);
                if !same {
                    eprintln!(
                        "{name}: {} cells / count sum {}, expected {} / {}",
                        s.cells, s.count_sum, reference.cells, reference.count_sum
                    );
                }
                same
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                false
            }
        };
        tally.op(ok);
        (took.as_secs_f64(), res.ok())
    }

    /// The typical cycle time: each query's median over cycles, summed. A
    /// slow spell that hits some queries of one cycle drops out of every
    /// median, where it would stay in that cycle's wall time.
    fn typical_cycle_s(&self) -> f64 {
        let per_cuber: f64 = (0..CUBERS.len())
            .map(|ci| {
                self.median(|c| c.seq[ci][0])
                    + self.median(|c| c.seq[ci][1])
                    + self.median(|c| c.par[ci])
            })
            .sum();
        let planner: f64 = (0..MIN_SUPS.len())
            .map(|mi| self.median(|c| c.planner[mi]))
            .sum();
        per_cuber + planner
    }

    /// Queries per second of a typical cycle.
    pub fn ops_per_s(&self) -> f64 {
        QUERIES_PER_CYCLE as f64 / self.typical_cycle_s()
    }

    /// Mean query time of a typical cycle, in ms. The query kinds of a
    /// cycle differ twentyfold in cost, so the plain median over queries
    /// falls in a gap between two kinds and jumps between them from run to
    /// run.
    pub fn mean_query_ms(&self) -> f64 {
        self.typical_cycle_s() * 1e3 / QUERIES_PER_CYCLE as f64
    }

    /// The cuber, planner and engine per-layer metrics. `cube_s.*` is, per
    /// cuber (and the planner), the median over cycles of its one-thread
    /// time summed over both thresholds, and the median `nproc` pass summed
    /// over the cubers.
    pub fn per_layer(&self, m: &mut Metrics) {
        for (ci, &(_, name, _)) in CUBERS.iter().enumerate() {
            m.set(
                format!("cube_s.{name}"),
                self.median(|c| c.seq[ci][0] + c.seq[ci][1]),
            );
        }
        m.set(
            "cube_s.planner",
            self.median(|c| c.planner[0] + c.planner[1]),
        );
        m.set("cube_s.parallel", self.median(|c| c.par.iter().sum()));
        for (ci, &(_, name, module)) in CUBERS.iter().enumerate() {
            for (mi, k) in MIN_SUPS.iter().enumerate() {
                m.set(
                    format!("{module}.{name}.m{k}_s"),
                    self.median(|c| c.seq[ci][mi]),
                );
            }
            m.set(
                format!("engine.speedup.{name}"),
                self.median(|c| c.seq[ci][1] / c.par[ci]),
            );
        }
        for (mi, k) in MIN_SUPS.iter().enumerate() {
            let best = |c: &Cycle| c.seq.iter().map(|s| s[mi]).fold(f64::INFINITY, f64::min);
            m.set(
                format!("session.planner_regret.m{k}"),
                self.median(|c| c.planner[mi] / best(c)),
            );
            m.set(
                format!("paper.cells.m{k}"),
                self.median(|c| c.cells[mi] as f64),
            );
        }
        m.set("engine.tasks", self.median(|c| c.tasks as f64));
        m.set("engine.splits", self.median(|c| c.splits as f64));
        m.set("engine.steals", self.median(|c| c.steals as f64));
        m.set(
            "engine.peak_buffered_frac",
            self.median(|c| c.peak_buffered_frac),
        );
    }

    fn median(&self, f: impl Fn(&Cycle) -> f64) -> f64 {
        median(&self.cycles.iter().map(f).collect::<Vec<_>>())
    }
}

/// `core.*` probes on `table`'s dimension 0: counting-sort partition cost
/// and `ClosedInfo::for_group` cost over each resulting group, in ns per
/// tuple (medians of repeated passes).
pub fn core_probes(table: &Table, m: &mut Metrics) {
    const REPS: usize = 15;
    let rows = table.rows() as f64;
    let mut partitioner = Partitioner::new();
    let mut tids = table.all_tids();
    let mut groups: Vec<Group> = Vec::new();
    let mut part_ns = Vec::with_capacity(REPS);
    let mut group_ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        tids.copy_from_slice(&table.all_tids());
        groups.clear();
        let t = Instant::now();
        partitioner.partition_col(table.col(0), table.card(0), &mut tids, &mut groups);
        part_ns.push(t.elapsed().as_nanos() as f64 / rows);
        let t = Instant::now();
        for g in &groups {
            black_box(ClosedInfo::for_group(table, &tids[g.range()]));
        }
        group_ns.push(t.elapsed().as_nanos() as f64 / rows);
    }
    m.set("core.partition_ns_per_tuple", median(&part_ns));
    m.set("core.for_group_ns_per_tuple", median(&group_ns));
}
