//! # c-cubing — closed iceberg cubes by aggregation-based checking
//!
//! A from-scratch Rust implementation of *C-Cubing: Efficient Computation of
//! Closed Cubes by Aggregation-Based Checking* (Xin, Shao, Han, Liu;
//! ICDE 2006), including every substrate the paper builds on:
//!
//! * the closedness measure — `(Closed Mask, Representative Tuple ID)` —
//!   that turns closedness into an algebraic aggregate
//!   ([`ccube_core::closedness`]);
//! * the three C-Cubing algorithms: [`Algorithm::CCubingMm`],
//!   [`Algorithm::CCubingStar`], [`Algorithm::CCubingStarArray`];
//! * their host iceberg cubers MM-Cubing, Star-Cubing and StarArray, plus
//!   the BUC and QC-DFS baselines;
//! * data generators matching the paper's experiments (Zipf skew,
//!   dependence rules, a weather-dataset surrogate);
//! * closed-rule mining and lossless recovery queries (Section 6.2).
//!
//! ## Quickstart
//!
//! The intended entry point is a [`CubeSession`]: it owns the fact table,
//! caches per-table artifacts (column statistics, the first-dimension
//! partition, the StarArray tuple pool) across queries, and hands out
//! composable [`CubeQuery`] builders with a planner in front:
//!
//! ```
//! use c_cubing::prelude::*;
//!
//! // Table 1 of the paper: (A, B, C, D), measure count, min_sup = 2.
//! let table = TableBuilder::new(4)
//!     .row(&[0, 0, 0, 0]) // a1 b1 c1 d1
//!     .row(&[0, 0, 0, 2]) // a1 b1 c1 d3
//!     .row(&[0, 1, 1, 1]) // a1 b2 c2 d2
//!     .build()
//!     .unwrap();
//!
//! let mut session = CubeSession::new(table).unwrap();
//! let mut sink = CollectSink::default();
//! session.query().min_sup(2).run(&mut sink).unwrap();
//!
//! // Exactly the two closed iceberg cells from Example 1:
//! assert_eq!(sink.len(), 2);
//! assert_eq!(sink.counts()[&Cell::from_values(&[0, 0, 0, STAR])], 2);
//! assert_eq!(sink.counts()[&Cell::from_values(&[0, STAR, STAR, STAR])], 3);
//! ```
//!
//! [`CubeQuery::threads`] / [`CubeQuery::engine`] route a query through the
//! partition-parallel engine; every other knob (selection, projection,
//! measures, lifecycle limits) composes with it. Below the session sits one
//! **low-level path**, [`Algorithm::run_bound_with`]: a single explicit
//! (algorithm, table, threshold) call with no planner, no caching and no
//! lifecycle — the dispatch table the session and the engine's shard tasks
//! both call.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ccube_baselines as baselines;
pub use ccube_core as core;
pub use ccube_data as data;
pub use ccube_delta as delta;
pub use ccube_engine as engine;
pub use ccube_mm as mm;
pub use ccube_rules as rules;
pub use ccube_star as star;

pub use ccube_delta::{DeltaStats, MaterializedCube};
pub use ccube_engine::{EngineConfig, EngineStats};

mod session;

pub use session::{
    CacheStats, CellStream, CubeQuery, CubeSession, IngestStats, QueryHandle, QueryPlan,
    QueryStats, StreamPoll,
};

use ccube_core::measure::MeasureSpec;
use ccube_core::sink::CellSink;
use ccube_core::Table;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::{
        recommend, Algorithm, CacheStats, CellStream, CubeQuery, CubeSession, DeltaStats,
        EngineConfig, EngineStats, IngestStats, MaterializedCube, QueryHandle, QueryPlan,
        QueryStats, StreamPoll, TableStats,
    };
    pub use ccube_core::lifecycle::CancelToken;
    pub use ccube_core::measure::{AllColumns, ColumnStats, CountOnly, MeasureSpec};
    pub use ccube_core::order::DimOrdering;
    pub use ccube_core::sink::{
        CellBatch, CellSink, CollectSink, CountingSink, FnSink, NullSink, SizeSink, WriterSink,
    };
    pub use ccube_core::CubeError;
    pub use ccube_core::{Cell, ClosedInfo, DimMask, Table, TableBuilder, TupleId, STAR};
    pub use ccube_data::{RuleSet, SyntheticSpec, WeatherSpec};
    pub use ccube_rules::{mine_rules, ClosedCube};
}

/// All cubing algorithms in the workspace, runnable through one interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BUC (iceberg baseline).
    Buc,
    /// QC-DFS (closed baseline; raw-data-based checking).
    QcDfs,
    /// MM-Cubing (iceberg).
    Mm,
    /// C-Cubing(MM) — closed, aggregation-based checking.
    CCubingMm,
    /// Star-Cubing (iceberg).
    Star,
    /// C-Cubing(Star) — closed, with closed pruning.
    CCubingStar,
    /// StarArray (iceberg; multiway traversal).
    StarArray,
    /// C-Cubing(StarArray) — closed, with closed pruning.
    CCubingStarArray,
}

impl Algorithm {
    /// Every algorithm, in presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Buc,
        Algorithm::QcDfs,
        Algorithm::Mm,
        Algorithm::CCubingMm,
        Algorithm::Star,
        Algorithm::CCubingStar,
        Algorithm::StarArray,
        Algorithm::CCubingStarArray,
    ];

    /// The three C-Cubing variants (the paper's contribution).
    pub const C_CUBING: [Algorithm; 3] = [
        Algorithm::CCubingMm,
        Algorithm::CCubingStar,
        Algorithm::CCubingStarArray,
    ];

    /// Does this algorithm emit only closed cells?
    pub fn is_closed(self) -> bool {
        matches!(
            self,
            Algorithm::QcDfs
                | Algorithm::CCubingMm
                | Algorithm::CCubingStar
                | Algorithm::CCubingStarArray
        )
    }

    /// The variant of this algorithm's family with the requested closedness:
    /// each iceberg host maps to its aggregation-based-checking counterpart
    /// (MM ↔ CC(MM), Star ↔ CC(Star), StarArray ↔ CC(StarArray)) and the
    /// recursion-baseline pair maps BUC ↔ QC-DFS. This is how the query
    /// planner keeps `closed(bool)` orthogonal to `algorithm(a)`.
    pub fn with_closed(self, closed: bool) -> Algorithm {
        match (self, closed) {
            (Algorithm::Buc | Algorithm::QcDfs, true) => Algorithm::QcDfs,
            (Algorithm::Buc | Algorithm::QcDfs, false) => Algorithm::Buc,
            (Algorithm::Mm | Algorithm::CCubingMm, true) => Algorithm::CCubingMm,
            (Algorithm::Mm | Algorithm::CCubingMm, false) => Algorithm::Mm,
            (Algorithm::Star | Algorithm::CCubingStar, true) => Algorithm::CCubingStar,
            (Algorithm::Star | Algorithm::CCubingStar, false) => Algorithm::Star,
            (Algorithm::StarArray | Algorithm::CCubingStarArray, true) => {
                Algorithm::CCubingStarArray
            }
            (Algorithm::StarArray | Algorithm::CCubingStarArray, false) => Algorithm::StarArray,
        }
    }

    /// Short display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Buc => "BUC",
            Algorithm::QcDfs => "QC-DFS",
            Algorithm::Mm => "MM",
            Algorithm::CCubingMm => "CC(MM)",
            Algorithm::Star => "Star",
            Algorithm::CCubingStar => "CC(Star)",
            Algorithm::StarArray => "StarArray",
            Algorithm::CCubingStarArray => "CC(StarArray)",
        }
    }

    /// The single dispatch table of the facade: compute the (closed) iceberg
    /// cube of `table` at threshold `min_sup`, carrying the complex-measure
    /// accumulators of `spec` (Section 6.1) on every cell emitted into
    /// `sink`. No other match on `self` performs algorithm dispatch.
    ///
    /// `bound = 0` is the plain sequential run. With `bound > 0` the table's
    /// first `bound` group-by dimensions must be constant over the table (a
    /// shard of a first-dimension partition), and only the cells binding
    /// them are computed: the iceberg hosts dispatch to their dedicated
    /// `*_bound` entry points, skipping the starred-prefix cells entirely;
    /// the closed algorithms need no special entry point — a cell starring a
    /// constant dimension is non-closed and is never emitted — so they run
    /// unchanged. This is how the parallel engine runs each shard.
    ///
    /// This is the low-level path — no planner, caching, parallelism or
    /// lifecycle limits. [`CubeSession::query`] is the front door, and routes
    /// through the engine with [`CubeQuery::threads`]:
    ///
    /// ```
    /// use c_cubing::prelude::*;
    ///
    /// let table = TableBuilder::new(4)
    ///     .row(&[0, 0, 0, 0])
    ///     .row(&[0, 0, 0, 2])
    ///     .row(&[0, 1, 1, 1])
    ///     .build()
    ///     .unwrap();
    /// let mut seq = CollectSink::default();
    /// Algorithm::CCubingStar.run_bound_with(&table, 0, 2, &CountOnly, &mut seq);
    /// let mut par = CollectSink::default();
    /// let mut session = CubeSession::new(table).unwrap();
    /// let query = session.query().algorithm(Algorithm::CCubingStar).min_sup(2);
    /// query.threads(2).run(&mut par).unwrap();
    /// assert_eq!(par.counts(), seq.counts());
    /// ```
    pub fn run_bound_with<M, S>(
        self,
        table: &Table,
        bound: usize,
        min_sup: u64,
        spec: &M,
        sink: &mut S,
    ) where
        M: MeasureSpec,
        S: CellSink<M::Acc>,
    {
        match self {
            Algorithm::Buc => ccube_baselines::buc_bound_with(table, bound, min_sup, spec, sink),
            Algorithm::QcDfs => ccube_baselines::qc_dfs_with(table, min_sup, spec, sink),
            Algorithm::Mm => ccube_mm::mm_cube_bound_with(
                table,
                bound,
                min_sup,
                ccube_mm::MmConfig::default(),
                spec,
                sink,
            ),
            Algorithm::CCubingMm => ccube_mm::c_cubing_mm_with(
                table,
                min_sup,
                ccube_mm::MmConfig::default(),
                spec,
                sink,
            ),
            Algorithm::Star => ccube_star::star_cube_bound_with(table, bound, min_sup, spec, sink),
            Algorithm::CCubingStar => ccube_star::c_cubing_star_with(table, min_sup, spec, sink),
            Algorithm::StarArray => {
                ccube_star::star_array_cube_bound_with(table, bound, min_sup, spec, sink)
            }
            Algorithm::CCubingStarArray => {
                ccube_star::c_cubing_star_array_with(table, min_sup, spec, sink)
            }
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Algorithm, String> {
        match s.to_ascii_lowercase().as_str() {
            "buc" => Ok(Algorithm::Buc),
            "qcdfs" | "qc-dfs" => Ok(Algorithm::QcDfs),
            "mm" => Ok(Algorithm::Mm),
            "ccmm" | "cc(mm)" | "c-cubing(mm)" => Ok(Algorithm::CCubingMm),
            "star" => Ok(Algorithm::Star),
            "ccstar" | "cc(star)" | "c-cubing(star)" => Ok(Algorithm::CCubingStar),
            "stararray" => Ok(Algorithm::StarArray),
            "ccstararray" | "cc(stararray)" | "c-cubing(stararray)" => {
                Ok(Algorithm::CCubingStarArray)
            }
            other => Err(format!("unknown algorithm `{other}`")),
        }
    }
}

/// Measured per-table statistics feeding the [`recommend`] planner (and the
/// [`CubeSession`] cache): observed cardinalities and skew per dimension
/// plus an estimated data dependence, all derived from the actual data
/// rather than hand-filled (the fields are public, so a what-if advisory
/// can also fill them in by hand).
#[derive(Clone, Debug, PartialEq)]
pub struct TableStats {
    /// Number of tuples measured.
    pub tuples: u64,
    /// Observed distinct-value count per dimension (≤ the declared
    /// cardinality when values are sparse).
    pub cardinalities: Vec<u32>,
    /// Per-dimension skew estimate: `ln(max_freq / mean_freq) / ln(distinct)`
    /// — 0 for uniform dimensions, rising toward the Zipf exponent for
    /// power-law ones.
    pub skews: Vec<f64>,
    /// Estimated data dependence `R` (0 = independent): mean over adjacent
    /// dimension pairs of `-ln(observed distinct pairs / expected distinct
    /// pairs under independence)`, clamped to `[0, 4]`. Dependence shrinks
    /// the set of value combinations that actually occur, which is exactly
    /// what keeps closed pruning profitable (Figs 12–15).
    pub dependence: f64,
}

impl TableStats {
    /// Measure `table`: one frequency pass per dimension plus one hashed
    /// pair-counting pass per adjacent dimension pair (sampled at most
    /// [`TableStats::SAMPLE_ROWS`] rows). `O(rows × dims)` overall — this is
    /// the per-table setup a [`CubeSession`] pays once instead of per query.
    pub fn measure(table: &Table) -> TableStats {
        StatsState::new(table).stats()
    }

    /// Row cap for the dependence-estimation pair scans.
    pub const SAMPLE_ROWS: usize = 65_536;

    /// Representative dimension cardinality (median of the observed ones) —
    /// the Fig 5 / Fig 10 crossover input of [`recommend`].
    pub fn typical_cardinality(&self) -> u32 {
        let mut sorted = self.cardinalities.clone();
        sorted.sort_unstable();
        sorted.get(sorted.len() / 2).copied().unwrap_or(1)
    }

    /// Mean per-dimension skew estimate.
    pub fn mean_skew(&self) -> f64 {
        if self.skews.is_empty() {
            0.0
        } else {
            self.skews.iter().sum::<f64>() / self.skews.len() as f64
        }
    }

    /// Pick a sharding [`DimOrdering`](ccube_core::order::DimOrdering) for
    /// the parallel engine from these statistics, following Section 5.5:
    /// with skewed dimensions the entropy order beats plain cardinality
    /// (a high-cardinality but heavily skewed dimension partitions badly),
    /// while on near-uniform data the two orders coincide and the cheaper
    /// cardinality sort suffices. A [`CubeSession`] derives this once,
    /// caches the resulting permutation plus its level-0 partition, and
    /// hands both to the engine so warm queries skip the per-query scans.
    pub fn recommend_ordering(&self) -> ccube_core::order::DimOrdering {
        if self.mean_skew() > 0.05 {
            ccube_core::order::DimOrdering::EntropyDesc
        } else {
            ccube_core::order::DimOrdering::CardinalityDesc
        }
    }
}

/// The raw accumulators behind [`TableStats`], kept so a [`CubeSession`]
/// can **extend** its statistics over an appended batch instead of
/// re-scanning the whole table: per-dimension frequency vectors (grown as
/// new values appear) plus the sampled pair-distinct sets feeding the
/// dependence estimate. Because the dependence sample is a row prefix and
/// appends only add rows at the end, `extend` + [`StatsState::stats`] is
/// exactly equal to a cold [`TableStats::measure`] of the grown table.
#[derive(Clone, Debug)]
pub(crate) struct StatsState {
    rows: usize,
    freq: Vec<Vec<u64>>,
    pair_seen: Vec<ccube_core::fxhash::FxHashSet<u64>>,
    sampled: usize,
}

impl StatsState {
    /// Scan `table` from scratch (`O(rows × dims)`, the once-per-session
    /// setup cost).
    pub(crate) fn new(table: &Table) -> StatsState {
        let dims = table.dims();
        let pairs = if dims < 2 { 0 } else { (dims - 1).min(4) };
        let mut state = StatsState {
            rows: 0,
            freq: vec![Vec::new(); dims],
            pair_seen: vec![Default::default(); pairs],
            sampled: 0,
        };
        state.extend(table, 0);
        state
    }

    /// Fold rows `from_row..table.rows()` into the accumulators. `from_row`
    /// must be the row count of the previous scan (the session guarantees
    /// continuity).
    pub(crate) fn extend(&mut self, table: &Table, from_row: usize) {
        debug_assert_eq!(self.rows, from_row, "stats continuity broken");
        for (d, freq) in self.freq.iter_mut().enumerate() {
            let col = table.col(d);
            for t in from_row..table.rows() {
                let v = col.get(t) as usize;
                if v >= freq.len() {
                    freq.resize(v + 1, 0);
                }
                freq[v] += 1;
            }
        }
        for t in from_row..table.rows().min(TableStats::SAMPLE_ROWS) {
            for (d, seen) in self.pair_seen.iter_mut().enumerate() {
                let (a, b) = (table.col(d), table.col(d + 1));
                seen.insert((u64::from(a.get(t)) << 32) | u64::from(b.get(t)));
            }
        }
        self.sampled = table.rows().min(TableStats::SAMPLE_ROWS);
        self.rows = table.rows();
    }

    /// Derive the [`TableStats`] the accumulated state describes.
    pub(crate) fn stats(&self) -> TableStats {
        let n = self.rows;
        let mut cardinalities = Vec::with_capacity(self.freq.len());
        let mut skews = Vec::with_capacity(self.freq.len());
        for freq in &self.freq {
            let distinct = freq.iter().filter(|&&f| f > 0).count().max(1) as u32;
            let max_f = freq.iter().copied().max().unwrap_or(0).max(1) as f64;
            let mean_f = (n as f64 / distinct as f64).max(1.0);
            let skew = if distinct > 1 {
                (max_f / mean_f).ln() / (distinct as f64).ln()
            } else {
                0.0
            };
            cardinalities.push(distinct);
            skews.push(skew.max(0.0));
        }
        TableStats {
            tuples: n as u64,
            dependence: self.dependence(&cardinalities),
            cardinalities,
            skews,
        }
    }

    fn dependence(&self, cards: &[u32]) -> f64 {
        if self.rows < 2 || self.pair_seen.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (d, seen) in self.pair_seen.iter().enumerate() {
            // Expected distinct pairs under independence, capped by both the
            // domain size and the sample size (the occupancy approximation
            // `m(1 - e^{-n/m})` of the coupon-collector curve).
            let m = (cards[d] as f64) * (cards[d + 1] as f64);
            let expected = (m * (1.0 - (-(self.sampled as f64) / m).exp())).max(1.0);
            let ratio = (seen.len() as f64 / expected).clamp(1e-6, 1.0);
            total += -ratio.ln();
        }
        (total / self.pair_seen.len() as f64).clamp(0.0, 4.0)
    }
}

/// A cell of the planner's choice table: the bands that a table's
/// statistics and an iceberg threshold fall in. Each band edge sits at the
/// geometric midpoint between two adjacent levels of the `exp -- plan-grid`
/// training grid — cardinality 10 / 100 / 1000, the measured skew of Zipf 0
/// and Zipf 1.5 data, and min_sup 1 / 8 / 64 — so every training level lies
/// mid-band. Tuples, dims and dependence are not keys: on the grid a split
/// on measured dependence changes no bucket's winner, and splits on tuples
/// or dims change only skewed low-cardinality buckets, each on four points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanBucket {
    /// Typical-cardinality band: 0 (≤ 31), 1 (≤ 316) or 2 (larger).
    pub cardinality: usize,
    /// Whether the mean skew is at least 0.35.
    pub skewed: bool,
    /// Threshold band: 0 (min_sup ≤ 2), 1 (≤ 22) or 2 (larger).
    pub min_sup: usize,
}

impl PlanBucket {
    const CARDINALITY_EDGES: [u32; 2] = [31, 316];
    const SKEW_EDGE: f64 = 0.35;
    const MIN_SUP_EDGES: [u64; 2] = [2, 22];

    /// The bucket of `stats` at `min_sup`. Total: empty or degenerate
    /// statistics land in the lowest bands.
    pub fn of(stats: &TableStats, min_sup: u64) -> PlanBucket {
        let card = stats.typical_cardinality();
        PlanBucket {
            cardinality: Self::CARDINALITY_EDGES
                .iter()
                .filter(|&&e| card > e)
                .count(),
            skewed: stats.mean_skew() >= Self::SKEW_EDGE,
            min_sup: Self::MIN_SUP_EDGES.iter().filter(|&&e| min_sup > e).count(),
        }
    }
}

impl std::fmt::Display for PlanBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [c0, c1] = Self::CARDINALITY_EDGES;
        let [m0, m1] = Self::MIN_SUP_EDGES;
        let card = match self.cardinality {
            0 => format!("C≤{c0}"),
            1 => format!("C≤{c1}"),
            _ => format!("C>{c1}"),
        };
        let skew = if self.skewed { "skewed" } else { "flat" };
        let min_sup = match self.min_sup {
            0 => format!("M≤{m0}"),
            1 => format!("M≤{m1}"),
            _ => format!("M>{m1}"),
        };
        write!(f, "{card} {skew} {min_sup}")
    }
}

/// The planner's choice table, `[cardinality][skewed][min_sup]` in
/// [`PlanBucket`] bands: the measured-fastest closed cuber per bucket, as
/// fitted and printed by `exp -- plan-grid` (per-point times and the
/// held-out regret are in `BENCH_plan.json`). A bucket names a cuber other
/// than QC-DFS, the fastest over the whole grid, only where that cuber was
/// at least 10% faster over the bucket's training points. CC(MM) never won
/// a grid point by more than noise and is not a candidate.
const CHOICE: [[[Algorithm; 3]; 2]; 3] = {
    use Algorithm::{CCubingStar, CCubingStarArray, QcDfs};
    [
        // C≤31: flat, then skewed; each M≤2, M≤22, M>22.
        [
            [QcDfs, QcDfs, QcDfs],
            [CCubingStar, QcDfs, CCubingStarArray],
        ],
        // C≤316
        [[QcDfs, QcDfs, QcDfs], [QcDfs, QcDfs, QcDfs]],
        // C>316
        [[QcDfs, QcDfs, QcDfs], [CCubingStarArray, QcDfs, QcDfs]],
    ]
};

/// Pick a closed cubing algorithm for measured table statistics and an
/// iceberg threshold: the measured-fastest closed cuber of the
/// [`PlanBucket`] they fall in, read from a choice table fitted on the
/// `exp -- plan-grid` grid (see `BENCH_plan.json` and the README's
/// "Planner" section).
///
/// The paper's Fig 15 decision surface — the Star family at low min_sup,
/// C-Cubing(MM) past a dependence-driven switching point — does not hold
/// on this implementation: QC-DFS is the fastest closed cuber on most of
/// the grid, so the table answers QC-DFS except where measurements say
/// otherwise: at min_sup ≤ 2, CC(StarArray) on skewed high-cardinality
/// tables and CC(Star) on skewed low-cardinality ones; at min_sup > 22,
/// CC(StarArray) on skewed low-cardinality tables.
///
/// `stats` is normally [`TableStats::measure`]d from the real table (a
/// [`CubeSession`] caches it and auto-plans with it), or filled in by hand
/// for a what-if advisory. Total: any statistics, including empty ones,
/// map to a closed algorithm.
pub fn recommend(stats: &TableStats, min_sup: u64) -> Algorithm {
    let b = PlanBucket::of(stats, min_sup);
    CHOICE[b.cardinality][usize::from(b.skewed)][b.min_sup]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_core::measure::CountOnly;
    use ccube_core::sink::CollectSink;
    use ccube_core::TableBuilder;

    #[test]
    fn dispatch_runs_every_algorithm() {
        let t = TableBuilder::new(3)
            .row(&[0, 0, 0])
            .row(&[0, 1, 0])
            .row(&[1, 1, 1])
            .build()
            .unwrap();
        for algo in Algorithm::ALL {
            let mut sink = CollectSink::default();
            algo.run_bound_with(&t, 0, 1, &CountOnly, &mut sink);
            assert!(!sink.is_empty(), "{algo} produced no cells");
            assert_eq!(sink.duplicates, 0, "{algo} duplicated cells");
        }
    }

    #[test]
    fn closed_flags() {
        assert!(Algorithm::CCubingStar.is_closed());
        assert!(Algorithm::QcDfs.is_closed());
        assert!(!Algorithm::Buc.is_closed());
        assert!(!Algorithm::StarArray.is_closed());
    }

    #[test]
    fn parse_names() {
        assert_eq!(
            "cc(star)".parse::<Algorithm>().unwrap(),
            Algorithm::CCubingStar
        );
        assert_eq!("BUC".parse::<Algorithm>().unwrap(), Algorithm::Buc);
        assert!("nope".parse::<Algorithm>().is_err());
    }

    /// Hand-built statistics with the measured summary of a table shape.
    fn shape(tuples: u64, dims: usize, card: u32, skew: f64, dependence: f64) -> TableStats {
        TableStats {
            tuples,
            cardinalities: vec![card; dims],
            skews: vec![skew; dims],
            dependence,
        }
    }

    #[test]
    fn recommend_maps_held_out_benchmark_shapes_to_their_grid_winner() {
        // Measured summaries of the held-out plan-grid points (BENCH_plan.json)
        // that share the repository benchmark's table shapes.
        // Served table: T=10K, D=6, C=40, Zipf 1, at min_sup 4, 8 and 16.
        let served = shape(10_000, 6, 40, 0.605, 0.266);
        for m in [4, 8, 16] {
            assert_eq!(recommend(&served, m), Algorithm::QcDfs, "served M={m}");
        }
        // In-process cube table: T=50K, D=8, C=100, Zipf 1, min_sup 1 and 8.
        let cube = shape(50_000, 8, 100, 0.643, 0.447);
        for m in [1, 8] {
            assert_eq!(recommend(&cube, m), Algorithm::QcDfs, "cube M={m}");
        }
        // Skewed ingest table: T=100K, D=6, C=1000 (925 observed), Zipf 1.5,
        // dependent; its full-threshold slice(0, 0) runs CC(StarArray).
        let ingest = shape(100_000, 6, 925, 0.863, 2.167);
        assert_eq!(recommend(&ingest, 1), Algorithm::CCubingStarArray);
    }

    #[test]
    fn recommend_is_total_and_closed() {
        let edge = [
            TableStats {
                tuples: 0,
                cardinalities: vec![],
                skews: vec![],
                dependence: 0.0,
            },
            shape(1, 1, 1, 0.0, 0.0),
            shape(1_000_000, 1, u32::MAX, f64::NAN, f64::INFINITY),
            shape(7, 3, 2, 10.0, 4.0),
        ];
        for stats in &edge {
            for m in [0, 1, 2, 3, 22, 23, 1 << 20, u64::MAX] {
                let algo = recommend(stats, m);
                assert!(algo.is_closed(), "{algo} for {stats:?} at {m}");
            }
        }
        // Empty statistics land in the lowest bands.
        let empty = PlanBucket::of(&edge[0], 1);
        assert_eq!(
            (empty.cardinality, empty.skewed, empty.min_sup),
            (0, false, 0)
        );
        // Every bucket of the choice table names a closed cuber.
        assert!(CHOICE.iter().flatten().flatten().all(|a| a.is_closed()));
    }

    #[test]
    fn with_closed_maps_within_families() {
        for algo in Algorithm::ALL {
            assert!(algo.with_closed(true).is_closed(), "{algo}");
            assert!(!algo.with_closed(false).is_closed(), "{algo}");
            // Idempotent within the family.
            assert_eq!(algo.with_closed(algo.is_closed()), algo, "{algo}");
        }
        assert_eq!(Algorithm::Buc.with_closed(true), Algorithm::QcDfs);
        assert_eq!(Algorithm::CCubingStar.with_closed(false), Algorithm::Star);
    }

    #[test]
    fn measured_stats_follow_the_data() {
        use ccube_data::{RuleSet, SyntheticSpec};
        // Uniform independent data: near-zero skew and dependence.
        let flat = SyntheticSpec::uniform(4000, 4, 20, 0.0, 5).generate();
        let s = TableStats::measure(&flat);
        assert_eq!(s.tuples, 4000);
        assert!(s.cardinalities.iter().all(|&c| c <= 20));
        assert!(s.mean_skew() < 0.25, "uniform skew {}", s.mean_skew());
        assert!(s.dependence < 0.5, "independent dep {}", s.dependence);
        // Skewed data: higher measured skew.
        let skewed = SyntheticSpec::uniform(4000, 4, 20, 2.0, 5).generate();
        let sk = TableStats::measure(&skewed);
        assert!(sk.mean_skew() > s.mean_skew());
        // Rule-dependent data: higher measured dependence.
        let cards = vec![20u32; 4];
        let dep = SyntheticSpec {
            tuples: 4000,
            cards: cards.clone(),
            skews: vec![0.0; 4],
            seed: 5,
            rules: Some(RuleSet::with_dependence(&cards, 3.0, 9)),
        }
        .generate();
        let sd = TableStats::measure(&dep);
        assert!(
            sd.dependence > s.dependence,
            "dependent {} vs independent {}",
            sd.dependence,
            s.dependence
        );
    }
}
