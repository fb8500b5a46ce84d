//! `serve`: `Server::start` on a 10K-tuple table, driven by a closed loop of
//! two `ResilientClient`s on their own connections.
//!
//! Requests use the planner default and cycle min_sup over {4, 8, 16}. The
//! four shapes are the full cube, one dimension projected away, a dice on
//! dimension 0 with a 5-value set drawn from the seed, and the full cube on
//! two engine threads. Every reply's streamed cell count must equal
//! `Done.cells`, repeats of a request must stream the same answer, and after
//! the load phase every distinct request must match the in-process
//! `CubeSession` answer.

use crate::cube::{core_probes, mix, Digest};
use crate::report::{self, Metrics, Tally};
use crate::stats::{block_rates, median, percentile_of};
use crate::trace::{self_times, Tracer};
use crate::Workload;
use c_cubing::prelude::*;
use ccube_serve::{Client, DoneStats, QueryRequest, ResilientClient, Server, ServerConfig};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

const TABLE: &str = "bench";
const CLIENTS: u64 = 2;
const MIN_SUPS: [u64; 3] = [4, 8, 16];
const DICE_VALUES: usize = 5;
/// Set-up rounds before the load, and again after it.
const SETUP_ROUNDS: u64 = 2;
/// Servers started one after another in a round, then shut down together,
/// so a round pays for one drain rather than one per server.
const SERVERS_PER_ROUND: u64 = 8;
/// Passes of the in-process twin over the distinct requests.
const INPROC_PASSES: usize = 3;
/// Load-phase window over which one peak-memory sample is taken.
const RSS_WINDOW: Duration = Duration::from_secs(3);
/// Completed queries per throughput block.
const BLOCK: usize = 32;

/// One served query as the client saw it.
struct Reply {
    req: QueryRequest,
    client_ms: f64,
    first_batch_ms: f64,
    done: Option<DoneStats>,
    digest: Digest,
    /// When the reply ended.
    end: Instant,
    /// Streamed cells equal `Done.cells`.
    complete: bool,
}

/// The `k`-th request of client `client`.
fn request(seed: u64, client: u64, k: u64, dims: usize, card: u32) -> QueryRequest {
    let mut q = QueryRequest::new(TABLE, MIN_SUPS[(k / 4 % 3) as usize]);
    match k % 4 {
        0 => {}
        1 => {
            let dropped = (k / 12) % dims as u64;
            q.dims = Some(DimMask::all(dims).0 & !(1 << dropped));
        }
        2 => {
            let mut rng = mix(seed ^ mix(client << 32 | k));
            let mut values = Vec::with_capacity(DICE_VALUES);
            while values.len() < DICE_VALUES {
                rng = mix(rng);
                let v = (rng % u64::from(card)) as u32;
                if !values.contains(&v) {
                    values.push(v);
                }
            }
            values.sort_unstable();
            q.selections = vec![(0, values)];
        }
        _ => q.threads = 2,
    }
    q
}

/// The in-process twin of a served request (the server's own mapping of
/// `QueryRequest` onto the session builder, minus its limits).
fn run_inproc(session: &mut CubeSession, req: &QueryRequest) -> Result<Digest, CubeError> {
    let mut query = session.query().min_sup(req.min_sup);
    if let Some(mask) = req.dims {
        query = query.dims(DimMask(mask));
    }
    for (dim, values) in &req.selections {
        query = query.dice(*dim as usize, values);
    }
    if req.threads > 0 {
        query = query.threads(req.threads as usize);
    }
    let mut digest = Digest::default();
    query.run(&mut digest)?;
    Ok(digest)
}

/// Set-up samples: `Server::start` in seconds, and the first `Tables`
/// reply after it in ms.
#[derive(Default)]
struct Setups {
    start_s: Vec<f64>,
    first_reply_ms: Vec<f64>,
}

/// Set-up: `Server::start` over `table`, then a first `Tables` request that
/// must list the table. Whether the new accept thread first polls before or
/// after the client connects splits the reply into two modes 2 ms apart (the
/// accept loop sleeps 2 ms when idle), with shares that differ from run to
/// run, so the reply is timed apart from `Server::start`.
fn start_server(
    table: &Table,
    op: u64,
    tracer: &Tracer,
    setups: &mut Setups,
) -> Result<Server, String> {
    let tables = vec![(TABLE.to_string(), table.clone())];
    let (server, took) = tracer.timed("serve.start", op, 0, |_| {
        Server::start(tables, ServerConfig::default())
    });
    setups.start_s.push(took.as_secs_f64());
    let server = server.map_err(|e| e.to_string())?;
    let (listed, took) = tracer.timed("serve.first_reply", op, 0, |_| {
        Client::connect(server.addr()).and_then(|mut c| c.tables())
    });
    setups.first_reply_ms.push(took.as_secs_f64() * 1e3);
    let listed = listed.map_err(|e| e.to_string())?;
    if listed.len() != 1 || listed[0].rows != table.rows() as u64 {
        return Err(format!("unexpected table list {listed:?}"));
    }
    Ok(server)
}

/// One round of set-ups: [`SERVERS_PER_ROUND`] servers started one after
/// another, all left running.
fn set_up_round(
    table: &Table,
    round: u64,
    tracer: &Tracer,
    setups: &mut Setups,
) -> Result<Vec<Server>, String> {
    (0..SERVERS_PER_ROUND)
        .map(|i| start_server(table, round * SERVERS_PER_ROUND + i, tracer, setups))
        .collect()
}

/// Shut `servers` down concurrently and wait for all of them.
fn shut_down(servers: Vec<Server>) {
    std::thread::scope(|s| {
        for server in servers {
            s.spawn(move || server.shutdown());
        }
    });
}

/// Drive one client until `deadline`, returning its replies.
fn client_loop(
    seed: u64,
    client: u64,
    server: &Server,
    table: &Table,
    deadline: Instant,
    tracer: &Tracer,
) -> (Vec<Reply>, ccube_serve::ResilienceStats) {
    let mut conn = ResilientClient::new(server.addr());
    let mut replies = Vec::new();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let req = request(seed, client, k, table.dims(), table.card(0));
        let op = client << 40 | k;
        let mut digest = Digest::default();
        let mut streamed = 0u64;
        let mut first: Option<Instant> = None;
        let start = Instant::now();
        let (done, took) = tracer.timed("serve.request", op, 0, |span| {
            let done = conn.query_with(&req, |block| {
                first.get_or_insert_with(Instant::now);
                streamed += block.len() as u64;
                for (cell, count) in block.iter() {
                    digest.add(cell, count);
                }
            });
            if let Ok(d) = &done {
                // The server's admission-to-Done interval, placed so it ends
                // when Done arrived: what is left of the request span is
                // network, client decode and TCP send delays.
                let end = Instant::now();
                let server = Duration::from_micros(d.elapsed_micros);
                tracer.record("serve.server", op, span, end - server.min(end - start), end);
            }
            done
        });
        if let Err(e) = &done {
            eprintln!("serve request {req:?}: {e}");
        }
        let done = done.ok();
        replies.push(Reply {
            complete: done.is_some_and(|d| d.cells == streamed),
            client_ms: took.as_secs_f64() * 1e3,
            first_batch_ms: first.map_or(0.0, |t| (t - start).as_secs_f64() * 1e3),
            done,
            digest,
            end: Instant::now(),
            req,
        });
        k += 1;
    }
    (replies, conn.stats())
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Workload, String> {
    let table = SyntheticSpec::uniform(10_000, 6, 40, 1.0, seed).generate();
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    // Set-up, timed in rounds before and again after the load phase so its
    // median spans the run; the last server started before the load carries
    // it.
    let mut setups = Setups::default();
    let mut server = None;
    for r in 0..SETUP_ROUNDS {
        let mut round = set_up_round(&table, r, tracer, &mut setups)?;
        if r + 1 == SETUP_ROUNDS {
            server = round.pop();
        }
        shut_down(round);
    }
    let server = server.expect("at least one set-up");

    // Load phase: a closed loop per client.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut window_rss_mb = Vec::new();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (server, table) = (&server, &table);
                s.spawn(move || client_loop(seed, c, server, table, deadline, tracer))
            })
            .collect();
        // Peak memory per window of the load: how much freed memory the
        // server's and engine's thread arenas still hold varies, and the
        // median over windows does not hang on the unluckiest moment.
        loop {
            report::reset_peak_rss();
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(RSS_WINDOW));
            window_rss_mb.push(report::peak_rss_mb());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let phase = start.elapsed().as_secs_f64();
    m.set("peak_rss_mb", median(&window_rss_mb));
    let gate = server.metrics().gate;
    if !server.shutdown().drained {
        tally.fail_check("server did not drain on shutdown");
    }
    for r in SETUP_ROUNDS..2 * SETUP_ROUNDS {
        shut_down(set_up_round(&table, r, tracer, &mut setups)?);
    }
    m.set("setup_s", median(&setups.start_s));
    m.set("serve.first_reply_ms.p50", median(&setups.first_reply_ms));

    let mut replies = Vec::new();
    let (mut retried, mut resumed, mut overloaded) = (0, 0, 0);
    for (r, stats) in per_client {
        replies.extend(r);
        retried += stats.retried;
        resumed += stats.resumed;
        overloaded += stats.overloaded;
    }

    // Per-reply checks: complete stream, and repeats stream the same answer.
    let mut first_answer: HashMap<&QueryRequest, Digest> = HashMap::new();
    for r in &replies {
        let consistent = *first_answer.entry(&r.req).or_insert(r.digest) == r.digest;
        tally.op(r.done.is_some() && r.complete && consistent);
    }

    // In-process twin of every distinct request, after the load phase.
    let (session, took) = tracer.timed("session.new", 0, 0, |_| CubeSession::new(table.clone()));
    let mut session = session.map_err(|e| e.to_string())?;
    m.set("session.new_ms", took.as_secs_f64() * 1e3);
    let cache0 = session.cache_stats();
    // Each request runs in INPROC_PASSES passes and keeps its median time,
    // so a slow spell during one pass does not set the comparison.
    let distinct: Vec<(&QueryRequest, Digest)> =
        first_answer.iter().map(|(&r, &d)| (r, d)).collect();
    let mut samples = vec![Vec::new(); distinct.len()];
    for _ in 0..INPROC_PASSES {
        for (i, &(req, served)) in distinct.iter().enumerate() {
            let (answer, took) = tracer.timed("serve.inproc", i as u64, 0, |_| {
                run_inproc(&mut session, req)
            });
            samples[i].push(took.as_secs_f64() * 1e3);
            match answer {
                Ok(d) if d == served => {}
                Ok(d) => tally.fail_check(&format!("{req:?}: served {served:?}, in-process {d:?}")),
                Err(e) => tally.fail_check(&format!("{req:?}: in-process {e}")),
            }
        }
    }
    let inproc_ms: HashMap<&QueryRequest, f64> = distinct
        .iter()
        .zip(&samples)
        .map(|(&(req, _), s)| (req, median(s)))
        .collect();

    let done: Vec<(&Reply, DoneStats)> = replies
        .iter()
        .filter_map(|r| r.done.map(|d| (r, d)))
        .collect();
    let client_ms: Vec<f64> = done.iter().map(|(r, _)| r.client_ms).collect();
    let server_ms: Vec<f64> = done
        .iter()
        .map(|(_, d)| d.elapsed_micros as f64 / 1e3)
        .collect();
    // Throughput: the gaps between consecutive completions, in blocks.
    let mut ends: Vec<Instant> = done.iter().map(|(r, _)| r.end).collect();
    ends.sort_unstable();
    let gaps: Vec<f64> = std::iter::once(start)
        .chain(ends.iter().copied())
        .zip(&ends)
        .map(|(a, &b)| (b - a).as_secs_f64())
        .collect();
    let rates = block_rates(&gaps, BLOCK, 1.0);
    if rates.is_empty() {
        return Err(format!("too few queries ({}) for ops_per_s", done.len()));
    }
    m.set("ops_per_s", median(&rates));
    m.set("op_p50_ms", percentile_of(&client_ms, 0.5, "op_p50_ms")?);

    if tracer.on() {
        m.set("op_p95_ms", percentile_of(&client_ms, 0.95, "op_p95_ms")?);
        m.set(
            "serve.client_ms.p50",
            percentile_of(&client_ms, 0.5, "client p50")?,
        );
        m.set(
            "serve.client_ms.p95",
            percentile_of(&client_ms, 0.95, "client p95")?,
        );
        m.set(
            "serve.server_ms.p50",
            percentile_of(&server_ms, 0.5, "server p50")?,
        );
        m.set(
            "serve.server_ms.p95",
            percentile_of(&server_ms, 0.95, "server p95")?,
        );
        // Wire time is the self time of each completed request span.
        let spans = tracer.spans();
        let answered: HashSet<u64> = spans.iter().map(|s| s.parent).collect();
        let wire_ms: Vec<f64> = spans
            .iter()
            .zip(self_times(&spans))
            .filter(|(s, _)| s.name == "serve.request" && answered.contains(&s.id))
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect();
        m.set(
            "serve.wire_ms.p50",
            percentile_of(&wire_ms, 0.5, "wire p50")?,
        );
        m.set(
            "serve.wire_ms.p95",
            percentile_of(&wire_ms, 0.95, "wire p95")?,
        );
        let first: Vec<f64> = done.iter().map(|(r, _)| r.first_batch_ms).collect();
        m.set(
            "serve.first_batch_ms.p50",
            percentile_of(&first, 0.5, "first batch p50")?,
        );
        let inproc: Vec<f64> = done.iter().map(|(r, _)| inproc_ms[&r.req]).collect();
        let overhead: Vec<f64> = server_ms.iter().zip(&inproc).map(|(s, i)| s - i).collect();
        m.set(
            "serve.inproc_ms.p50",
            percentile_of(&inproc, 0.5, "inproc p50")?,
        );
        m.set(
            "serve.overhead_ms.p50",
            percentile_of(&overhead, 0.5, "overhead p50")?,
        );
        m.set("serve.admitted", gate.admitted as f64);
        m.set(
            "serve.shed",
            (gate.shed_queue_full + gate.shed_timeout + gate.shed_draining) as f64,
        );
        m.set("serve.peak_running", gate.peak_running as f64);
        m.set("serve.retried", retried as f64);
        m.set("serve.resumed", resumed as f64);
        m.set("serve.overloaded", overloaded as f64);
        let n = done.len().max(1) as f64;
        let fast = done.iter().filter(|(_, d)| d.fast_path).count() as f64;
        m.set("serve.fast_path_share", fast / n);
        m.set(
            "serve.tasks_mean",
            done.iter().map(|(_, d)| d.tasks as f64).sum::<f64>() / n,
        );
        let peak = done.iter().map(|(_, d)| d.peak_buffered_bytes).max();
        m.set("serve.peak_buffered_bytes_max", peak.unwrap_or(0) as f64);
        m.set(
            "serve.repeat_share",
            1.0 - first_answer.len() as f64 / replies.len().max(1) as f64,
        );
        core_probes(&table, &mut m);
    }
    crate::add_cache_deltas(&mut m, cache0, session.cache_stats());

    Ok(Workload {
        tally,
        metrics: m,
        phase_secs: phase,
        summary: format!(
            "{} queries ({} distinct) by {CLIENTS} clients in {phase:.2} s",
            replies.len(),
            first_answer.len()
        ),
    })
}
