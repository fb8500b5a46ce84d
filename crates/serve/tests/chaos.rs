//! Chaos-under-load: injected faults at the wire sites and in the engine
//! while dozens of concurrent clients hammer the server. The server may
//! shed, fail queries, or drop individual connections — but only in typed
//! ways: every query ends in `Done`/`Overloaded`/`Error` or a visible
//! disconnect, no client ever hangs, and after shutdown no thread is
//! leaked.
//!
//! Compiled only under `--cfg ccube_chaos` and armed only when the
//! `CCUBE_CHAOS` environment variable is `1`:
//!
//! ```text
//! RUSTFLAGS="--cfg ccube_chaos" CCUBE_CHAOS=1 \
//!     cargo test -p ccube-serve --test chaos
//! ```

#![cfg(ccube_chaos)]

use c_cubing::prelude::*;
use ccube_core::faults::{FaultAction, FaultPlan, FaultScope};
use ccube_serve::{
    AdmissionConfig, Client, ClientConfig, ClientError, QueryOutcome, QueryRequest,
    ResilientClient, RetryPolicy, Server, ServerConfig, WireStatus,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const CLIENTS: usize = 64;
const QUERIES_PER_CLIENT: usize = 2;

/// Thread-leak accounting is process-global, so the tests in this file
/// must not overlap each other (they may still overlap other test
/// binaries, which have their own processes).
static SERIAL: Mutex<()> = Mutex::new(());

fn armed() -> bool {
    std::env::var("CCUBE_CHAOS").is_ok_and(|v| v == "1")
}

/// The tests in this file, by name. libtest runs each test on a thread
/// named after it.
fn test_names() -> Vec<&'static str> {
    include_str!("chaos.rs")
        .split("#[test]\nfn ")
        .skip(1)
        .filter_map(|rest| rest.split('(').next())
        .collect()
}

/// A thread name as the kernel keeps it (`comm`, at most 15 bytes).
fn comm(name: &str) -> &str {
    &name[..name.len().min(15)]
}

/// Live threads of this process (Linux), for leak accounting, minus the
/// harness threads of the *other* tests in this file: libtest may already
/// have spawned the next test's thread, blocked on `SERIAL`, between a
/// baseline and its check. Everything else counts exactly. An unnamed
/// thread carries its creator's name, so threads spawned by the running
/// test, the server or the engine are never mistaken for the harness.
fn thread_count() -> usize {
    let current = std::thread::current();
    let own = comm(current.name().unwrap_or(""));
    let harness: Vec<&str> = test_names()
        .into_iter()
        .map(comm)
        .filter(|name| *name != own)
        .collect();
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        // A thread that exited mid-scan has no `comm` left: it is not live.
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| !harness.contains(&name.trim_end_matches('\n')))
        .count()
}

/// Wait for the process thread count to settle back to (at most) the
/// baseline. Detached OS teardown can lag the `join` by a moment, so poll
/// briefly before declaring a leak.
fn assert_no_leaked_threads(baseline: usize, context: &str) {
    let mut count = 0;
    for _ in 0..200 {
        count = thread_count();
        if count <= baseline {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{context}: {count} threads alive, baseline {baseline} — leak");
}

fn chaos_table() -> Table {
    SyntheticSpec::uniform(800, 4, 6, 1.0, 11).generate()
}

fn chaos_server() -> Server {
    let config = ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 4,
            max_queued: 8,
            max_queue_wait: Duration::from_millis(250),
            ..AdmissionConfig::default()
        },
        drain_deadline: Duration::from_secs(3),
        ..ServerConfig::default()
    };
    Server::start(vec![("synth".to_string(), chaos_table())], config).expect("server starts")
}

#[derive(Default)]
struct Tally {
    done: AtomicU64,
    overloaded: AtomicU64,
    typed_errors: AtomicU64,
    disconnects: AtomicU64,
}

/// Run `CLIENTS` concurrent clients against `server`, classifying every
/// query outcome. Panics on the two forbidden outcomes: a wedged exchange
/// (client i/o timeout) or an untyped frame.
fn hammer(server: &Server, tally: &Tally) {
    let addr = server.addr();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let tally = &*tally;
            scope.spawn(move || {
                // A wedged server turns into a visible TimedOut here.
                let mut client = match Client::connect_with(addr, Duration::from_secs(10)) {
                    Ok(client) => client,
                    Err(_) => {
                        // Accept-fault window: connection refused/reset is a
                        // visible, typed-at-the-socket outcome.
                        tally.disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                for q in 0..QUERIES_PER_CLIENT {
                    // Mix shapes: sequential and engine-parallel queries.
                    let mut req = QueryRequest::new("synth", 1 + ((c + q) % 3) as u64);
                    if c % 2 == 0 {
                        req.threads = 2;
                    }
                    match client.query(&req) {
                        Ok(QueryOutcome::Done(_)) => {
                            tally.done.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(QueryOutcome::Overloaded { .. }) => {
                            tally.overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(QueryOutcome::ServerError { status, detail }) => {
                            assert!(
                                matches!(
                                    status,
                                    WireStatus::Cancelled
                                        | WireStatus::DeadlineExceeded
                                        | WireStatus::BudgetExceeded
                                        | WireStatus::WorkerPanicked
                                        | WireStatus::ShuttingDown
                                        | WireStatus::Internal
                                        | WireStatus::Wedged
                                ),
                                "untyped failure {status:?}: {detail}"
                            );
                            tally.typed_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Timeout(phase)) => {
                            panic!("client {c} query {q} wedged: {phase} timed out");
                        }
                        Err(_) => {
                            // Connection-layer fault killed this connection;
                            // that's an allowed, visible outcome — stop using
                            // the dead connection.
                            tally.disconnects.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// The chaos matrix: one injected fault per scenario, firing while the
/// 64-client load is in flight. Covers the wire sites (accept failure,
/// mid-stream write error, stalled reads) and engine faults surfacing as
/// typed frames (worker panic, budget, deadline).
#[test]
fn chaos_under_load_sheds_typed_and_leaks_nothing() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scenarios: &[(&str, FaultAction, u64)] = &[
        ("serve.accept", FaultAction::IoError, 0),
        ("serve.frame.write", FaultAction::IoError, 5),
        ("serve.frame.read", FaultAction::IoError, 5),
        ("serve.frame.read", FaultAction::Stall, 3),
        ("engine.task.start", FaultAction::Panic, 2),
        ("engine.task.start", FaultAction::Budget, 2),
        ("engine.seed", FaultAction::Deadline, 1),
        ("sink.channel.send", FaultAction::Panic, 4),
    ];
    let baseline = thread_count();
    for &(site, action, after) in scenarios {
        let context = format!("{site}/{action:?}");
        let scope = FaultScope::arm(FaultPlan {
            site,
            action,
            after,
        });
        let tally = Tally::default();
        {
            // The server inherits the installed scope (start → accept →
            // connection → engine workers), so the fault fires somewhere
            // inside the serving stack while the load runs.
            let _armed = scope.install();
            let server = chaos_server();
            hammer(&server, &tally);
            // The real survival criterion: after the chaotic load (every
            // client joined), a fresh connection is served normally.
            let mut probe = Client::connect_with(server.addr(), Duration::from_secs(10))
                .expect("probe connect");
            let outcome = probe.query(&QueryRequest::new("synth", 3)).unwrap();
            assert!(
                matches!(outcome, QueryOutcome::Done(_)),
                "{context}: post-chaos probe got {outcome:?}"
            );
            drop(probe);
            let report = server.shutdown();
            assert!(
                report.drained || report.cancelled > 0,
                "{context}: shutdown neither drained nor cancelled"
            );
        }
        let done = tally.done.load(Ordering::Relaxed);
        let disconnects = tally.disconnects.load(Ordering::Relaxed);
        // Progress under chaos (shedding is expected at this load, a dead
        // server is not), and the single injected fault can only have cost
        // a few connections, never a broad outage.
        assert!(done >= 1, "{context}: no query ever completed");
        assert!(
            disconnects <= 8,
            "{context}: {disconnects} dropped connections from one fault"
        );
        assert_no_leaked_threads(baseline, &context);
    }
}

/// Worker panics bubbling up as typed `WorkerPanicked` frames, not as dead
/// connections: inject a panic into the engine under a single query and
/// check the exact status. (The matrix above covers panics under load;
/// this pins the wire taxonomy.)
#[test]
fn injected_worker_panic_is_a_typed_frame() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let baseline = thread_count();
    // `sink.channel.send` sits on every streamed run's output path (fast
    // path included), so the panic is guaranteed to fire mid-run.
    let scope = FaultScope::arm(FaultPlan {
        site: "sink.channel.send",
        action: FaultAction::Panic,
        after: 0,
    });
    {
        let _armed = scope.install();
        let server = chaos_server();
        let mut client = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        let outcome = client.query(&req).expect("typed frame, not a dead socket");
        match outcome {
            QueryOutcome::ServerError {
                status: WireStatus::WorkerPanicked,
                ..
            } => {}
            other => panic!("wanted WorkerPanicked, got {other:?}"),
        }
        // The panic was contained: the same connection keeps serving.
        let outcome = client.query(&QueryRequest::new("synth", 2)).unwrap();
        assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads(baseline, "worker panic");
}

/// A stalled slow reader (never drains its socket) must not wedge the
/// server: the write timeout cuts the connection off, the query is
/// cancelled, and other clients stay unaffected.
#[test]
fn stalled_slow_reader_is_cut_off_and_query_cancelled() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let baseline = thread_count();
    {
        let config = ServerConfig {
            write_timeout: Duration::from_millis(200),
            drain_deadline: Duration::from_secs(3),
            ..ServerConfig::default()
        };
        let server = Server::start(vec![("synth".to_string(), chaos_table())], config)
            .expect("server starts");

        // A "reader" that sends a big query and then never reads: the
        // server's socket buffer fills, its writes time out, and the
        // connection (plus its producing query) is torn down.
        let mut stalled = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        stalled
            .send_raw(&ccube_serve::proto::encode_request(
                &ccube_serve::Request::Query(req),
            ))
            .unwrap();

        // Meanwhile other clients are served normally.
        let mut client = Client::connect_with(server.addr(), Duration::from_secs(10)).unwrap();
        for _ in 0..3 {
            let outcome = client.query(&QueryRequest::new("synth", 2)).unwrap();
            assert!(matches!(outcome, QueryOutcome::Done(_)), "got {outcome:?}");
        }

        // The stalled connection's query must deregister (cancelled), not
        // hold its admission slot forever.
        let mut active = usize::MAX;
        for _ in 0..300 {
            active = server.metrics().active_queries;
            if active == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(active, 0, "stalled reader's query never deregistered");
        drop(stalled);
        server.shutdown();
    }
    assert_no_leaked_threads(baseline, "stalled reader");
}

// ---------------------------------------------------------------------------
// Resilience: resume, watchdog, and the recovering fleet
// ---------------------------------------------------------------------------

/// A connection killed mid-stream (injected write error on the 9th server
/// frame) must be invisible to a [`ResilientClient`] caller: the client
/// reconnects, resumes from its cursor, and the stitched stream is
/// cell-for-cell the full result — each cell delivered exactly once.
#[test]
fn mid_stream_connection_kill_is_recovered_by_resume() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let baseline = thread_count();

    // Ground truth from an in-process run of the same query.
    let mut expected = Vec::new();
    {
        let mut session = CubeSession::new(chaos_table()).unwrap();
        let mut sink = FnSink(|cell: &[u32], count: u64, _acc: &()| {
            expected.push((cell.to_vec(), count));
        });
        session
            .query()
            .min_sup(1)
            .threads(2)
            .run(&mut sink)
            .unwrap();
    }
    expected.sort();

    let scope = FaultScope::arm(FaultPlan {
        site: "serve.frame.write",
        action: FaultAction::IoError,
        after: 8,
    });
    {
        let _armed = scope.install();
        let server = chaos_server();
        let mut client = ResilientClient::new(server.addr());
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        let mut got = Vec::new();
        let stats = client
            .query_with(&req, |block| {
                for (cell, count) in block.iter() {
                    got.push((cell.to_vec(), count));
                }
            })
            .expect("query completes across the kill");
        assert_eq!(stats.cells as usize, got.len());
        let cstats = client.stats();
        assert!(
            cstats.retried >= 1 && cstats.resumed >= 1,
            "the kill never forced a resume: {cstats:?}"
        );
        assert!(server.metrics().resumed >= 1, "server saw no Resume");
        got.sort();
        assert_eq!(got, expected, "stitched stream is not the full result");
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads(baseline, "mid-stream kill");
}

/// A worker wedged inside the engine (blocked, no progress-epoch advance)
/// must be reaped by the watchdog as a typed, retryable `Wedged` frame —
/// with heartbeats keeping the stream visibly alive while it is stuck —
/// and the resilient client completes the query on its retry.
#[test]
fn wedged_worker_is_reaped_and_the_query_completes_via_retry() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let baseline = thread_count();
    // `sink.channel.send` sits on every streamed run's output path (fast
    // path included) and flushes every 1024 cells; the table below yields
    // ~3.3k cells, so the second visit lands mid-run with over a thousand
    // cells — and their lifecycle checkpoints — still ahead. The blocked
    // producer stops reaching those checkpoints and its progress epoch
    // freezes — exactly what the watchdog looks for; the reap's trip then
    // both unblocks the wedge and aborts the run at the next checkpoint,
    // surfacing as a retryable `Wedged` error frame.
    let scope = FaultScope::arm(FaultPlan {
        site: "sink.channel.send",
        action: FaultAction::Wedge,
        after: 1,
    });
    {
        let _armed = scope.install();
        let config = ServerConfig {
            heartbeat_interval: Duration::from_millis(50),
            watchdog_interval: Duration::from_millis(25),
            wedge_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(250),
            drain_deadline: Duration::from_secs(3),
            ..ServerConfig::default()
        };
        let table = SyntheticSpec::uniform(4000, 4, 8, 1.0, 11).generate();
        let server =
            Server::start(vec![("synth".to_string(), table)], config).expect("server starts");
        let mut client = ResilientClient::new(server.addr());
        let mut req = QueryRequest::new("synth", 1);
        req.threads = 2;
        let stats = client
            .query(&req)
            .expect("query completes once the wedge is reaped");
        assert!(stats.cells > 0);
        assert!(
            client.stats().retried >= 1,
            "the reap must have cost an attempt: {:?}",
            client.stats()
        );
        let metrics = server.metrics();
        assert!(metrics.reaped >= 1, "watchdog never reaped the wedge");
        assert!(
            metrics.heartbeats >= 1,
            "no heartbeat while the stream was wedged"
        );
        server.shutdown();
    }
    assert!(scope.fired(), "fault never fired");
    assert_no_leaked_threads(baseline, "wedged worker");
}

/// The resilience gate: 64 resilient clients under injected chaos — a
/// mid-stream write kill, a worker panic, a wedged worker — and every
/// single query must complete, with zero unrecovered failures and zero
/// leaked threads. This is the scenario `exp -- serve` re-runs nightly
/// under `CCUBE_ASSERT_RESILIENCE=1`.
#[test]
fn resilient_fleet_recovers_every_query_under_chaos() {
    if !armed() {
        eprintln!("serve chaos suite skipped: set CCUBE_CHAOS=1 to run");
        return;
    }
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let scenarios: &[(&str, FaultAction, u64)] = &[
        ("serve.frame.write", FaultAction::IoError, 10),
        ("sink.channel.send", FaultAction::Panic, 6),
        ("sink.channel.send", FaultAction::Wedge, 4),
    ];
    let baseline = thread_count();
    for &(site, action, after) in scenarios {
        let context = format!("{site}/{action:?}");
        let scope = FaultScope::arm(FaultPlan {
            site,
            action,
            after,
        });
        {
            let _armed = scope.install();
            let config = ServerConfig {
                admission: AdmissionConfig {
                    max_concurrent: 4,
                    max_queued: 8,
                    max_queue_wait: Duration::from_millis(250),
                    ..AdmissionConfig::default()
                },
                watchdog_interval: Duration::from_millis(25),
                wedge_timeout: Duration::from_millis(300),
                write_timeout: Duration::from_millis(500),
                drain_deadline: Duration::from_secs(3),
                ..ServerConfig::default()
            };
            let server = Server::start(vec![("synth".to_string(), chaos_table())], config)
                .expect("server starts");
            let addr = server.addr();
            let failures = AtomicU64::new(0);
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let failures = &failures;
                    s.spawn(move || {
                        let policy = RetryPolicy {
                            max_attempts: 20,
                            base_backoff: Duration::from_millis(10),
                            ..RetryPolicy::default()
                        };
                        let mut client =
                            ResilientClient::with(addr, ClientConfig::default(), policy);
                        for q in 0..QUERIES_PER_CLIENT {
                            let mut req = QueryRequest::new("synth", 1 + ((c + q) % 3) as u64);
                            if c % 2 == 0 {
                                req.threads = 2;
                            }
                            if let Err(e) = client.query(&req) {
                                eprintln!("client {c} query {q} unrecovered: {e}");
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert_eq!(
                failures.load(Ordering::Relaxed),
                0,
                "{context}: unrecovered failures in the resilient fleet"
            );
            server.shutdown();
        }
        assert_no_leaked_threads(baseline, &context);
    }
}
