//! The concurrent cube server: a thread-per-connection TCP front end over
//! long-lived [`CubeSession`]s, with admission control, overload shedding,
//! per-connection fault isolation, and graceful drain.
//!
//! Design invariants the tests (and the chaos suite) hold the server to:
//!
//! * **Shed, don't degrade.** A query either gets an admission [`Permit`](crate::admission::Permit)
//!   (its memory estimate reserved, a running slot held) or a typed
//!   `Overloaded` / `ShuttingDown` frame. Admitted queries are never
//!   cancelled to make room for new ones.
//! * **Faults are per-connection.** A panicking worker, a protocol
//!   violation, a stalled peer or a mid-stream disconnect ends *that*
//!   query/connection — with a typed error frame when the socket still
//!   works — and never takes the process down or leaks the producer thread
//!   (dropping the [`CellStream`](c_cubing::CellStream) cancels and joins it).
//! * **Shutdown drains.** [`Server::shutdown`] stops accepting, sheds the
//!   queue, lets in-flight queries finish inside the drain deadline, then
//!   cancels stragglers cooperatively and joins every thread it spawned.

use crate::admission::{AdmissionConfig, Gate, GateMetrics, ShapeHistory, Shed};
use crate::proto::{
    self, wire_status, CellBlock, DoneStats, FrameWriter, ProtoError, QueryRequest, Request,
    Response, TableInfo, WireStatus,
};
use c_cubing::{CubeSession, QueryHandle, StreamPoll};
use ccube_core::faults;
use ccube_core::fxhash::{FxHashMap, FxHasher};
use ccube_core::mask::DimMask;
use ccube_core::{CubeError, Table};
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that can keep a [`Server`] from starting.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, local_addr, ...).
    Io(std::io::Error),
    /// A served table was rejected by [`CubeSession::new`].
    Cube(CubeError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Cube(e) => write!(f, "table rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Server knobs. The defaults suit tests and small deployments; the bench
/// harness overrides admission to provoke shedding.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Engine worker threads for queries that do not ask for a count
    /// (`0` = let the session's planner pick the sequential path).
    pub default_threads: usize,
    /// Tick used while waiting for a request at a frame boundary; bounds
    /// how fast an idle connection notices server shutdown.
    pub idle_tick: Duration,
    /// Read timeout *inside* a frame: a peer that stalls mid-frame longer
    /// than this is treated as gone.
    pub frame_read_timeout: Duration,
    /// Timeout per socket write: a reader that stalls longer than this
    /// (slow-consumer pathology) gets its query cancelled and the
    /// connection closed.
    pub write_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight queries before
    /// cancelling them.
    pub drain_deadline: Duration,
    /// Keepalive cadence on an idle reply stream: a query that produces no
    /// batch for this long gets a `Heartbeat` frame so the client can tell
    /// slow-query from dead-peer.
    pub heartbeat_interval: Duration,
    /// How often the watchdog scans active queries for stalled progress.
    pub watchdog_interval: Duration,
    /// How long a query's progress epoch may stay frozen before the
    /// watchdog reaps it with [`CubeError::Wedged`]. Effectively clamped up
    /// to `write_timeout + 2 × watchdog_interval` so a pump legitimately
    /// blocked on a slow-but-live client socket cannot be mistaken for a
    /// wedge.
    pub wedge_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            default_threads: 0,
            idle_tick: Duration::from_millis(20),
            frame_read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            heartbeat_interval: Duration::from_secs(1),
            watchdog_interval: Duration::from_millis(250),
            wedge_timeout: Duration::from_secs(10),
        }
    }
}

/// Point-in-time server counters (see [`Server::metrics`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerMetrics {
    /// Admission-gate counters.
    pub gate: GateMetrics,
    /// Accept-loop errors survived (the loop never dies of one).
    pub accept_errors: u64,
    /// Connection-handler panics contained (connection closed, process
    /// intact).
    pub panics_contained: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Queries currently admitted and running.
    pub active_queries: usize,
    /// Queries re-executed for a `Resume` request.
    pub resumed: u64,
    /// Queries reaped by the watchdog for frozen progress.
    pub reaped: u64,
    /// Heartbeat frames sent on idle reply streams.
    pub heartbeats: u64,
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Whether every in-flight query finished inside the drain deadline.
    pub drained: bool,
    /// Queries cancelled after the drain deadline expired.
    pub cancelled: usize,
}

struct ServedTable {
    name: String,
    session: Mutex<CubeSession>,
    /// Current row count; updated under the session lock, read lock-free by
    /// the `Tables` handler.
    rows: AtomicU64,
    dims: u32,
    /// Table version: starts at 1, bumped by every non-empty ingest. Bumps
    /// happen under the session lock, so a query planned under that lock
    /// observes version and table state atomically.
    version: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    tables: Vec<ServedTable>,
    gate: Gate,
    history: ShapeHistory,
    /// Stop flag: accept loop exits, idle connections close at next tick.
    stop: AtomicBool,
    /// Admitted, still-running queries — the drain loop watches and (past
    /// the deadline) cancels through these handles.
    active: Mutex<FxHashMap<u64, QueryHandle>>,
    query_seq: AtomicU64,
    accept_errors: AtomicU64,
    panics_contained: AtomicU64,
    connections: AtomicU64,
    resumed: AtomicU64,
    reaped: AtomicU64,
    heartbeats: AtomicU64,
}

impl Shared {
    fn find_table(&self, name: &str) -> Option<&ServedTable> {
        self.tables.iter().find(|t| t.name == name)
    }
}

/// Removes an in-flight query from the active registry on drop, so a panic
/// unwinding through the pump still deregisters it.
struct ActiveQuery<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> ActiveQuery<'a> {
    fn register(shared: &'a Shared, handle: QueryHandle) -> ActiveQuery<'a> {
        let id = shared.query_seq.fetch_add(1, Ordering::Relaxed);
        shared
            .active
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, handle);
        ActiveQuery { shared, id }
    }
}

impl Drop for ActiveQuery<'_> {
    fn drop(&mut self) {
        self.shared
            .active
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.id);
    }
}

/// A running cube server. Dropping it performs a full [`Server::shutdown`]
/// (ignoring the report), so tests cannot leak threads by accident.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Build sessions for `tables`, bind, and start accepting. Returns once
    /// the listener is live (`addr()` is connectable).
    pub fn start(tables: Vec<(String, Table)>, config: ServerConfig) -> Result<Server, ServeError> {
        let mut served = Vec::with_capacity(tables.len());
        for (name, table) in tables {
            let rows = table.rows() as u64;
            let dims = table.dims() as u32;
            let session = CubeSession::new(table).map_err(ServeError::Cube)?;
            served.push(ServedTable {
                name,
                session: Mutex::new(session),
                rows: AtomicU64::new(rows),
                dims,
                version: AtomicU64::new(1),
            });
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            gate: Gate::new(config.admission),
            config,
            tables: served,
            history: ShapeHistory::new(),
            stop: AtomicBool::new(false),
            active: Mutex::new(FxHashMap::default()),
            // Wire query ids start at 1 so 0 never names a live stream.
            query_seq: AtomicU64::new(1),
            accept_errors: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        // Chaos fault scopes are thread-local; carry the starter's scope
        // into the accept thread (and from there into each connection).
        let fault_scope = faults::current_scope();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("ccube-serve-accept".into())
                .spawn(move || {
                    let _chaos = fault_scope.as_ref().map(faults::FaultScope::install);
                    accept_loop(&listener, &shared, &conns);
                })
                .map_err(ServeError::Io)?
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccube-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .map_err(ServeError::Io)?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            watchdog: Some(watchdog),
            conns,
        })
    }

    /// The bound address (use after binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the server's counters.
    pub fn metrics(&self) -> ServerMetrics {
        ServerMetrics {
            gate: self.shared.gate.metrics(),
            accept_errors: self.shared.accept_errors.load(Ordering::Relaxed),
            panics_contained: self.shared.panics_contained.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
            active_queries: self
                .shared
                .active
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len(),
            resumed: self.shared.resumed.load(Ordering::Relaxed),
            reaped: self.shared.reaped.load(Ordering::Relaxed),
            heartbeats: self.shared.heartbeats.load(Ordering::Relaxed),
        }
    }

    /// Drain and stop: stop accepting, shed the wait queue, give in-flight
    /// queries until the drain deadline, cancel the stragglers, then join
    /// every server thread. Idempotent through [`Drop`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.gate.start_drain();
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        let mut drained = true;
        let mut cancelled = 0;
        loop {
            let active = self
                .shared
                .active
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len();
            if active == 0 {
                break;
            }
            if Instant::now() >= deadline {
                // Cooperative cancellation: trip each straggler's token and
                // let its connection report `Cancelled`; the handler still
                // deregisters, so the join below stays bounded.
                let handles: Vec<QueryHandle> = self
                    .shared
                    .active
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .values()
                    .cloned()
                    .collect();
                cancelled = handles.len();
                drained = handles.is_empty();
                for h in &handles {
                    h.cancel();
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for c in conns {
            let _ = c.join();
        }
        ShutdownReport { drained, cancelled }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------------

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // An accept failure (injected or real: EMFILE, aborted handshake)
        // is survived, counted, and retried — the loop never dies of one.
        if faults::inject_io("serve.accept").is_err() {
            shared.accept_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let fault_scope = faults::current_scope();
                let handle = std::thread::Builder::new()
                    .name("ccube-serve-conn".into())
                    .spawn(move || {
                        let _chaos = fault_scope.as_ref().map(faults::FaultScope::install);
                        run_connection(stream, &conn_shared);
                    });
                match handle {
                    Ok(h) => {
                        let mut guard = conns.lock().unwrap_or_else(|p| p.into_inner());
                        // Reap finished handlers so the vec tracks live
                        // connections, not lifetime history.
                        guard.retain(|c| !c.is_finished());
                        guard.push(h);
                    }
                    Err(_) => {
                        shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Reap queries whose workers stopped making progress. Each scan compares
/// every active query's progress epoch to the last scan; an epoch frozen
/// for longer than the (clamped) wedge timeout gets its token tripped with
/// [`CubeError::Wedged`] — the query unwinds at the wire as a typed,
/// retryable error frame instead of hanging its connection forever.
///
/// False-reap guards: a healthy-but-back-pressured pump bumps the epoch on
/// every successful flush of batches, and the effective timeout is at least
/// `write_timeout + 2 × watchdog_interval`, so a pump parked in one slow
/// socket write cannot freeze the epoch long enough to be reaped.
fn watchdog_loop(shared: &Shared) {
    let interval = shared.config.watchdog_interval;
    let timeout = shared
        .config
        .wedge_timeout
        .max(shared.config.write_timeout + 2 * interval);
    let mut seen: FxHashMap<u64, (u64, Instant)> = FxHashMap::default();
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        let active: Vec<(u64, QueryHandle)> = shared
            .active
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(id, h)| (*id, h.clone()))
            .collect();
        let now = Instant::now();
        seen.retain(|id, _| active.iter().any(|(a, _)| a == id));
        for (id, handle) in active {
            let epoch = handle.progress();
            match seen.get_mut(&id) {
                None => {
                    seen.insert(id, (epoch, now));
                }
                Some((last, since)) => {
                    if *last != epoch {
                        *last = epoch;
                        *since = now;
                    } else if now.duration_since(*since) >= timeout
                        && !handle.is_tripped()
                        && handle.trip(CubeError::Wedged)
                    {
                        shared.reaped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

/// Top-level connection wrapper: contains panics that escape the handler
/// (including injected ones), converts them into a best-effort `Internal`
/// error frame, and closes the connection. The process and every other
/// connection stay up.
fn run_connection(stream: TcpStream, shared: &Shared) {
    let _ = configure_stream(&stream, &shared.config);
    let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(&stream, shared)));
    if outcome.is_err() {
        shared.panics_contained.fetch_add(1, Ordering::Relaxed);
        // A fresh writer: the unwound one's buffer may end mid-frame.
        let _ = answer(
            &mut FrameWriter::new(&stream),
            &Response::Error {
                status: WireStatus::Internal,
                detail: "internal error; connection closed".to_string(),
            },
        );
    }
}

/// Socket options for an accepted connection. `TCP_NODELAY` is set because
/// the connection's [`FrameWriter`] already groups a reply into a few large
/// writes: with Nagle's algorithm on, the last short write of each reply
/// would wait in the kernel for the client's delayed ACK (40 ms on Linux)
/// although the answer is complete.
fn configure_stream(stream: &TcpStream, config: &ServerConfig) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.idle_tick))?;
    stream.set_write_timeout(Some(config.write_timeout))
}

/// The connection's only path to the socket: every server→client frame is
/// queued here and leaves at the writer's flush points.
type Out<'a> = FrameWriter<&'a TcpStream>;

/// What a served request means for the connection.
enum Flow {
    /// Keep reading requests.
    Continue,
    /// Stop serving this connection (clean close or dead socket).
    Close,
}

fn serve_connection(stream: &TcpStream, shared: &Shared) {
    let mut out = FrameWriter::new(stream);
    loop {
        let payload = match read_request_frame(stream, shared) {
            ReadOutcome::Frame(p) => p,
            ReadOutcome::Close => return,
            ReadOutcome::Malformed(e) => {
                // Framing itself is broken: no later frame boundary can be
                // trusted, so answer once and hang up.
                let _ = answer(
                    &mut out,
                    &Response::Error {
                        status: WireStatus::Protocol,
                        detail: e.to_string(),
                    },
                );
                return;
            }
        };
        let flow = match proto::decode_request(&payload) {
            Err(e) => {
                // The frame was well-delimited but its body is invalid;
                // framing is still sound, so answer and keep serving.
                answer(
                    &mut out,
                    &Response::Error {
                        status: WireStatus::Protocol,
                        detail: e.to_string(),
                    },
                )
            }
            Ok(Request::Ping) => answer(&mut out, &Response::Pong),
            Ok(Request::Tables) => {
                let tables = shared
                    .tables
                    .iter()
                    .map(|t| TableInfo {
                        name: t.name.clone(),
                        rows: t.rows.load(Ordering::Relaxed),
                        dims: t.dims,
                        version: t.version.load(Ordering::Relaxed),
                    })
                    .collect();
                answer(&mut out, &Response::TableList(tables))
            }
            Ok(Request::Query(q)) => serve_query(&mut out, shared, &q, None),
            Ok(Request::Resume {
                query_id,
                next_seq,
                query,
            }) => {
                shared.resumed.fetch_add(1, Ordering::Relaxed);
                serve_query(&mut out, shared, &query, Some((query_id, next_seq)))
            }
            Ok(Request::Ingest { table, rows }) => serve_ingest(&mut out, shared, &table, &rows),
        };
        if matches!(flow, Flow::Close) {
            return;
        }
    }
}

enum ReadOutcome {
    Frame(Vec<u8>),
    /// Clean EOF, server stop, or a dead/stalled socket.
    Close,
    /// The peer sent an invalid frame header.
    Malformed(ProtoError),
}

fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read one request frame. At the frame boundary the read ticks at
/// `idle_tick` so an idle connection notices `stop`; once the first header
/// byte arrives the peer must deliver the rest within `frame_read_timeout`
/// or be treated as stalled (mid-frame torn writes also land here).
fn read_request_frame(mut stream: &TcpStream, shared: &Shared) -> ReadOutcome {
    if faults::inject_io("serve.frame.read").is_err() {
        return ReadOutcome::Close;
    }
    let mut header = [0u8; 4];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return ReadOutcome::Close;
        }
        match stream.read(&mut header[..1]) {
            Ok(0) => return ReadOutcome::Close,
            Ok(_) => break,
            Err(e) if timed_out(&e) => continue,
            Err(_) => return ReadOutcome::Close,
        }
    }
    let deadline = Instant::now() + shared.config.frame_read_timeout;
    if read_exact_until(stream, &mut header[1..], deadline).is_err() {
        return ReadOutcome::Close;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return ReadOutcome::Malformed(ProtoError::EmptyFrame);
    }
    if len > proto::MAX_PAYLOAD {
        return ReadOutcome::Malformed(ProtoError::Oversized { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    match read_exact_until(stream, &mut payload, deadline) {
        Ok(()) => ReadOutcome::Frame(payload),
        Err(_) => ReadOutcome::Close,
    }
}

/// `read_exact` against a tick-granularity read timeout: keeps reading
/// through timeout ticks until `deadline`, so one slow-but-live peer is
/// fine while a stalled one is cut off.
fn read_exact_until(
    mut stream: &TcpStream,
    mut buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.read(buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if timed_out(&e) => {
                if Instant::now() >= deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Queue one frame on the connection's writer; returns whether the writer
/// flushed. The `serve.frame.write` fault kills the connection at this
/// frame: the frames queued before it still reach the peer, as they would
/// if every frame were written on its own.
fn push(out: &mut Out<'_>, resp: &Response) -> std::io::Result<bool> {
    if let Err(e) = faults::inject_io("serve.frame.write") {
        let _ = out.flush();
        return Err(e);
    }
    out.push(resp)
}

/// Cells per `Batch` frame (64 cells × (dims×4 + 8) bytes stays well under
/// a network round of small frames without approaching [`MAX_PAYLOAD`]).
///
/// [`MAX_PAYLOAD`]: proto::MAX_PAYLOAD
const BATCH_CELLS: usize = 64;

/// The query's shape for memory-history purposes: everything that affects
/// how much the engine buffers, excluding the deadline (which affects how
/// long it runs, not how wide).
fn shape_hash(q: &QueryRequest) -> u64 {
    let mut h = FxHasher::default();
    q.table.hash(&mut h);
    q.min_sup.hash(&mut h);
    q.algorithm.hash(&mut h);
    q.closed.hash(&mut h);
    q.dims.hash(&mut h);
    q.selections.hash(&mut h);
    q.threads.hash(&mut h);
    h.finish()
}

/// Serve one query (or resume one). `resume` carries the wire id to echo
/// and the number of leading batches the client already holds; the run is
/// re-executed in full — determinism makes the replayed stream identical —
/// and the first `next_seq` batches are simply not written to the socket.
fn serve_query(
    out: &mut Out<'_>,
    shared: &Shared,
    q: &QueryRequest,
    resume: Option<(u64, u64)>,
) -> Flow {
    let started = Instant::now();
    let Some(table) = shared.find_table(&q.table) else {
        return answer(
            out,
            &Response::Error {
                status: WireStatus::UnknownTable,
                detail: format!("table {:?} is not served", q.table),
            },
        );
    };

    // Admission: estimate from this shape's history, wait bounded by the
    // queue allowance and the query's own deadline, shed typed.
    let shape = shape_hash(q);
    let estimate = shared
        .history
        .estimate(shape, shared.gate.config().default_estimate);
    let deadline = (q.deadline_ms > 0).then(|| started + Duration::from_millis(q.deadline_ms));
    let permit = match shared.gate.admit(estimate, deadline) {
        Ok(p) => p,
        Err(Shed::Draining) => {
            return answer(
                out,
                &Response::Error {
                    status: WireStatus::ShuttingDown,
                    detail: "server is draining".to_string(),
                },
            );
        }
        Err(Shed::QueueFull | Shed::Timeout) => {
            return answer(
                out,
                &Response::Overloaded {
                    retry_after_ms: shared.gate.retry_after().as_millis() as u64,
                },
            );
        }
    };

    // Time spent queued counts against the query's deadline.
    let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if remaining.is_some_and(|r| r.is_zero()) {
        return answer(
            out,
            &Response::Error {
                status: WireStatus::DeadlineExceeded,
                detail: CubeError::DeadlineExceeded.to_string(),
            },
        );
    }

    // Build the query and spawn its producer under the session lock;
    // `stream()` returns right after the spawn, so the lock is held only
    // for planning + thread start, and concurrent queries on the same
    // table pump their results in parallel.
    let (version, cells) = {
        let mut session = table.session.lock().unwrap_or_else(|p| p.into_inner());
        // Loaded under the same lock `serve_ingest` bumps under, so the
        // pin check is atomic with the snapshot the spawned run reads: a
        // resume that spans an ingest fails typed instead of splicing
        // batches from two different table states.
        let version = table.version.load(Ordering::Relaxed);
        if q.version != 0 && q.version != version {
            return answer(
                out,
                &Response::Error {
                    status: WireStatus::VersionMismatch,
                    detail: format!(
                        "table {:?} is at version {version}, request pinned version {}; \
                         restart the query from seq 0",
                        q.table, q.version
                    ),
                },
            );
        }
        let mut query = session.query().min_sup(q.min_sup);
        if let Some(a) = q.algorithm {
            query = query.algorithm(a);
        }
        if let Some(c) = q.closed {
            query = query.closed(c);
        }
        if let Some(mask) = q.dims {
            query = query.dims(DimMask(mask));
        }
        for (dim, values) in &q.selections {
            query = query.dice(*dim as usize, values);
        }
        let threads = if q.threads > 0 {
            q.threads as usize
        } else {
            shared.config.default_threads
        };
        if threads > 0 {
            query = query.threads(threads);
        }
        query = query.memory_budget(permit.estimate as usize);
        if let Some(r) = remaining {
            query = query.deadline(r);
        }
        (version, query.stream())
    };
    let mut cells = match cells {
        Ok(c) => c,
        Err(e) => {
            // Builder misuse (bad dimension, zero min_sup, ...): typed
            // error before any thread was spawned.
            return answer(
                out,
                &Response::Error {
                    status: wire_status(&e),
                    detail: e.to_string(),
                },
            );
        }
    };

    let active = ActiveQuery::register(shared, cells.handle());
    // A resumed stream echoes the id the client correlates by; a fresh one
    // is named by its registry id (ids start at 1, so 0 never occurs).
    let query_id = resume.map_or(active.id, |(id, _)| id);
    let skip = resume.map_or(0, |(_, next_seq)| next_seq);
    let handle = cells.handle();
    let mut block = CellBlock::default();
    let mut seq = 0u64;
    let mut total_cells = 0u64;
    // When bytes last left for the client: the keepalive clock.
    let mut last_flush = Instant::now();
    loop {
        // Keepalive covers idle streams (slow query, back-pressure) and the
        // busy-but-silent skip phase of a resume. Queued batches go out in
        // place of a beat; only a stream with nothing queued gets a
        // `Heartbeat`, which shows liveness but is not progress.
        if last_flush.elapsed() >= shared.config.heartbeat_interval {
            let beat = out.is_empty();
            let sent = if beat {
                push(out, &Response::Heartbeat { query_id }).and_then(|_| out.flush())
            } else {
                out.flush()
            };
            if sent.is_err() {
                drop(cells);
                return Flow::Close;
            }
            if beat {
                shared.heartbeats.fetch_add(1, Ordering::Relaxed);
            } else {
                handle.note_progress();
            }
            last_flush = Instant::now();
        }
        let wrote = match cells.poll_next(shared.config.idle_tick) {
            StreamPoll::Item((cell, count, ())) => {
                if block.is_empty() {
                    // Projected queries emit cells over the kept dimensions
                    // only, so the width comes from the cells, not the table.
                    block.dims = cell.values().len() as u16;
                }
                block.push(cell.values(), count);
                if block.len() < BATCH_CELLS {
                    continue;
                }
                total_cells += block.len() as u64;
                let this_seq = seq;
                seq += 1;
                let full = std::mem::take(&mut block);
                if this_seq < skip {
                    // Already delivered before the disconnect: recompute,
                    // don't resend. Determinism makes the boundaries line
                    // up with the interrupted stream's.
                    continue;
                }
                push(
                    out,
                    &Response::Batch {
                        query_id,
                        seq: this_seq,
                        version,
                        block: full,
                    },
                )
            }
            // The producer paused: what is queued goes out now instead of
            // waiting for more.
            StreamPoll::Idle => out.flush(),
            StreamPoll::End => break,
        };
        match wrote {
            Ok(false) => {}
            // A flush of batches is progress even while the engine is
            // back-pressured by this very socket.
            Ok(true) => {
                handle.note_progress();
                last_flush = Instant::now();
            }
            // Dead or stalled reader: dropping `cells` cancels the
            // producing run and joins its thread before we return.
            Err(_) => {
                drop(cells);
                return Flow::Close;
            }
        }
    }
    let outcome = cells.finish();
    match outcome {
        Ok(stats) => {
            if !block.is_empty() {
                total_cells += block.len() as u64;
                let this_seq = seq;
                if this_seq >= skip
                    && push(
                        out,
                        &Response::Batch {
                            query_id,
                            seq: this_seq,
                            version,
                            block,
                        },
                    )
                    .is_err()
                {
                    return Flow::Close;
                }
            }
            let elapsed = started.elapsed();
            shared.history.record(shape, stats.peak_buffered_bytes);
            shared.gate.record_service(elapsed);
            // The tail batch leaves in the same write as `Done`.
            answer(
                out,
                &Response::Done(DoneStats {
                    query_id,
                    version,
                    // Whole-stream total (skipped batches included), so a
                    // resumed run's Done matches the uninterrupted run's.
                    cells: total_cells,
                    elapsed_micros: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                    peak_buffered_bytes: stats.peak_buffered_bytes,
                    tasks: stats.tasks,
                    fast_path: stats.fast_path,
                }),
            )
        }
        Err(e) => {
            // The run ended early (cancel/deadline/budget/worker panic):
            // drop the partial tail batch and report the typed error.
            shared.gate.record_service(started.elapsed());
            answer(
                out,
                &Response::Error {
                    status: wire_status(&e),
                    detail: e.to_string(),
                },
            )
        }
    }
}

/// Append a batch of tuples to a served table. The whole ingest — append,
/// cached-artifact patching, materialized-cube maintenance, version bump —
/// runs under the session lock, so a concurrently planned query observes
/// either the old table at the old version or the new table at the new
/// one, never a half-applied state. On error nothing was appended and the
/// version is unchanged.
fn serve_ingest(out: &mut Out<'_>, shared: &Shared, name: &str, rows: &[u32]) -> Flow {
    let Some(table) = shared.find_table(name) else {
        return answer(
            out,
            &Response::Error {
                status: WireStatus::UnknownTable,
                detail: format!("table {name:?} is not served"),
            },
        );
    };
    let outcome = {
        let mut session = table.session.lock().unwrap_or_else(|p| p.into_inner());
        session.ingest(rows).map(|stats| {
            if stats.rows > 0 {
                table.rows.fetch_add(stats.rows as u64, Ordering::Relaxed);
                table.version.fetch_add(1, Ordering::Relaxed);
            }
            (table.version.load(Ordering::Relaxed), stats.rows as u64)
        })
    };
    match outcome {
        Ok((version, rows)) => answer(out, &Response::Ingested { version, rows }),
        Err(e) => answer(
            out,
            &Response::Error {
                status: wire_status(&e),
                detail: e.to_string(),
            },
        ),
    }
}

/// Send the frame that ends an exchange: it leaves together with every
/// frame queued before it. A failed write closes the connection.
fn answer(out: &mut Out<'_>, resp: &Response) -> Flow {
    match push(out, resp).and_then(|_| out.flush()) {
        Ok(_) => Flow::Continue,
        Err(_) => Flow::Close,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Without `TCP_NODELAY` every reply's tail waits for the client's
    /// delayed ACK, so the option is pinned on a real accepted socket.
    #[test]
    fn accepted_streams_get_nodelay_and_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "sockets start with Nagle on");
        let config = ServerConfig::default();
        configure_stream(&accepted, &config).unwrap();
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(config.idle_tick));
        assert_eq!(
            accepted.write_timeout().unwrap(),
            Some(config.write_timeout)
        );
    }
}
