//! `ccube-serve`: a concurrent closed-cube server over the
//! [`CubeSession`](c_cubing::CubeSession) facade.
//!
//! The crate layers three things on top of the in-process query API:
//!
//! * [`proto`] — a length-prefixed binary wire protocol (frames, typed
//!   statuses, bounds-checked decoding) and the per-connection
//!   [`FrameWriter`](proto::FrameWriter) that groups a reply's frames into
//!   few socket writes;
//! * [`admission`] — a bounded concurrency gate with a deadline-aware wait
//!   queue, a global memory accountant fed by per-shape
//!   [`peak_buffered_bytes`](ccube_engine::EngineStats::peak_buffered_bytes)
//!   history, and typed shed decisions;
//! * [`server`] / [`client`] — the thread-per-connection TCP server
//!   (overload shedding, per-connection fault isolation, liveness
//!   supervision, graceful drain), a small blocking [`Client`], and the
//!   self-healing [`ResilientClient`] (jittered-backoff retries, automatic
//!   reconnect + resume of interrupted result streams, overall per-query
//!   deadline).
//!
//! Result streams are resumable by construction: the engine's output is
//! deterministic for a given request, every `Batch` frame carries a query
//! id and sequence number, and a reconnecting client re-issues the request
//! with [`Request::Resume`] to skip what it already has.
//!
//! See the "Serving layer" section of `docs/ARCHITECTURE.md` for the
//! admission → queue → shed decision tree, the frame format, and the
//! retry/resume/watchdog state machines.

pub mod admission;
pub mod client;
pub mod proto;
pub mod server;

pub use admission::{AdmissionConfig, Gate, GateMetrics, Permit, ShapeHistory, Shed};
pub use client::{
    Client, ClientConfig, ClientError, QueryOutcome, ResilienceStats, ResilientClient, RetryPolicy,
};
pub use proto::{
    wire_status, CellBlock, DoneStats, ProtoError, QueryRequest, Request, Response, TableInfo,
    WireStatus, MAX_PAYLOAD, RETRY_AFTER_MAX, RETRY_AFTER_MIN,
};
pub use server::{ServeError, Server, ServerConfig, ServerMetrics, ShutdownReport};
