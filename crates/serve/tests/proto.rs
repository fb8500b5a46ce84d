//! Wire-protocol hardening: encode/decode round-trips under randomized
//! inputs, plus adversarial bytes — truncated, oversized, and corrupt
//! frames must decode to typed [`ProtoError`]s, never panic, never hang,
//! never allocate from an attacker-controlled length field.

use c_cubing::Algorithm;
use ccube_serve::proto::{
    self, CellBlock, DoneStats, FrameRead, FrameWriter, ProtoError, QueryRequest, Request,
    Response, TableInfo, WireStatus, WIRE_BUF,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::rc::Rc;

fn roundtrip_request(req: &Request) -> Request {
    let payload = proto::encode_request(req);
    proto::decode_request(&payload).expect("encoded request decodes")
}

fn roundtrip_response(resp: &Response) -> Response {
    let payload = proto::encode_response(resp);
    proto::decode_response(&payload).expect("encoded response decodes")
}

// ------------------------------------------------------------ round-trips

proptest! {
    #[test]
    fn query_requests_roundtrip(
        min_sup in 1u64..1_000_000,
        algo_idx in 0usize..=Algorithm::ALL.len(),
        closed_tag in 0u8..3,
        mask in any::<u64>(),
        has_mask in any::<bool>(),
        threads in 0u32..64,
        deadline_ms in 0u64..100_000,
        version in any::<u64>(),
        selections in proptest::collection::vec(
            (0u32..8, proptest::collection::vec(0u32..100, 0..5)),
            0..4,
        ),
    ) {
        let req = Request::Query(QueryRequest {
            table: "weather".to_string(),
            min_sup,
            algorithm: Algorithm::ALL.get(algo_idx).copied(),
            closed: match closed_tag { 0 => None, 1 => Some(false), _ => Some(true) },
            dims: has_mask.then_some(mask),
            selections: selections.clone(),
            threads,
            deadline_ms,
            version,
        });
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn batches_roundtrip(
        query_id in any::<u64>(),
        seq in any::<u64>(),
        version in any::<u64>(),
        dims in 1u16..8,
        counts in proptest::collection::vec(1u64..1_000, 0..50),
        seed in any::<u32>(),
    ) {
        let values: Vec<u32> = (0..counts.len() * dims as usize)
            .map(|i| (seed.wrapping_add(i as u32)) % 50)
            .collect();
        let resp = Response::Batch {
            query_id,
            seq,
            version,
            block: CellBlock { dims, values, counts },
        };
        prop_assert_eq!(roundtrip_response(&resp), resp);
    }

    #[test]
    fn done_and_overloaded_roundtrip(
        query_id in any::<u64>(),
        version in any::<u64>(),
        cells in any::<u64>(),
        micros in any::<u64>(),
        peak in any::<u64>(),
        tasks in any::<u64>(),
        fast in any::<bool>(),
        retry in any::<u64>(),
    ) {
        let done = Response::Done(DoneStats {
            query_id,
            version,
            cells,
            elapsed_micros: micros,
            peak_buffered_bytes: peak,
            tasks,
            fast_path: fast,
        });
        prop_assert_eq!(roundtrip_response(&done), done);
        let over = Response::Overloaded { retry_after_ms: retry };
        prop_assert_eq!(roundtrip_response(&over), over);
    }

    // Resume wraps the same query body as Query plus a 16-byte cursor; it
    // must round-trip for every cursor and every request shape.
    #[test]
    fn resume_requests_roundtrip(
        query_id in any::<u64>(),
        next_seq in any::<u64>(),
        min_sup in 1u64..1_000_000,
        algo_idx in 0usize..=Algorithm::ALL.len(),
        threads in 0u32..64,
        deadline_ms in 0u64..100_000,
        selections in proptest::collection::vec(
            (0u32..8, proptest::collection::vec(0u32..100, 0..5)),
            0..4,
        ),
    ) {
        let mut query = QueryRequest::new("weather", min_sup);
        query.algorithm = Algorithm::ALL.get(algo_idx).copied();
        query.threads = threads;
        query.deadline_ms = deadline_ms;
        query.selections = selections;
        let req = Request::Resume { query_id, next_seq, query };
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn heartbeats_roundtrip(query_id in any::<u64>()) {
        let hb = Response::Heartbeat { query_id };
        prop_assert_eq!(roundtrip_response(&hb), hb);
    }

    // Ingest carries an arbitrary row payload (empty batches included, and
    // values all the way to u32::MAX — the server, not the wire, rejects
    // out-of-range encodings).
    #[test]
    fn ingest_requests_roundtrip(
        rows in proptest::collection::vec(any::<u32>(), 0..200),
        name_idx in 0usize..4,
    ) {
        let name = ["weather", "synth", "t", "a_longer_table_name"][name_idx];
        let req = Request::Ingest { table: name.to_string(), rows };
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn ingested_responses_roundtrip(version in any::<u64>(), rows in any::<u64>()) {
        let resp = Response::Ingested { version, rows };
        prop_assert_eq!(roundtrip_response(&resp), resp);
    }

    // Chopping an Ingest frame anywhere must be a typed error, like every
    // other request family.
    #[test]
    fn truncated_ingest_frames_are_typed_errors(cut in 0usize..60) {
        let full = proto::encode_request(&Request::Ingest {
            table: "weather".to_string(),
            rows: vec![1, 2, 3, 4, 5, 6],
        });
        let cut = cut.min(full.len().saturating_sub(1));
        prop_assert!(proto::decode_request(&full[..cut]).is_err());
    }

    // Chopping a Resume frame anywhere must yield a typed error, exactly
    // like the Query family.
    #[test]
    fn truncated_resume_frames_are_typed_errors(cut in 0usize..80) {
        let mut query = QueryRequest::new("a_table_name", 7);
        query.selections = vec![(0, vec![1, 2, 3]), (2, vec![4])];
        query.dims = Some(0b1011);
        let full = proto::encode_request(&Request::Resume {
            query_id: 0xDEAD_BEEF,
            next_seq: 42,
            query,
        });
        let cut = cut.min(full.len().saturating_sub(1));
        prop_assert!(proto::decode_request(&full[..cut]).is_err());
    }

    // Chopping a seq-numbered Batch frame anywhere is typed too.
    #[test]
    fn truncated_batch_frames_are_typed_errors(cut in 0usize..100) {
        let block = CellBlock {
            dims: 3,
            values: (0..30).collect(),
            counts: (1..=10).collect(),
        };
        let full = proto::encode_response(&Response::Batch {
            query_id: 7,
            seq: 3,
            version: 1,
            block,
        });
        let cut = cut.min(full.len().saturating_sub(1));
        prop_assert!(proto::decode_response(&full[..cut]).is_err());
    }

    // The decoders must be total: arbitrary bytes either decode or return a
    // typed error — no panics, no OOM (lengths are validated before any
    // allocation is sized from them).
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = proto::decode_request(&payload);
        let _ = proto::decode_response(&payload);
    }

    // Chopping a valid frame anywhere yields Truncated (or another typed
    // error for prefixes that alias a smaller valid frame family) — never
    // a panic.
    #[test]
    fn truncated_frames_are_typed_errors(cut in 0usize..64) {
        let mut req = QueryRequest::new("a_table_name", 7);
        req.selections = vec![(0, vec![1, 2, 3]), (2, vec![4])];
        req.dims = Some(0b1011);
        let full = proto::encode_request(&Request::Query(req));
        let cut = cut.min(full.len().saturating_sub(1));
        let err = proto::decode_request(&full[..cut]);
        prop_assert!(err.is_err());
    }
}

// ------------------------------------------------ coalesced write/read path

/// One arbitrary server→client frame: `kind` picks the family, `n` sizes
/// it. A 1000-cell `Batch` is up to ~40 KB, so a few dozen frames cross
/// [`WIRE_BUF`] and make the writer flush on its own.
fn arbitrary_response(kind: u8, a: u64, n: usize, dims: u16) -> Response {
    match kind % 7 {
        0 | 1 => Response::Batch {
            query_id: a,
            seq: n as u64,
            version: a >> 32,
            block: CellBlock {
                dims,
                values: (0..n * dims as usize)
                    .map(|i| (a as u32).wrapping_add(i as u32))
                    .collect(),
                counts: (0..n as u64).map(|i| a ^ i).collect(),
            },
        },
        2 => Response::Heartbeat { query_id: a },
        3 => Response::Done(DoneStats {
            query_id: a,
            version: 1,
            cells: n as u64,
            elapsed_micros: a >> 8,
            peak_buffered_bytes: a >> 4,
            tasks: n as u64,
            fast_path: a.is_multiple_of(2),
        }),
        4 => Response::Error {
            status: WireStatus::Internal,
            detail: "e".repeat(n),
        },
        5 => Response::Overloaded { retry_after_ms: a },
        _ => Response::Pong,
    }
}

/// A socket send side that accepts at most `lens[i]` bytes per `write`
/// call (cycling) into a shared byte log.
struct ShortWrites {
    bytes: Rc<RefCell<Vec<u8>>>,
    lens: Vec<usize>,
    calls: usize,
}

impl Write for ShortWrites {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.lens[self.calls % self.lens.len()]);
        self.calls += 1;
        self.bytes.borrow_mut().extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A socket receive side that hands out at most `lens[i]` bytes per `read`
/// call (cycling): arbitrary segmentation of the byte stream.
struct ShortReads<'a> {
    bytes: &'a [u8],
    lens: Vec<usize>,
    calls: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf
            .len()
            .min(self.bytes.len())
            .min(self.lens[self.calls % self.lens.len()]);
        self.calls += 1;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// `wire` read through a `read_buf`-byte buffer over arbitrary short reads.
fn buffered(wire: &[u8], read_lens: Vec<usize>, read_buf: usize) -> impl Read + '_ {
    BufReader::with_capacity(
        read_buf,
        ShortReads {
            bytes: wire,
            lens: read_lens,
            calls: 0,
        },
    )
}

proptest! {
    // The writer changes only how frames are grouped into writes: whatever
    // the flush points and however the bytes are split on the way out and
    // back in, the buffered reader sees exactly the frames that one
    // `write_frame` per frame would have sent.
    #[test]
    fn coalesced_frames_read_back_identically(
        frames in proptest::collection::vec(
            ((0u8..7, any::<u64>()), (0usize..1000, 1u16..8, 0u8..24)),
            1..64,
        ),
        write_lens in proptest::collection::vec(1usize..5000, 1..8),
        read_lens in proptest::collection::vec(1usize..5000, 1..8),
        read_buf in 1usize..70_000,
    ) {
        let sent: Vec<Response> = frames
            .iter()
            .map(|&((kind, a), (n, dims, _))| arbitrary_response(kind, a, n, dims))
            .collect();
        let wire = Rc::new(RefCell::new(Vec::new()));
        let mut out = FrameWriter::new(ShortWrites {
            bytes: Rc::clone(&wire),
            lens: write_lens,
            calls: 0,
        });
        let mut expected = Vec::new();
        for (resp, &(_, (.., flush_roll))) in sent.iter().zip(&frames) {
            let written = wire.borrow().len();
            proto::write_frame(&mut expected, &proto::encode_response(resp)).unwrap();
            let flushed = out.push(resp).unwrap();
            // A push writes only once the queued bytes reach the cap.
            prop_assert_eq!(flushed, expected.len() - written >= WIRE_BUF);
            prop_assert_eq!(flushed, wire.borrow().len() == expected.len());
            // An explicit flush after one frame in 24.
            if flush_roll == 0 {
                out.flush().unwrap();
                prop_assert_eq!(wire.borrow().len(), expected.len());
            }
        }
        out.flush().unwrap();
        prop_assert!(out.is_empty());
        let wire = wire.borrow();
        prop_assert!(*wire == expected, "coalesced bytes differ from per-frame writes");

        let mut reader = buffered(&wire, read_lens, read_buf);
        for resp in &sent {
            match proto::read_frame(&mut reader).unwrap() {
                FrameRead::Frame(payload) => {
                    prop_assert_eq!(&proto::decode_response(&payload).unwrap(), resp);
                }
                other => panic!("wanted Frame, got {}", discriminant_name(&other)),
            }
        }
        prop_assert!(matches!(proto::read_frame(&mut reader).unwrap(), FrameRead::Eof));
    }

    // Buffering keeps the reader's end-of-stream contract: cut the stream
    // at a frame boundary and the reader ends with a clean `Eof`; cut it
    // inside a frame and it ends with a torn-frame `UnexpectedEof`.
    #[test]
    fn buffered_reads_keep_eof_semantics(
        frames in proptest::collection::vec((0u8..7, any::<u64>(), 0usize..40, 1u16..8), 1..12),
        cut in any::<u64>(),
        read_lens in proptest::collection::vec(1usize..300, 1..8),
        read_buf in 1usize..4096,
    ) {
        let mut wire = Vec::new();
        let mut boundaries = vec![0];
        for &(kind, a, n, dims) in &frames {
            proto::encode_response_into(&mut wire, &arbitrary_response(kind, a, n, dims));
            boundaries.push(wire.len());
        }
        let cut = (cut % (wire.len() as u64 + 1)) as usize;
        let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let mut reader = buffered(&wire[..cut], read_lens, read_buf);
        for _ in 0..whole {
            prop_assert!(matches!(proto::read_frame(&mut reader).unwrap(), FrameRead::Frame(_)));
        }
        match proto::read_frame(&mut reader) {
            Ok(FrameRead::Eof) => prop_assert!(boundaries.contains(&cut)),
            Err(e) => {
                prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
                prop_assert!(!boundaries.contains(&cut));
            }
            Ok(other) => panic!("wanted the end of the stream, got {}", discriminant_name(&other)),
        }
    }
}

// ------------------------------------------------------- targeted attacks

#[test]
fn every_status_code_roundtrips() {
    for status in [
        WireStatus::Cancelled,
        WireStatus::DeadlineExceeded,
        WireStatus::BudgetExceeded,
        WireStatus::WorkerPanicked,
        WireStatus::BadRequest,
        WireStatus::UnknownTable,
        WireStatus::ShuttingDown,
        WireStatus::Protocol,
        WireStatus::Internal,
        WireStatus::Wedged,
        WireStatus::VersionMismatch,
    ] {
        let resp = Response::Error {
            status,
            detail: "why".to_string(),
        };
        assert_eq!(roundtrip_response(&resp), resp);
    }
}

#[test]
fn retryable_statuses_split_transient_from_terminal() {
    for status in [
        WireStatus::Cancelled,
        WireStatus::WorkerPanicked,
        WireStatus::ShuttingDown,
        WireStatus::Internal,
        WireStatus::Wedged,
    ] {
        assert!(status.retryable(), "{status:?} should be retryable");
    }
    for status in [
        WireStatus::DeadlineExceeded,
        WireStatus::BudgetExceeded,
        WireStatus::BadRequest,
        WireStatus::UnknownTable,
        WireStatus::Protocol,
        // A resume spanning an ingest must not be blindly re-attempted:
        // the stream it would splice into no longer exists.
        WireStatus::VersionMismatch,
    ] {
        assert!(!status.retryable(), "{status:?} should be terminal");
    }
}

#[test]
fn resume_serializes_the_query_body_verbatim() {
    // The resume skip is only sound if the embedded request re-executes
    // identically — its wire body must be byte-for-byte the Query body.
    let mut query = QueryRequest::new("weather", 3);
    query.dims = Some(0b101);
    query.selections = vec![(1, vec![2, 3])];
    let plain = proto::encode_request(&Request::Query(query.clone()));
    let resume = proto::encode_request(&Request::Resume {
        query_id: 9,
        next_seq: 4,
        query,
    });
    // Resume layout: opcode, u64 query_id, u64 next_seq, then the body.
    assert_eq!(&resume[17..], &plain[1..]);
}

#[test]
fn control_frames_roundtrip() {
    assert_eq!(roundtrip_request(&Request::Ping), Request::Ping);
    assert_eq!(roundtrip_request(&Request::Tables), Request::Tables);
    assert_eq!(roundtrip_response(&Response::Pong), Response::Pong);
    let tables = Response::TableList(vec![TableInfo {
        name: "synth".to_string(),
        rows: 1_000_000,
        dims: 12,
        version: 3,
    }]);
    assert_eq!(roundtrip_response(&tables), tables);
}

#[test]
fn empty_payload_is_a_typed_error() {
    assert_eq!(proto::decode_request(&[]), Err(ProtoError::EmptyFrame));
    assert_eq!(proto::decode_response(&[]), Err(ProtoError::EmptyFrame));
}

#[test]
fn unknown_opcodes_are_typed_errors() {
    assert_eq!(
        proto::decode_request(&[0x7F]),
        Err(ProtoError::UnknownOpcode(0x7F))
    );
    // Response opcodes are not request opcodes and vice versa.
    assert_eq!(
        proto::decode_request(&proto::encode_response(&Response::Pong)),
        Err(ProtoError::UnknownOpcode(0x85))
    );
    assert_eq!(
        proto::decode_response(&proto::encode_request(&Request::Ping)),
        Err(ProtoError::UnknownOpcode(0x02))
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = proto::encode_request(&Request::Ping);
    payload.push(0);
    assert_eq!(
        proto::decode_request(&payload),
        Err(ProtoError::Trailing { extra: 1 })
    );
}

#[test]
fn corrupt_enum_tags_are_typed_errors() {
    let mut payload = proto::encode_request(&Request::Query(QueryRequest::new("t", 1)));
    // Layout after the opcode: str(table) = 2 + 1 bytes, min_sup = 8, then
    // the algorithm byte at offset 12.
    payload[12] = 0x42;
    assert_eq!(
        proto::decode_request(&payload),
        Err(ProtoError::BadValue("algorithm"))
    );
    let mut payload = proto::encode_request(&Request::Query(QueryRequest::new("t", 1)));
    payload[13] = 9; // closed flag ∉ {0,1,2}
    assert_eq!(
        proto::decode_request(&payload),
        Err(ProtoError::BadValue("closed flag"))
    );
}

#[test]
fn allocation_bomb_counts_are_rejected_before_allocating() {
    // A Batch frame claiming u32::MAX cells with a 10-byte body: the
    // declared count must be validated against the remaining bytes, not
    // trusted as a Vec capacity.
    let mut payload = vec![0x81];
    payload.extend_from_slice(&1u64.to_le_bytes()); // query_id
    payload.extend_from_slice(&0u64.to_le_bytes()); // seq
    payload.extend_from_slice(&1u64.to_le_bytes()); // version
    payload.extend_from_slice(&4u16.to_le_bytes()); // dims
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // cells
    payload.extend_from_slice(&[0u8; 10]);
    assert_eq!(proto::decode_response(&payload), Err(ProtoError::Truncated));

    // Same for a selection list in a query.
    let mut payload = proto::encode_request(&Request::Query(QueryRequest::new("t", 1)));
    let n = payload.len();
    payload[n - 2..].copy_from_slice(&u16::MAX.to_le_bytes()); // selection count
    assert_eq!(proto::decode_request(&payload), Err(ProtoError::Truncated));

    // And for an Ingest row count: a frame claiming u32::MAX tuples with a
    // near-empty body must fail before sizing a Vec from the claim.
    let mut payload = vec![0x05];
    payload.extend_from_slice(&1u16.to_le_bytes()); // name length
    payload.push(b't');
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // row count
    payload.extend_from_slice(&[0u8; 10]);
    assert_eq!(proto::decode_request(&payload), Err(ProtoError::Truncated));
}

#[test]
fn oversized_and_empty_frame_headers_are_rejected_by_the_reader() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&((proto::MAX_PAYLOAD as u32) + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]);
    match proto::read_frame(&mut wire.as_slice()).unwrap() {
        FrameRead::Malformed(ProtoError::Oversized { len }) => {
            assert_eq!(len, proto::MAX_PAYLOAD as u64 + 1);
        }
        other => panic!("wanted Oversized, got {:?}", discriminant_name(&other)),
    }

    let zero = 0u32.to_le_bytes();
    match proto::read_frame(&mut zero.as_slice()).unwrap() {
        FrameRead::Malformed(ProtoError::EmptyFrame) => {}
        other => panic!("wanted EmptyFrame, got {:?}", discriminant_name(&other)),
    }
}

#[test]
fn frame_reader_distinguishes_clean_eof_from_torn_frames() {
    // Clean EOF at a boundary.
    match proto::read_frame(&mut [].as_slice()).unwrap() {
        FrameRead::Eof => {}
        other => panic!("wanted Eof, got {:?}", discriminant_name(&other)),
    }
    // EOF mid-header and mid-payload are i/o errors (torn frame).
    let torn_header = [5u8, 0];
    assert!(proto::read_frame(&mut torn_header.as_slice()).is_err());
    let mut torn_payload = Vec::new();
    torn_payload.extend_from_slice(&100u32.to_le_bytes());
    torn_payload.extend_from_slice(&[1, 2, 3]);
    assert!(proto::read_frame(&mut torn_payload.as_slice()).is_err());
}

#[test]
fn frame_writer_then_reader_roundtrips() {
    let payload = proto::encode_request(&Request::Query(QueryRequest::new("weather", 3)));
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, &payload).unwrap();
    match proto::read_frame(&mut wire.as_slice()).unwrap() {
        FrameRead::Frame(read_back) => assert_eq!(read_back, payload),
        other => panic!("wanted Frame, got {:?}", discriminant_name(&other)),
    }
}

fn discriminant_name(r: &FrameRead) -> &'static str {
    match r {
        FrameRead::Frame(_) => "Frame",
        FrameRead::Eof => "Eof",
        FrameRead::Malformed(_) => "Malformed",
    }
}
