//! Protocol fuzzing: arbitrary byte mutations of valid frames — and
//! outright garbage — must yield `Error::Protocol` (or a correct
//! parse), never a panic, a wrong-variant error, or an oversized
//! allocation. The wire surface is hostile-input territory: every
//! length and count field is attacker-controlled, so the decoders must
//! bound-check everything before trusting it.

use proptest::prelude::*;
use risgraph_common::ids::{Edge, Update};
use risgraph_common::metrics::{HistogramSummary, MetricValue};
use risgraph_common::protocol::{
    read_frame, write_frame, BusyCause, FeedRecord, Request, Response, WireError, FRAME_HEADER,
    MAX_FRAME, MAX_RESPONSE_FRAME,
};
use risgraph_common::Error;

/// A valid request payload, parameterized by the fuzz inputs.
fn sample_request(pick: u64, a: u64, b: u64, c: u64) -> Vec<u8> {
    let req = match pick % 11 {
        0 => Request::Update(Update::InsEdge(Edge::new(a, b, c))),
        1 => Request::Update(Update::DelVertex(a)),
        2 => Request::Txn(vec![
            Update::InsEdge(Edge::new(a, b, c)),
            Update::DelEdge(Edge::new(b, a, c)),
            Update::InsVertex(a ^ b),
        ]),
        3 => Request::GetValue {
            algo: a as u32,
            version: b,
            vertex: c,
        },
        4 => Request::GetModified {
            algo: a as u32,
            version: b,
        },
        5 => Request::Release(a),
        6 => Request::Subscribe { from: a },
        7 => Request::Hello { version: a as u32 },
        // The protocol-v2 session wrapper around an inner request.
        8 => Request::InSession {
            sid: b,
            req: Box::new(Request::Update(Update::InsEdge(Edge::new(a, b, c)))),
        },
        9 => Request::Metrics,
        _ => Request::CurrentVersion,
    };
    req.encode(a.wrapping_add(1))
}

/// A valid response payload, parameterized by the fuzz inputs.
fn sample_response(pick: u64, a: u64, b: u64, c: u64) -> Vec<u8> {
    let resp = match pick % 11 {
        8 => Response::Hello { version: a as u32 },
        0 => Response::Applied {
            version: a,
            safe: b.is_multiple_of(2),
            result_changes: c,
        },
        1 => Response::Failed {
            version: a,
            error: WireError::from_error(&Error::Protocol(format!("fuzz {b}"))),
        },
        2 => Response::Value(a),
        3 => Response::Parent(Some(Edge::new(a, b, c))),
        4 => Response::Modified(vec![a, b, c, a ^ b]),
        5 => Response::SnapshotChunk(vec![
            Update::InsVertex(a),
            Update::DelEdge(Edge::new(b, c, a)),
        ]),
        6 => Response::WalEpoch(FeedRecord {
            index: a,
            bootstrap: !b.is_multiple_of(2),
            safe_versions: b % 7,
            safe_updates: vec![Update::InsEdge(Edge::new(a, b, c)), Update::DelVertex(c)],
            unsafe_groups: vec![vec![Update::InsEdge(Edge::new(b, c, a))], vec![]],
        }),
        10 => Response::Busy {
            cause: BusyCause::from_code((b % 7) as u8),
            message: format!("fuzz busy {c}"),
        },
        9 => Response::Metrics(vec![
            (format!("core.fuzz_{b}"), MetricValue::Counter(a)),
            ("net.worker.0.sessions".into(), MetricValue::Gauge(c)),
            (
                "epoch.phase.safe_execute_ns".into(),
                MetricValue::Histogram(HistogramSummary {
                    count: b,
                    min_ns: a.min(c),
                    max_ns: a.max(c),
                    p50_ns: a,
                    p99_ns: c,
                    p999_ns: a ^ c,
                }),
            ),
        ]),
        _ => Response::Heartbeat {
            records: a,
            version: b,
        },
    };
    resp.encode(c.wrapping_add(1))
}

/// Decoding must be total: `Ok` or `Error::Protocol`, nothing else —
/// in particular no panic and no non-protocol error variant.
fn assert_total_request(payload: &[u8]) -> Result<(), String> {
    match Request::decode(payload) {
        Ok(_) => Ok(()),
        Err(Error::Protocol(_)) => Ok(()),
        Err(other) => Err(format!("non-protocol decode error: {other:?}")),
    }
}

fn assert_total_response(payload: &[u8]) -> Result<(), String> {
    match Response::decode(payload) {
        Ok(_) => Ok(()),
        Err(Error::Protocol(_)) => Ok(()),
        Err(other) => Err(format!("non-protocol decode error: {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn garbage_payloads_never_panic(
        bytes in proptest::collection::vec(0..=255u8, 0..64),
    ) {
        assert_total_request(&bytes)?;
        assert_total_response(&bytes)?;
    }

    /// Flip one payload byte under the CRC: the frame layer must reject
    /// the frame — the decoders never even see the corruption.
    #[test]
    fn payload_byte_flips_are_caught_by_the_crc(
        pick in 0..90u64,
        a in 0..u64::MAX,
        b in 0..1000u64,
        c in 0..1000u64,
        pos in 0..4096usize,
        xor in 1..=255u8,
        response in proptest::bool::ANY,
    ) {
        let payload = if response {
            sample_response(pick, a, b, c)
        } else {
            sample_request(pick, a, b, c)
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        let i = FRAME_HEADER + pos % payload.len().max(1);
        frame[i] ^= xor;
        match read_frame(&mut &frame[..], MAX_RESPONSE_FRAME) {
            Err(Error::Protocol(_)) => {}
            other => return Err(format!(
                "corrupted frame (byte {i} ^ {xor:#x}) not rejected: {other:?}"
            )),
        }
    }

    /// Mutate anywhere in the frame — header included — and also
    /// truncate: the reader and decoders must stay total, and any
    /// frame that *does* survive framing must decode to `Ok` or
    /// `Error::Protocol`.
    #[test]
    fn arbitrary_frame_mutations_stay_total(
        pick in 0..90u64,
        a in 0..u64::MAX,
        b in 0..1000u64,
        c in 0..1000u64,
        flips in proptest::collection::vec((0..4096usize, 0..=255u8), 0..4),
        cut in 0..4096usize,
        response in proptest::bool::ANY,
    ) {
        let payload = if response {
            sample_response(pick, a, b, c)
        } else {
            sample_request(pick, a, b, c)
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        for &(pos, xor) in &flips {
            let i = pos % frame.len();
            frame[i] ^= xor;
        }
        frame.truncate(frame.len() - cut % frame.len());
        let mut reader = &frame[..];
        loop {
            match read_frame(&mut reader, MAX_FRAME) {
                Ok(Some(p)) => {
                    assert_total_request(&p)?;
                    assert_total_response(&p)?;
                }
                Ok(None) => break,           // clean EOF
                Err(Error::Protocol(_)) => break, // rejected cleanly
                Err(other) => {
                    return Err(format!("non-protocol frame error: {other:?}"));
                }
            }
        }
    }

    /// Forged length headers far beyond the receiver's limit must be
    /// refused *before* any allocation, whatever follows them.
    #[test]
    fn forged_lengths_are_rejected_before_allocation(
        len in (MAX_FRAME as u64 + 1)..=u32::MAX as u64,
        crc in 0..u32::MAX,
        tail in proptest::collection::vec(0..=255u8, 0..16),
    ) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(&tail);
        match read_frame(&mut &frame[..], MAX_FRAME) {
            Err(Error::Protocol(msg)) => {
                prop_assert!(msg.contains("oversized"), "wrong rejection: {msg}");
            }
            other => return Err(format!("oversized frame accepted: {other:?}")),
        }
    }

    /// Session wrappers (protocol v2) roundtrip for every session id,
    /// and the allocation-free [`Request::encode_in_session`] fast
    /// path is byte-identical to encoding the wrapped value.
    #[test]
    fn session_wrappers_roundtrip_for_any_sid(
        sid in 0..u64::MAX,
        req_id in 0..u64::MAX,
        a in 0..u64::MAX,
        b in 0..1000u64,
        c in 0..1000u64,
    ) {
        let inner = Request::Update(Update::InsEdge(Edge::new(a, b, c)));
        let wrapped = Request::InSession { sid, req: Box::new(inner.clone()) };
        let payload = wrapped.encode(req_id);
        prop_assert_eq!(&payload, &inner.encode_in_session(req_id, sid));
        let (got_id, got) = Request::decode(&payload).unwrap();
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got, wrapped);
    }

    /// A wrapper whose session id is cut short must be a protocol
    /// error — a malformed sid never aliases into a valid request.
    #[test]
    fn truncated_session_ids_are_protocol_errors(
        sid in 0..u64::MAX,
        cut in 1..=8usize,
    ) {
        let payload = Request::CurrentVersion.encode_in_session(1, sid);
        // [req_id: 8][0x51][sid: 8][inner]; cutting inside the sid (or
        // right through it, removing the inner opcode too) leaves an
        // incomplete wrapper.
        let truncated = &payload[..9 + (8 - cut)];
        match Request::decode(truncated) {
            Err(Error::Protocol(_)) => {}
            other => return Err(format!("truncated sid not rejected: {other:?}")),
        }
    }

    /// Nested wrappers are rejected at decode, whatever the sids: the
    /// forgery is built with `encode_in_session` on an already-wrapped
    /// request, which the normal encoder refuses to produce.
    #[test]
    fn nested_session_wrappers_are_rejected(
        outer in 0..u64::MAX,
        inner in 0..u64::MAX,
    ) {
        let wrapped = Request::InSession {
            sid: inner,
            req: Box::new(Request::Metrics),
        };
        let forged = wrapped.encode_in_session(3, outer);
        match Request::decode(&forged) {
            Err(Error::Protocol(msg)) => {
                prop_assert!(msg.contains("nested"), "wrong rejection: {msg}");
            }
            other => return Err(format!("nested wrapper accepted: {other:?}")),
        }
    }

    /// The `Hello` carriers roundtrip for *every* version value — 0, 1,
    /// the current version, and far-future ones — because a client may
    /// announce a version the server does not speak.
    #[test]
    fn hello_versions_roundtrip_including_unknown_ones(
        version in 0..=u32::MAX,
        req_id in 0..u64::MAX,
    ) {
        let req = Request::Hello { version };
        prop_assert_eq!(Request::decode(&req.encode(req_id)).unwrap(), (req_id, req));
        let resp = Response::Hello { version };
        prop_assert_eq!(Response::decode(&resp.encode(req_id)).unwrap(), (req_id, resp));
    }

    /// METRICS bodies roundtrip for arbitrary names and values —
    /// including empty names and empty snapshots.
    #[test]
    fn metrics_snapshots_roundtrip(
        req_id in 0..u64::MAX,
        name_seeds in proptest::collection::vec(0..1000u64, 0..8),
        a in 0..u64::MAX,
        b in 0..u64::MAX,
    ) {
        let entries: Vec<(String, MetricValue)> = name_seeds
            .iter()
            .enumerate()
            .map(|(i, seed)| {
                // Exercise empty and dotted names without a regex
                // strategy (the vendored proptest has no regex support).
                let name = if seed % 5 == 0 {
                    String::new()
                } else {
                    format!("sub_{}.metric_{seed}", i % 3)
                };
                let value = match i % 3 {
                    0 => MetricValue::Counter(a.wrapping_add(i as u64)),
                    1 => MetricValue::Gauge(b.wrapping_add(i as u64)),
                    _ => MetricValue::Histogram(HistogramSummary {
                        count: i as u64,
                        min_ns: a.min(b),
                        max_ns: a.max(b),
                        p50_ns: a,
                        p99_ns: b,
                        p999_ns: a ^ b,
                    }),
                };
                (name, value)
            })
            .collect();
        let resp = Response::Metrics(entries);
        prop_assert_eq!(Response::decode(&resp.encode(req_id)).unwrap(), (req_id, resp));
    }

    /// The forward-compatibility contract: entries with unknown kind
    /// tags (or payloads shorter than the kind requires) are skipped,
    /// never fatal — a newer server's additions must not break an old
    /// client. Built by splicing a forged entry between two real ones.
    #[test]
    fn unknown_metric_kinds_are_skipped_not_fatal(
        req_id in 0..u64::MAX,
        kind in 4..=255u8,
        payload in proptest::collection::vec(0..=255u8, 0..32),
        a in 0..u64::MAX,
    ) {
        let mut body = Vec::new();
        body.extend_from_slice(&req_id.to_le_bytes());
        body.push(0x89); // RE_METRICS
        body.extend_from_slice(&3u32.to_le_bytes());
        let put_entry = |body: &mut Vec<u8>, name: &str, kind: u8, payload: &[u8]| {
            body.extend_from_slice(&(name.len() as u32).to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            body.push(kind);
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(payload);
        };
        put_entry(&mut body, "core.epochs", 1, &a.to_le_bytes());
        put_entry(&mut body, "future.metric", kind, &payload);
        put_entry(&mut body, "core.threshold", 2, &a.to_le_bytes());
        let (got_id, got) = Response::decode(&body).unwrap();
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got, Response::Metrics(vec![
            ("core.epochs".into(), MetricValue::Counter(a)),
            ("core.threshold".into(), MetricValue::Gauge(a)),
        ]));
    }

    /// A known kind whose payload is shorter than the kind requires is
    /// also skipped: a truncating middlebox or a disagreeing peer
    /// loses that entry, not the connection.
    #[test]
    fn short_known_metric_payloads_are_skipped(
        req_id in 0..u64::MAX,
        kind in 1..=3u8,
        short in 0..8usize,
    ) {
        let mut body = Vec::new();
        body.extend_from_slice(&req_id.to_le_bytes());
        body.push(0x89); // RE_METRICS
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(b"runt");
        body.push(kind);
        body.extend_from_slice(&(short as u32).to_le_bytes());
        body.extend(std::iter::repeat_n(0u8, short));
        let (got_id, got) = Response::decode(&body).unwrap();
        prop_assert_eq!(got_id, req_id);
        prop_assert_eq!(got, Response::Metrics(vec![]));
    }

    /// Busy frames roundtrip for every cause and message (empty ones
    /// included), and a forged frame carrying an *unknown* cause byte
    /// decodes totally by folding to `Overloaded` — a newer server's
    /// new shed causes keep their retry semantics on old clients.
    #[test]
    fn busy_frames_roundtrip_and_unknown_causes_fold_to_overloaded(
        req_id in 0..u64::MAX,
        code in 0..=255u8,
        msg_seed in 0..1000u64,
    ) {
        let message = if msg_seed % 7 == 0 {
            String::new()
        } else {
            format!("busy {msg_seed}")
        };
        let resp = Response::Busy {
            cause: BusyCause::from_code(code),
            message: message.clone(),
        };
        prop_assert_eq!(
            Response::decode(&resp.encode(req_id)).unwrap(),
            (req_id, resp)
        );
        // Forge the raw frame with the arbitrary cause byte.
        let mut body = Vec::new();
        body.extend_from_slice(&req_id.to_le_bytes());
        body.push(0x95); // RE_BUSY
        body.push(code);
        body.extend_from_slice(&(message.len() as u32).to_le_bytes());
        body.extend_from_slice(message.as_bytes());
        match Response::decode(&body) {
            Ok((got_id, Response::Busy { cause, message: got_msg })) => {
                prop_assert_eq!(got_id, req_id);
                prop_assert_eq!(got_msg, message);
                if !(1..=4).contains(&code) {
                    prop_assert_eq!(cause, BusyCause::Overloaded);
                }
            }
            other => return Err(format!("forged busy (cause {code}) decoded as {other:?}")),
        }
    }

    /// `Busy` owns its opcode exclusively: no other response — the
    /// entire surface admission predates — can alias into a Busy frame.
    /// Every sampled non-Busy response must carry a different opcode
    /// byte, so a client receives a Busy frame only when the server
    /// deliberately encodes one.
    #[test]
    fn no_v1_surface_response_aliases_into_busy(
        pick in 0..90u64,
        a in 0..u64::MAX,
        b in 0..1000u64,
        c in 0..1000u64,
    ) {
        let payload = sample_response(pick, a, b, c);
        let is_busy_frame = payload[8] == 0x95; // opcode follows req_id
        let decodes_busy = matches!(
            Response::decode(&payload),
            Ok((_, Response::Busy { .. }))
        );
        prop_assert_eq!(
            is_busy_frame,
            decodes_busy,
            "opcode 0x95 must be exactly the Busy frames (pick {})",
            pick
        );
        if pick % 11 != 10 {
            prop_assert!(!decodes_busy, "non-Busy sample decoded as Busy");
        }
    }

    /// `Hello` may not ride inside a session wrapper: negotiation is
    /// connection-scoped, and a forged wrapped Hello must be refused.
    #[test]
    fn hello_inside_a_wrapper_is_rejected(sid in 0..u64::MAX, version in 0..=u32::MAX) {
        let forged = Request::Hello { version }.encode_in_session(5, sid);
        match Request::decode(&forged) {
            Err(Error::Protocol(msg)) => {
                prop_assert!(msg.contains("hello"), "wrong rejection: {msg}");
            }
            other => return Err(format!("wrapped hello accepted: {other:?}")),
        }
    }
}
