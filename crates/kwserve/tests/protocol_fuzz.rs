//! Decoder fuzzing: the `lattice_io` lesson applied to the wire protocol.
//!
//! Every request/response codec (and the canonical report codec) is driven
//! through an every-byte truncation corpus and a bit-flip corpus built from
//! real encoded frames. The contract under attack input is: **typed
//! [`WireError`]s, never a panic, never an allocation sized by attacker
//! bytes** — length fields are validated against the remaining input (and
//! `MAX_FRAME`) before any buffer is reserved, so a flipped length byte
//! costs a refusal, not memory.

use std::io::Cursor;
use std::time::Duration;

use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::traversal::StrategyKind;
use kwserve::protocol::{
    decode_report, decode_request, decode_response, encode_report, encode_request,
    encode_response, read_frame, ErrorCode, FrameReader, Request, Response, MAX_FRAME, VERSION,
};
use relengine::{DataType, Database, DatabaseBuilder, Value};

/// Minimal saffron-candle store (same shape as the loopback fixture) — just
/// enough to mint a real report payload for the report-codec corpus.
fn store_db() -> Database {
    let mut b = DatabaseBuilder::new();
    b.table("ptype").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
    b.table("item")
        .column("id", DataType::Int)
        .column("name", DataType::Text)
        .column("ptype_id", DataType::Int)
        .column("color_id", DataType::Int)
        .primary_key("id");
    b.table("color").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
    b.foreign_key("item", "ptype_id", "ptype", "id").unwrap();
    b.foreign_key("item", "color_id", "color", "id").unwrap();
    let mut db = b.finish().unwrap();
    db.insert_values("ptype", vec![Value::Int(1), Value::text("candle")]).unwrap();
    db.insert_values("color", vec![Value::Int(1), Value::text("saffron")]).unwrap();
    db.insert_values("item", vec![Value::Int(1), Value::text("pillar"), Value::Int(1), Value::Int(1)])
        .unwrap();
    db
}

fn request_corpus() -> Vec<Vec<u8>> {
    [
        Request::Hello { tenant: "acme".into(), pin_epoch: Some(3) },
        Request::Hello { tenant: String::new(), pin_epoch: None },
        Request::Debug { strategy: None, query: "saffron candle".into() },
        Request::Debug { strategy: Some(StrategyKind::BottomUp), query: "x".into() },
        Request::Metrics,
        Request::Bye,
    ]
    .iter()
    .map(encode_request)
    .collect()
}

fn response_corpus() -> Vec<Vec<u8>> {
    [
        Response::Welcome { session_id: 42, epoch: 9 },
        Response::Report { degraded: true, server_ns: 123_456, payload: vec![9, 8, 7, 6] },
        Response::MetricsJson { json: "{\"a\":1}".into() },
        Response::ByeAck,
        Response::error(ErrorCode::Malformed, "bad"),
        Response::overloaded(Duration::from_millis(250), "busy"),
    ]
    .iter()
    .map(encode_response)
    .collect()
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for payload in request_corpus() {
        for cut in 0..payload.len() {
            assert!(
                decode_request(&payload[..cut]).is_err(),
                "request prefix of {cut}/{} bytes must not decode",
                payload.len()
            );
        }
        assert!(decode_request(&payload).is_ok(), "whole frame round-trips");
    }
    for payload in response_corpus() {
        for cut in 0..payload.len() {
            assert!(
                decode_response(&payload[..cut]).is_err(),
                "response prefix of {cut}/{} bytes must not decode",
                payload.len()
            );
        }
        assert!(decode_response(&payload).is_ok(), "whole frame round-trips");
    }
}

#[test]
fn every_truncation_of_a_report_payload_is_a_typed_error() {
    let system = NonAnswerDebugger::new(
        store_db(),
        DebugConfig { max_joins: 2, ..DebugConfig::default() },
    )
    .unwrap();
    let payload = encode_report(&system.debug("saffron candle").unwrap());
    assert!(decode_report(&payload).is_ok());
    for cut in 0..payload.len() {
        assert!(
            decode_report(&payload[..cut]).is_err(),
            "report prefix of {cut}/{} bytes must not decode",
            payload.len()
        );
    }
}

/// Bit flips must never panic or over-allocate; they may legally decode
/// (a flipped byte inside a string is still a string) or fail typed.
#[test]
fn bit_flips_never_panic_any_decoder() {
    let system = NonAnswerDebugger::new(
        store_db(),
        DebugConfig { max_joins: 2, ..DebugConfig::default() },
    )
    .unwrap();
    let report = encode_report(&system.debug("saffron candle").unwrap());
    for payload in request_corpus() {
        fuzz_bits(&payload, |bytes| {
            let _ = decode_request(bytes);
        });
    }
    for payload in response_corpus() {
        fuzz_bits(&payload, |bytes| {
            let _ = decode_response(bytes);
        });
    }
    fuzz_bits(&report, |bytes| {
        let _ = decode_report(bytes);
    });
}

/// Frames of the previous protocol version are refused, not misread: a
/// version-4 `Hello`, and a report whose probes block still carries the
/// counter version 5 dropped (one trailing `u64` after the only
/// interpretation).
#[test]
fn previous_version_frames_are_refused() {
    let mut hello = encode_request(&Request::Hello { tenant: "t".into(), pin_epoch: None });
    hello[5..7].copy_from_slice(&(VERSION - 1).to_le_bytes());
    assert!(decode_request(&hello).is_err(), "a version-{} hello", VERSION - 1);

    let system = NonAnswerDebugger::new(
        store_db(),
        DebugConfig { max_joins: 2, ..DebugConfig::default() },
    )
    .unwrap();
    let report = system.debug("saffron candle").unwrap();
    assert_eq!(report.interpretations.len(), 1);
    let mut payload = encode_report(&report);
    payload.extend_from_slice(&[0u8; 8]);
    assert!(decode_report(&payload).is_err(), "a 20-counter probes block");
}

fn fuzz_bits(payload: &[u8], check: impl Fn(&[u8])) {
    let mut mutated = payload.to_vec();
    for i in 0..mutated.len() {
        for mask in [0x01u8, 0x80] {
            mutated[i] ^= mask;
            check(&mutated);
            mutated[i] ^= mask;
        }
    }
    debug_assert_eq!(mutated, payload, "fuzzing restores the frame");
}

/// A hostile length prefix is refused before any allocation happens —
/// `read_frame`/`FrameReader` reject it from the four prefix bytes alone.
#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    for claimed in [MAX_FRAME + 1, u32::MAX] {
        let mut wire = claimed.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "typed refusal");

        let mut reader = FrameReader::new();
        let err = reader.poll(&mut Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(reader.bytes_read() <= 4 + 16, "only the prefix was consumed");
    }
}
