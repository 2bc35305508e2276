//! Property tests for the two parsers that face untrusted bytes: the
//! HTTP head/body reader and the sweep-spec JSON validator. The
//! invariant under fuzz is the containment contract — *never panic*;
//! every rejection is a structured error the daemon turns into a 400
//! (or 431/413), not a crash that takes a worker or the accept loop
//! down with it.

use std::io::Cursor;

use proptest::prelude::*;
use rvp_core::Runner;
use rvp_json::Json;
use rvp_serve::http::{read_request, HttpError, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use rvp_serve::SweepSpec;

/// Arbitrary raw bytes, biased toward HTTP-ish octets so the fuzzer
/// spends its cases past the first byte of the request line.
fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512).prop_map(|mut bytes| {
        for b in bytes.iter_mut() {
            // Fold half the space into printable ASCII + CR/LF so
            // request lines, header separators and bodies all occur.
            if *b & 1 == 0 {
                *b = match *b % 6 {
                    0 => b'\r',
                    1 => b'\n',
                    2 => b' ',
                    3 => b':',
                    4 => b'/',
                    _ => b'A' + (*b % 26),
                };
            }
        }
        bytes
    })
}

/// Structured near-miss requests: a valid shape with one knob bent
/// (method casing, huge Content-Length, missing CRLF, stray NULs).
fn near_http() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(any::<u8>(), 0..64), any::<u32>(), any::<u8>()).prop_map(
        |(body, clen, variant)| {
            let clen = match variant % 5 {
                0 => body.len() as u64,
                1 => u64::from(clen),
                2 => MAX_BODY_BYTES as u64 + 1,
                3 => u64::MAX,
                _ => 0,
            };
            let sep = if variant & 0x20 != 0 { "\r\n" } else { "\n" };
            let mut req =
                format!("POST /sweep HTTP/1.1{sep}Host: x{sep}Content-Length: {clen}{sep}{sep}")
                    .into_bytes();
            if variant & 0x40 != 0 {
                req.insert(0, 0); // leading NUL: not a token char
            }
            req.extend_from_slice(&body);
            req
        },
    )
}

/// Every parse of arbitrary bytes must land in the structured error
/// space (or succeed, or report clean EOF) — no panics, no unclassified
/// states. Exercised via `Cursor` so no sockets are involved.
fn assert_contained(bytes: &[u8]) {
    let mut cursor = Cursor::new(bytes);
    match read_request(&mut cursor) {
        Ok(Some(req)) => {
            // A parsed request obeyed both limits on the way in.
            assert!(req.body.len() <= MAX_BODY_BYTES);
            assert!(req.method.len() + req.path.len() + req.query.len() <= MAX_HEAD_BYTES);
        }
        Ok(None) => {} // clean EOF between requests
        Err(HttpError::Malformed(why))
        | Err(HttpError::TooLarge(why))
        | Err(HttpError::Timeout(why)) => {
            assert!(!why.is_empty(), "structured errors must carry a reason");
        }
        Err(HttpError::Io(_)) => {} // truncated mid-request: connection-level
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn head_parser_never_panics_on_arbitrary_bytes(bytes in wire_bytes()) {
        assert_contained(&bytes);
    }

    #[test]
    fn head_parser_never_panics_on_near_miss_requests(bytes in near_http()) {
        assert_contained(&bytes);
    }

    #[test]
    fn oversized_heads_are_rejected_as_too_large(pad in 0usize..4096) {
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + pad));
        req.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let mut cursor = Cursor::new(&req[..]);
        prop_assert!(matches!(
            read_request(&mut cursor),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn sweep_spec_never_panics_on_arbitrary_json_text(bytes in wire_bytes()) {
        let base = Runner { traces: None, ..Runner::default() };
        let text = String::from_utf8_lossy(&bytes);
        // Json::parse rejecting the text IS the 400 path; only a parsed
        // document reaches the spec validator.
        if let Ok(body) = Json::parse(&text) {
            match SweepSpec::from_json(&body, &base) {
                Ok(spec) => prop_assert!(!spec.workloads.is_empty()),
                Err(msg) => prop_assert!(!msg.is_empty()),
            }
        }
    }

    #[test]
    fn sweep_spec_never_panics_on_structured_documents(
        workloads in proptest::collection::vec(any::<u16>(), 0..4),
        schemes in proptest::collection::vec(any::<u16>(), 0..4),
        threshold in any::<u64>(),
        insts in any::<u64>(),
        scale in any::<u64>(),
    ) {
        let base = Runner { traces: None, ..Runner::default() };
        // Names drawn from a pool of valid, near-valid and junk tokens,
        // so both registry hits and 400s occur in the same document.
        let name = |n: u16| match n % 5 {
            0 => "li".to_owned(),
            1 => "lvp".to_owned(),
            2 => "drvp_all:entries=4096".to_owned(),
            3 => String::new(),
            _ => format!("junk_{n}"),
        };
        let body = Json::obj(vec![
            ("workloads", Json::arr(workloads.into_iter().map(|n| Json::from(name(n))))),
            ("schemes", Json::arr(schemes.into_iter().map(|n| Json::from(name(n))))),
            ("threshold", (threshold as f64 / u64::MAX as f64).into()),
            ("measure_insts", insts.into()),
            ("scale", scale.into()),
        ]);
        match SweepSpec::from_json(&body, &base) {
            Ok(spec) => {
                // Whatever validated must be within admission bounds.
                prop_assert!(spec.measure_insts <= rvp_serve::spec::MAX_INSTS);
                prop_assert!(spec.workload_scale <= rvp_serve::spec::MAX_SCALE);
            }
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
    }
}
