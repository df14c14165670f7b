//! Property tests over untrusted RGNP input: arbitrary bytes (0–512) fed
//! through the frame decoder, the predict payload decoders, and the admin
//! verb parser. None may panic; each returns a typed error or a value that
//! re-encodes to the bytes it was decoded from.

use proptest::prelude::*;
use reghd_net::frame::{self, FrameBuf, PredictionTier, Step, HEADER_AFTER_LEN};
use reghd_serve::admin::parse_verb;

/// Upper bound on generated input, per the untrusted-input contract.
const MAX_INPUT: usize = 512;

/// Strips the 13-byte frame header off one encoded frame.
fn payload_of(frame_bytes: &[u8]) -> &[u8] {
    &frame_bytes[4 + HEADER_AFTER_LEN..]
}

/// A decoded payload re-encodes to its input, except that an explicit
/// full-tier byte (`0x00`) is the default and is normalised away.
fn same_modulo_full_tier_byte(input: &[u8], reencoded: &[u8], tier: PredictionTier) -> bool {
    input == reencoded
        || (tier == PredictionTier::Full && input.strip_suffix(&[0x00]) == Some(reencoded))
}

fn check_predict(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = frame::decode_predict(payload) {
        let mut out = Vec::new();
        frame::encode_predict_tier(&mut out, 0, req.model, &req.row, req.tier);
        prop_assert!(
            same_modulo_full_tier_byte(payload, payload_of(&out), req.tier),
            "predict payload {payload:?} re-encoded as {:?}",
            payload_of(&out)
        );
    }
    Ok(())
}

fn check_predict_batch(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(req) = frame::decode_predict_batch(payload) {
        let mut out = Vec::new();
        frame::encode_predict_batch_tier(&mut out, 0, req.model, &req.rows, req.tier);
        prop_assert!(
            same_modulo_full_tier_byte(payload, payload_of(&out), req.tier),
            "batch payload {payload:?} re-encoded as {:?}",
            payload_of(&out)
        );
    }
    Ok(())
}

/// Near-valid predict payloads: a short name, a small announced count,
/// and a few feature bytes, so the success path is reached often.
fn near_predict_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        0u16..4,
        prop::collection::vec(any::<u8>(), 0..5),
        0u32..4,
        prop::collection::vec(any::<u8>(), 0..18),
    )
        .prop_map(|(name_len, name, n, tail)| {
            let mut p = name_len.to_le_bytes().to_vec();
            p.extend(name);
            p.extend(n.to_le_bytes());
            p.extend(tail);
            p
        })
}

/// Near-valid batch payloads (see [`near_predict_payload`]).
fn near_batch_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(b'a'..b'd', 1..3),
        0u32..3,
        0u32..3,
        prop::collection::vec(any::<u8>(), 0..38),
    )
        .prop_map(|(name, rows, cols, tail)| {
            let mut p = (name.len() as u16).to_le_bytes().to_vec();
            p.extend(name);
            p.extend(rows.to_le_bytes());
            p.extend(cols.to_le_bytes());
            p.extend(tail);
            p
        })
}

/// Words the admin grammar knows, plus a few it must refuse; every
/// number is already in the canonical form the verb renders back.
const VERB_WORDS: [&str; 18] = [
    "reload",
    "sweep",
    "inject",
    "bitflip",
    "delay",
    "kill",
    "panic",
    "clear",
    "toy",
    "/tmp/m.rghd",
    "0.2",
    "1",
    "1.5",
    "9",
    "-3",
    "NaN",
    "meteor",
    "\u{e9}t\u{e9}",
];

fn verb_line() -> impl Strategy<Value = (Vec<usize>, bool)> {
    (
        prop::collection::vec(0..VERB_WORDS.len(), 0..6),
        any::<bool>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn frame_decoder_never_panics_and_frames_reencode_exactly(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
        chunk in 1usize..64,
        max_frame in 9u32..600,
    ) {
        let mut buf = FrameBuf::new();
        let mut consumed = 0usize;
        let mut violated = false;
        for piece in bytes.chunks(chunk) {
            buf.extend(piece);
            loop {
                match buf.next_frame(max_frame) {
                    Step::Ready(f) => {
                        let mut out = Vec::new();
                        frame::encode(&mut out, f.kind, f.req_id, &f.payload);
                        prop_assert_eq!(&out[..], &bytes[consumed..consumed + out.len()]);
                        consumed += out.len();
                    }
                    Step::Incomplete => break,
                    Step::Violation(_) => {
                        let len = u32::from_le_bytes(
                            bytes[consumed..consumed + 4].try_into().unwrap(),
                        );
                        prop_assert!((len as usize) < HEADER_AFTER_LEN || len > max_frame);
                        violated = true;
                        break;
                    }
                }
            }
            if violated {
                break;
            }
        }
        if !violated {
            prop_assert_eq!(buf.len(), bytes.len() - consumed);
        }
    }

    #[test]
    fn predict_decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
    ) {
        check_predict(&bytes)?;
        check_predict_batch(&bytes)?;
    }

    #[test]
    fn near_valid_predict_payloads_decode_or_reencode(payload in near_predict_payload()) {
        check_predict(&payload)?;
    }

    #[test]
    fn near_valid_batch_payloads_decode_or_reencode(payload in near_batch_payload()) {
        check_predict_batch(&payload)?;
    }

    #[test]
    fn admin_parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..MAX_INPUT + 1),
    ) {
        if let Ok(verb) = parse_verb(&bytes) {
            prop_assert_eq!(parse_verb(verb.to_string().as_bytes()), Ok(verb));
        }
    }

    #[test]
    fn admin_verbs_reencode_to_their_words((idx, tabs) in verb_line()) {
        let words: Vec<&str> = idx.iter().map(|&i| VERB_WORDS[i]).collect();
        let line = words.join(if tabs { " \t" } else { " " });
        if let Ok(verb) = parse_verb(line.as_bytes()) {
            prop_assert_eq!(verb.to_string(), words.join(" "));
        }
    }
}
