//! Fuzz-style robustness: every binary decoder in the workspace must
//! reject arbitrary byte soup with a typed error — never panic, never hang,
//! never return garbage silently accepted as valid.

use advcomp::core::journal::{PointRecord, PointStatus};
use advcomp::data::idx::{parse_cifar_batch, parse_idx_images, parse_idx_labels};
use advcomp::models::Checkpoint;
use advcomp::qformat::QFormat;
use advcomp::serve::json::Json;
use advcomp::serve::protocol::Request;
use advcomp::sparse::huffman;
use advcomp::sparse::QuantizedTensor;
use proptest::prelude::*;

/// The JSON codec reads network frames and journal files alike: a predict
/// frame and a point record, truncated at every offset and with every byte
/// bit-flipped, must parse to `Ok` or `Err`, never panic.
#[test]
fn json_codec_never_panics_on_damaged_documents() {
    let frame = Request::Predict {
        id: "r1".into(),
        input: vec![0.0, -0.5, 1.25e-7, 3.0e38, 1.0],
        probs: true,
        attack: Some("ifgsm \"ε\"".into()),
    }
    .to_payload();
    let record = PointRecord {
        key: "00c0ffee00c0ffee".into(),
        x: 0.30000000000000004,
        compression: "dns_prune(0.3)".into(),
        status: PointStatus::Ok,
        attempts: 2,
        base_accuracy: 0.9375,
        scenarios: vec![(-0.0, 5e-324, f64::MAX)],
        health: vec!["epoch 1: \"rolled back\"\n".into()],
        error: None,
    }
    .to_json()
    .into_bytes();
    for doc in [frame, record] {
        assert!(Json::parse(&doc).is_ok());
        for cut in 0..doc.len() {
            let _ = Json::parse(&doc[..cut]);
        }
        let mut damaged = doc.clone();
        for i in 0..doc.len() {
            for bit in 0..8 {
                damaged[i] ^= 1 << bit;
                let _ = Json::parse(&damaged);
                damaged[i] = doc[i];
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoint_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Checkpoint::from_bytes(&bytes);
    }

    #[test]
    fn idx_parsers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_idx_images(&bytes);
        let _ = parse_idx_labels(&bytes);
        let _ = parse_cifar_batch(&bytes);
    }

    #[test]
    fn quantized_unpack_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        n in 0usize..64,
        bw in 2u32..17,
    ) {
        if let Ok(fmt) = QFormat::for_bitwidth(bw) {
            if let Ok(qt) = QuantizedTensor::unpack(&bytes, &[n], fmt) {
                // Anything accepted must decode to in-range values.
                let t = qt.to_tensor().unwrap();
                let in_range = t
                    .data()
                    .iter()
                    .all(|v| *v >= fmt.min_value() && *v <= fmt.max_value());
                prop_assert!(in_range);
            }
        }
    }

    #[test]
    fn huffman_decoder_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        len in 0usize..64,
        symbols in proptest::collection::vec(-8i32..8, 1..32),
    ) {
        // A legitimate codebook fed a corrupted stream must error, not
        // panic or loop.
        let book = huffman::build_codebook(&symbols).unwrap();
        let bits = payload.len() * 8;
        let enc = huffman::Encoded { bytes: payload, len, bits };
        let _ = huffman::decode(&enc, &book);
    }

    /// Checkpoints with adversarial headers (huge claimed counts) must fail
    /// fast on truncation rather than attempt enormous allocations.
    #[test]
    fn checkpoint_truncation_from_valid_prefix(cut in 0usize..100) {
        let model = advcomp::models::mlp(4, 0);
        let bytes = Checkpoint::capture(&model).to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let truncated = &bytes[..bytes.len() - 1 - cut];
        prop_assert!(Checkpoint::from_bytes(truncated).is_err());
    }
}
