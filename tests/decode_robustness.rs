//! Fuzz-style robustness: every binary decoder in the workspace must
//! reject arbitrary byte soup with a typed error — never panic, never hang,
//! never return garbage silently accepted as valid.

use advcomp::core::journal::{PointRecord, PointStatus};
use advcomp::data::idx::{parse_cifar_batch, parse_idx_images, parse_idx_labels};
use advcomp::models::{crc32, Checkpoint, CheckpointError};
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

/// A checkpoint header: magic, `version`, entry `count`.
fn header(version: u32, count: u32) -> Vec<u8> {
    [
        b"ADVC".as_slice(),
        &version.to_le_bytes(),
        &count.to_le_bytes(),
    ]
    .concat()
}

/// Rewrites the CRC-32 footer of a v2+ file after its body was edited.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// A 12-byte v1 file claiming 0xFFFF_FFFF entries (v1 has no CRC, so the
/// count reaches the decoder) must fail on truncation, not preallocate
/// for four billion entries and abort.
#[test]
fn checkpoint_huge_entry_count_fails_without_preallocating() {
    let decoded = Checkpoint::from_bytes(&header(1, u32::MAX));
    assert!(matches!(decoded, Err(CheckpointError::Corrupt(_))));
}

/// Entry dims whose product overflows `usize` are corrupt, not an
/// arithmetic-overflow panic: an f32 entry of a v1 file, and a packed
/// entry of a v3 file with a valid CRC.
#[test]
fn checkpoint_overflowing_dims_are_corrupt() {
    let dims = |n: usize| [vec![n as u8], u32::MAX.to_le_bytes().repeat(n)].concat();
    let v1 = [header(1, 1), vec![1, 0, b'w'], dims(3)].concat();
    // tag 1, Q8_0, Q2.6 weights and activations; no scales, no codes, crc.
    let entry = [vec![1, 0, b'w', 1, 8, 2, 6, 2, 6], dims(4), vec![0; 12]];
    let mut v3 = [header(3, 1), entry.concat()].concat();
    reseal(&mut v3);
    for file in [v1, v3] {
        let decoded = Checkpoint::from_bytes(&file);
        assert!(matches!(decoded, Err(CheckpointError::Corrupt(_))));
    }
}

/// Offsets and widths of the size fields of a valid checkpoint, found by
/// walking its layout: the entry count, then per entry `ndim`, every dim
/// and, for packed entries, `n_scales` and `n_codes`.
fn size_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let v3 = u32_at(4) >= 3;
    let (mut fields, mut at) = (vec![(8, 4)], 12);
    for _ in 0..u32_at(8) {
        at += 2 + usize::from(u16::from_le_bytes([bytes[at], bytes[at + 1]]));
        let packed = v3 && bytes[at] == 1;
        at += usize::from(v3) + if packed { 5 } else { 0 }; // tag, formats
        let dims: Vec<usize> = (0..usize::from(bytes[at]))
            .map(|d| at + 1 + 4 * d)
            .collect();
        fields.push((at, 1));
        fields.extend(dims.iter().map(|&d| (d, 4)));
        at += 1 + 4 * dims.len();
        if packed {
            for item_bytes in [4, 1] {
                fields.push((at, 4));
                at += 4 + item_bytes * u32_at(at);
            }
        } else {
            at += 4 * dims.iter().map(|&d| u32_at(d)).product::<usize>();
        }
    }
    assert_eq!(
        at + 4 * usize::from(v3),
        bytes.len(),
        "walk ends at the CRC"
    );
    fields
}

/// A valid checkpoint file and the `(offset, width)` of each size field.
type SizedFile = (Vec<u8>, Vec<(usize, usize)>);

/// Valid files to damage, each with its size fields: a v1 f32 file, and
/// v3 files of LeNet-5 frozen at 8 and at 4 bits (f32 and packed entries).
fn size_field_fixtures() -> &'static [SizedFile] {
    static FIXTURES: std::sync::OnceLock<Vec<SizedFile>> = std::sync::OnceLock::new();
    FIXTURES.get_or_init(|| {
        let v2 = Checkpoint::capture(&advcomp::models::mlp(4, 0)).to_bytes();
        let v1 = [header(1, 0)[..8].to_vec(), v2[8..v2.len() - 4].to_vec()].concat();
        let v3 = [8, 4].map(|bits| {
            let mut model = advcomp::models::lenet5(0.5, 3);
            let fmt = QFormat::for_bitwidth(bits).unwrap();
            assert!(model.freeze_quantized(fmt, fmt).unwrap() > 0);
            Checkpoint::capture(&model).to_bytes().to_vec()
        });
        std::iter::once(v1)
            .chain(v3)
            .map(|bytes| {
                assert!(Checkpoint::from_bytes(&bytes).is_ok());
                let fields = size_fields(&bytes);
                (bytes, fields)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any size field of a valid v1 or v3 file overwritten with an
    /// arbitrary value — the v3 CRC resealed, so the decoder trusts the
    /// body — must decode to `Ok` or `Err`: no overflow panic, no
    /// allocation sized by the claimed value.
    #[test]
    fn checkpoint_size_fields_never_panic(
        file in 0usize..3,
        pick in any::<usize>(),
        raw in any::<u32>(),
    ) {
        let (bytes, fields) = &size_field_fixtures()[file];
        let (at, width) = fields[pick % fields.len()];
        // Half the values small, near the real sizes; half anywhere.
        let value = if raw.is_multiple_of(2) { raw % 70 } else { raw };
        let mut damaged = bytes.clone();
        damaged[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        if file > 0 {
            reseal(&mut damaged);
        }
        let _ = Checkpoint::from_bytes(&damaged);
    }
}
