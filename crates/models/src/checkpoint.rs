//! Versioned binary checkpoints for model parameters.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   b"ADVC"
//! version u32          (2 for all-f32 snapshots, 3 when packed weights
//!                       are present; v1 still readable)
//! count   u32          number of entries
//! repeat count times:
//!   name_len u16, name utf-8 bytes
//!   tag      u8        (v3 only: 0 = f32 tensor, 1 = packed blocks)
//!   tag 0 (and every v1/v2 entry, which has no tag byte):
//!     ndim   u8,  dims  u32 × ndim
//!     data   f32 × prod(dims)
//!   tag 1 (packed block-quantised weights, see `tensor::quant`):
//!     kind_bits u8     (4 = Q4_0, 8 = Q8_0 code width)
//!     wf        u8×2   weight QFormat (int bits, frac bits)
//!     af        u8×2   activation QFormat (int bits, frac bits)
//!     ndim      u8,  dims u32 × ndim    logical (unpacked) shape
//!     n_scales  u32, scales f32 × n_scales   one per 32-value block
//!     n_codes   u32, codes  u8 × n_codes     block payloads
//! crc     u32          (v2+) CRC-32 of every preceding byte
//! ```
//!
//! This codec is the only owner of ggml's block layouts. In memory a
//! [`QTensor`] holds one `i8` per code and one scale, its weight format's
//! resolution, which the writer repeats as every block's scale. A `Q4_0`
//! payload byte *l* holds code *l* in its low nibble and code *l + 16* in
//! its high nibble. The reader unpacks the nibbles and rejects as
//! [`CheckpointError::Corrupt`] any stored scale that is not bit-equal to
//! the weight format's resolution.
//!
//! The CRC footer lets loaders — in particular the serving model registry —
//! reject torn or bit-flipped checkpoint files with
//! [`CheckpointError::Corrupt`] instead of silently restoring garbage
//! weights. Writers emit v2 for all-f32 snapshots (byte-identical to
//! pre-v3 output) and v3 only when frozen packed weights are present, so a
//! packed LeNet5 checkpoint stores block codes + scales instead of f32
//! weights — the size win the sparse size report and `BENCH_quant.json`
//! measure. v1 files (no footer) remain readable without verification.

use advcomp_nn::{QuantizedWeights, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{QTensor, QuantKind, Tensor, QK};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"ADVC";
/// Version written for all-f32 checkpoints.
const VERSION_F32: u32 = 2;
/// Version written when packed quantised entries are present.
const VERSION_PACKED: u32 = 3;
/// Oldest version still readable (pre-CRC files).
const MIN_VERSION: u32 = 1;

/// Entry tag in v3 files: a plain f32 tensor.
const TAG_F32: u8 = 0;
/// Entry tag in v3 files: packed block-quantised weights.
const TAG_PACKED: u8 = 1;

/// Errors raised by checkpoint encoding/decoding.
#[derive(Debug)]
pub enum CheckpointError {
    /// File I/O failed.
    Io(std::io::Error),
    /// The byte stream is not a valid checkpoint.
    Corrupt(String),
    /// The checkpoint version is unsupported.
    UnsupportedVersion(u32),
    /// Loading into a model failed (unknown name / wrong shape).
    Incompatible(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Incompatible(msg) => write!(f, "incompatible checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A serialisable snapshot of named parameter tensors, plus any frozen
/// packed weights the model carries (see [`Sequential::export_quantized`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    params: Vec<(String, Tensor)>,
    packed: Vec<(String, QuantizedWeights)>,
}

impl Checkpoint {
    /// Snapshots a model's current parameter values. Frozen layers
    /// contribute their packed blocks instead of f32 weights.
    pub fn capture(model: &Sequential) -> Self {
        Checkpoint {
            params: model.export_params(),
            packed: model.export_quantized(),
        }
    }

    /// Builds a checkpoint from raw `(name, tensor)` pairs.
    pub fn from_params(params: Vec<(String, Tensor)>) -> Self {
        Checkpoint {
            params,
            packed: Vec::new(),
        }
    }

    /// The stored f32 parameters.
    pub fn params(&self) -> &[(String, Tensor)] {
        &self.params
    }

    /// The stored packed weight entries (empty for v1/v2 snapshots).
    pub fn packed(&self) -> &[(String, QuantizedWeights)] {
        &self.packed
    }

    /// Restores these values into `model` (names must match). Packed
    /// entries are installed onto the owning layers, freezing them if the
    /// model still holds f32 weights — this is how the serving registry
    /// loads quantised variants straight into integer execution.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Incompatible`] on unknown names or shape
    /// mismatches.
    pub fn restore(&self, model: &mut Sequential) -> Result<(), CheckpointError> {
        model
            .import_params(&self.params)
            .map_err(|e| CheckpointError::Incompatible(e.to_string()))?;
        for (name, weights) in &self.packed {
            let installed = model
                .install_quantized(name, weights)
                .map_err(|e| CheckpointError::Incompatible(e.to_string()))?;
            if !installed {
                return Err(CheckpointError::Incompatible(format!(
                    "no layer owns packed weight {name}"
                )));
            }
        }
        Ok(())
    }

    /// Encodes to the binary format: v2 (byte-identical to pre-packed
    /// writers) when every entry is f32, v3 when packed entries exist.
    pub fn to_bytes(&self) -> Bytes {
        let version = if self.packed.is_empty() {
            VERSION_F32
        } else {
            VERSION_PACKED
        };
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(version);
        buf.put_u32_le((self.params.len() + self.packed.len()) as u32);
        for (name, tensor) in &self.params {
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name.as_bytes());
            if version >= VERSION_PACKED {
                buf.put_u8(TAG_F32);
            }
            buf.put_u8(tensor.ndim() as u8);
            for &d in tensor.shape() {
                buf.put_u32_le(d as u32);
            }
            for &v in tensor.data() {
                buf.put_f32_le(v);
            }
        }
        for (name, weights) in &self.packed {
            let qt = weights.tensor();
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name.as_bytes());
            buf.put_u8(TAG_PACKED);
            buf.put_u8(qt.kind().bits() as u8);
            buf.put_u8(qt.format().int_bits() as u8);
            buf.put_u8(qt.format().frac_bits() as u8);
            buf.put_u8(weights.act_format().int_bits() as u8);
            buf.put_u8(weights.act_format().frac_bits() as u8);
            buf.put_u8(qt.shape().len() as u8);
            for &d in qt.shape() {
                buf.put_u32_le(d as u32);
            }
            let blocks = qt.rows() * qt.blocks_per_row();
            buf.put_u32_le(blocks as u32);
            for _ in 0..blocks {
                buf.put_f32_le(qt.format().resolution());
            }
            buf.put_u32_le((blocks * qt.kind().payload_bytes()) as u32);
            match qt.kind() {
                QuantKind::Q8 => qt.codes().iter().for_each(|&c| buf.put_u8(c as u8)),
                QuantKind::Q4 => {
                    for block in qt.codes().chunks(QK) {
                        let (lo, hi) = block.split_at(QK / 2);
                        for (&l, &h) in lo.iter().zip(hi) {
                            buf.put_u8((l as u8 & 0x0F) | ((h as u8) << 4));
                        }
                    }
                }
            }
        }
        let body = buf.freeze();
        let crc = crate::crc32::crc32(&body);
        let mut out = BytesMut::with_capacity(body.len() + 4);
        out.put_slice(&body);
        out.put_u32_le(crc);
        out.freeze()
    }

    /// Decodes from the binary format.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Corrupt`] on truncation or bad magic, and
    /// [`CheckpointError::UnsupportedVersion`] for future versions.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        need(bytes, 12, "header")?;
        if &bytes[..4] != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if !(MIN_VERSION..=VERSION_PACKED).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        // v2 carries a CRC-32 footer over everything before it; verify the
        // whole file before trusting any field of the body.
        let mut bytes = if version >= 2 {
            need(bytes, 16, "crc footer")?;
            let (body, footer) = bytes.split_at(bytes.len() - 4);
            let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
            let actual = crate::crc32::crc32(body);
            if stored != actual {
                return Err(CheckpointError::Corrupt(format!(
                    "crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
                )));
            }
            body
        } else {
            bytes
        };
        bytes.advance(8); // magic + version
        let count = bytes.get_u32_le() as usize;
        // Every entry takes at least 4 bytes, so a claimed count past that
        // is refused by truncation below; never preallocate for it.
        let mut params = Vec::with_capacity(count.min(bytes.remaining() / 4));
        let mut packed = Vec::new();
        for _ in 0..count {
            need(bytes, 2, "name length")?;
            let name_len = bytes.get_u16_le() as usize;
            need(bytes, name_len, "name")?;
            let name = String::from_utf8(bytes[..name_len].to_vec())
                .map_err(|_| CheckpointError::Corrupt("non-utf8 name".into()))?;
            bytes.advance(name_len);
            let tag = if version >= VERSION_PACKED {
                need(bytes, 1, "entry tag")?;
                bytes.get_u8()
            } else {
                TAG_F32
            };
            match tag {
                TAG_F32 => {
                    let tensor = decode_f32_entry(&mut bytes)?;
                    params.push((name, tensor));
                }
                TAG_PACKED => {
                    let weights = decode_packed_entry(&mut bytes)?;
                    packed.push((name, weights));
                }
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown entry tag {other}"
                    )))
                }
            }
        }
        Ok(Checkpoint { params, packed })
    }

    /// Writes the checkpoint to a file.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and decode errors.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

fn need(buf: &[u8], n: usize, what: &str) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        return Err(CheckpointError::Corrupt(format!("truncated at {what}")));
    }
    Ok(())
}

/// Decodes the body of an f32 tensor entry (every v1/v2 entry; v3 tag 0).
fn decode_f32_entry(bytes: &mut &[u8]) -> Result<Tensor, CheckpointError> {
    need(bytes, 1, "ndim")?;
    let ndim = bytes.get_u8() as usize;
    need(bytes, 4 * ndim, "dims")?;
    let dims: Vec<usize> = (0..ndim).map(|_| bytes.get_u32_le() as usize).collect();
    let data_bytes = dims
        .iter()
        .try_fold(4usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| CheckpointError::Corrupt(format!("tensor dims {dims:?} overflow")))?;
    need(bytes, data_bytes, "tensor data")?;
    let data = (0..data_bytes / 4).map(|_| bytes.get_f32_le()).collect();
    Tensor::new(&dims, data).map_err(|e| CheckpointError::Corrupt(format!("bad tensor: {e}")))
}

/// Decodes the body of a packed block-quantised entry (v3 tag 1).
fn decode_packed_entry(bytes: &mut &[u8]) -> Result<QuantizedWeights, CheckpointError> {
    need(bytes, 6, "packed header")?;
    let kind = match bytes.get_u8() {
        4 => QuantKind::Q4,
        8 => QuantKind::Q8,
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown packed code width {other}"
            )))
        }
    };
    let (wi, wf) = (bytes.get_u8() as u32, bytes.get_u8() as u32);
    let (ai, af) = (bytes.get_u8() as u32, bytes.get_u8() as u32);
    let weight_format = QFormat::new(wi, wf)
        .map_err(|e| CheckpointError::Corrupt(format!("bad weight format: {e}")))?;
    let act_format = QFormat::new(ai, af)
        .map_err(|e| CheckpointError::Corrupt(format!("bad activation format: {e}")))?;
    let ndim = bytes.get_u8() as usize;
    need(bytes, 4 * ndim + 4, "packed dims")?;
    let dims: Vec<usize> = (0..ndim).map(|_| bytes.get_u32_le() as usize).collect();
    let n_scales = bytes.get_u32_le() as usize;
    need(bytes, 4 * n_scales + 4, "block scales")?;
    let resolution = weight_format.resolution();
    for _ in 0..n_scales {
        let scale = bytes.get_f32_le();
        if scale.to_bits() != resolution.to_bits() {
            return Err(CheckpointError::Corrupt(format!(
                "block scale {scale} is not the {weight_format} resolution {resolution}"
            )));
        }
    }
    let n_codes = bytes.get_u32_le() as usize;
    need(bytes, n_codes, "block codes")?;
    let (payload, rest) = bytes.split_at(n_codes);
    *bytes = rest;
    let codes = match kind {
        QuantKind::Q8 => payload.iter().map(|&b| b as i8).collect(),
        QuantKind::Q4 => nibble_codes(payload)?,
    };
    let qt = QTensor::from_parts(kind, dims, weight_format, codes)
        .map_err(|e| CheckpointError::Corrupt(format!("bad packed tensor: {e}")))?;
    let blocks = qt.rows() * qt.blocks_per_row();
    if n_scales != blocks {
        return Err(CheckpointError::Corrupt(format!(
            "{n_scales} block scales for {blocks} blocks"
        )));
    }
    Ok(QuantizedWeights::new(qt, act_format))
}

/// Unpacks `Q4_0` block payloads to one code per value: byte *l* of a
/// block holds code *l* in its low nibble and code *l + 16* in its high
/// nibble, both 4-bit two's complement.
fn nibble_codes(payload: &[u8]) -> Result<Vec<i8>, CheckpointError> {
    if !payload.len().is_multiple_of(QK / 2) {
        return Err(CheckpointError::Corrupt(format!(
            "{} q4_0 payload bytes are not whole blocks",
            payload.len()
        )));
    }
    let mut codes = Vec::with_capacity(payload.len() * 2);
    for block in payload.chunks(QK / 2) {
        codes.extend(block.iter().map(|&b| ((b << 4) as i8) >> 4));
        codes.extend(block.iter().map(|&b| (b as i8) >> 4));
    }
    Ok(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::mlp;

    #[test]
    fn roundtrip_bytes() {
        let model = mlp(8, 1);
        let ckpt = Checkpoint::capture(&model);
        let bytes = ckpt.to_bytes();
        let decoded = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ckpt, decoded);
    }

    #[test]
    fn restore_into_fresh_model() {
        let trained = mlp(8, 1);
        let ckpt = Checkpoint::capture(&trained);
        let mut fresh = mlp(8, 2);
        assert_ne!(
            fresh.param("fc1.weight").unwrap().value.data(),
            trained.param("fc1.weight").unwrap().value.data()
        );
        ckpt.restore(&mut fresh).unwrap();
        assert_eq!(
            fresh.param("fc1.weight").unwrap().value.data(),
            trained.param("fc1.weight").unwrap().value.data()
        );
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(matches!(
            Checkpoint::from_bytes(b"nope"),
            Err(CheckpointError::Corrupt(_))
        ));
        let model = mlp(4, 0);
        let mut bytes = Checkpoint::capture(&model).to_bytes().to_vec();
        bytes[0] = b'X';
        assert!(Checkpoint::from_bytes(&bytes).is_err());
        let good = Checkpoint::capture(&model).to_bytes();
        assert!(Checkpoint::from_bytes(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn version_check() {
        let model = mlp(4, 0);
        let mut bytes = Checkpoint::capture(&model).to_bytes().to_vec();
        bytes[4] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn any_single_flipped_byte_is_rejected() {
        // The integrity contract behind `CheckpointError::Corrupt`: no
        // single corrupted byte may load successfully. (A flip in the
        // version field maps to UnsupportedVersion; both are rejections.)
        let model = mlp(4, 3);
        let good = Checkpoint::capture(&model).to_bytes().to_vec();
        let stride = (good.len() / 97).max(1); // sample positions, keep the test fast
        for pos in (0..good.len()).step_by(stride) {
            let mut bad = good.clone();
            bad[pos] ^= 0x20;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flipped byte at {pos} loaded successfully"
            );
        }
    }

    #[test]
    fn v1_without_footer_still_loads() {
        let model = mlp(4, 5);
        let ckpt = Checkpoint::capture(&model);
        let v2 = ckpt.to_bytes().to_vec();
        // A v1 file is the v2 body with the old version number and no CRC.
        let mut v1 = v2[..v2.len() - 4].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let decoded = Checkpoint::from_bytes(&v1).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn torn_write_is_rejected() {
        // A checkpoint cut off mid-tensor (simulating a torn write) must
        // fail the CRC, not decode a prefix.
        let model = mlp(8, 6);
        let bytes = Checkpoint::capture(&model).to_bytes();
        let torn = &bytes[..bytes.len() / 2];
        assert!(matches!(
            Checkpoint::from_bytes(torn),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("advcomp_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.advc");
        let model = mlp(8, 7);
        let ckpt = Checkpoint::capture(&model);
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incompatible_restore_errors() {
        let ckpt = Checkpoint::from_params(vec![("ghost".into(), Tensor::zeros(&[2]))]);
        let mut model = mlp(4, 0);
        assert!(matches!(
            ckpt.restore(&mut model),
            Err(CheckpointError::Incompatible(_))
        ));
    }

    #[test]
    fn missing_file_errors() {
        assert!(matches!(
            Checkpoint::load(Path::new("/nonexistent/advcomp.ckpt")),
            Err(CheckpointError::Io(_))
        ));
    }

    fn frozen_lenet(bits: u32) -> Sequential {
        let mut model = crate::builders::lenet5(1.0, 11);
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        let frozen = model.freeze_quantized(fmt, fmt).unwrap();
        assert!(frozen > 0, "lenet5 has packable layers");
        model
    }

    #[test]
    fn packed_roundtrip_is_v3_with_crc() {
        for bits in [4, 8] {
            let model = frozen_lenet(bits);
            let ckpt = Checkpoint::capture(&model);
            assert!(!ckpt.packed().is_empty());
            let bytes = ckpt.to_bytes();
            assert_eq!(
                u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
                3
            );
            let decoded = Checkpoint::from_bytes(&bytes).unwrap();
            assert_eq!(decoded, ckpt, "{bits}-bit");
            // The CRC footer still guards v3 files.
            let mut torn = bytes.to_vec();
            torn.truncate(torn.len() / 2);
            assert!(Checkpoint::from_bytes(&torn).is_err());
            let mut flipped = bytes.to_vec();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x10;
            assert!(Checkpoint::from_bytes(&flipped).is_err());
        }
    }

    #[test]
    fn stored_block_scales_must_be_the_resolution() {
        let resealed = |mut bytes: Vec<u8>| {
            let body = bytes.len() - 4;
            let crc = crate::crc32::crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            Checkpoint::from_bytes(&bytes)
        };
        for bits in [4, 8] {
            let fmt = QFormat::for_bitwidth(bits).unwrap();
            let qt = QTensor::quantize(&[0.25; 80], &[2, 40], fmt).unwrap();
            let packed = vec![("w".into(), QuantizedWeights::new(qt, fmt))];
            let good = Checkpoint {
                params: Vec::new(),
                packed,
            }
            .to_bytes()
            .to_vec();
            // header 12, name 3, tag 1, kind 1, formats 4, ndim 1, dims 8,
            // n_scales 4: then the 4 block scales.
            let first = 34;
            assert_eq!(good[first..first + 4], fmt.resolution().to_le_bytes());
            let res = fmt.resolution();
            for (block, scale) in [(0, res * 2.0), (3, -res), (1, f32::NAN)] {
                let mut bad = good.clone();
                let at = first + 4 * block;
                bad[at..at + 4].copy_from_slice(&scale.to_le_bytes());
                let decoded = resealed(bad);
                assert!(
                    matches!(decoded, Err(CheckpointError::Corrupt(_))),
                    "{bits}-bit block {block} scale {scale}"
                );
            }
            // Three scales listed for four blocks.
            let mut short = good[..first + 12].to_vec();
            short[first - 4..first].copy_from_slice(&3u32.to_le_bytes());
            short.extend_from_slice(&good[first + 16..]);
            assert!(matches!(resealed(short), Err(CheckpointError::Corrupt(_))));
        }
    }

    #[test]
    fn packed_restore_freezes_fresh_model() {
        let frozen = frozen_lenet(8);
        let ckpt = Checkpoint::capture(&frozen);
        // Restoring into a dense f32 model installs the packed weights and
        // freezes the owning layers (the serve registry load path).
        let mut fresh = crate::builders::lenet5(1.0, 99);
        ckpt.restore(&mut fresh).unwrap();
        assert_eq!(Checkpoint::capture(&fresh), ckpt);
        // Frozen layers are inference-only after restore.
        assert!(fresh
            .backward(&advcomp_tensor::Tensor::zeros(&[1, 10]))
            .is_err());
    }

    #[test]
    fn packed_restore_rejects_unknown_owner() {
        let ckpt = Checkpoint::capture(&frozen_lenet(8));
        let mut mlp = crate::builders::mlp(8, 1);
        assert!(matches!(
            ckpt.restore(&mut mlp),
            Err(CheckpointError::Incompatible(_))
        ));
    }

    /// Acceptance pin: a packed LeNet5 checkpoint is at most a third of the
    /// f32 v2 bytes at 8-bit, and Q4 shrinks further still.
    #[test]
    fn packed_checkpoint_is_at_most_a_third_of_f32() {
        let dense_bytes = Checkpoint::capture(&crate::builders::lenet5(1.0, 11))
            .to_bytes()
            .len();
        let q8_bytes = Checkpoint::capture(&frozen_lenet(8)).to_bytes().len();
        let q4_bytes = Checkpoint::capture(&frozen_lenet(4)).to_bytes().len();
        assert!(
            q8_bytes * 3 <= dense_bytes,
            "packed q8 checkpoint {q8_bytes} B vs f32 {dense_bytes} B"
        );
        assert!(
            q4_bytes < q8_bytes,
            "packed q4 {q4_bytes} B should undercut q8 {q8_bytes} B"
        );
    }
}
