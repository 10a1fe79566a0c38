//! End-to-end model storage accounting.

use crate::huffman::{build_codebook, entropy_bits};
use crate::{CsrMatrix, QuantizedTensor, Result};
use advcomp_nn::{ParamKind, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{QuantKind, QK};

/// Storage footprint of one model under the standard deployment encodings.
///
/// All figures cover **weight** tensors (biases are a negligible, always
/// full-precision fraction, matching the deployment pipelines the paper
/// cites).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeReport {
    /// Total weight elements.
    pub elements: usize,
    /// Non-zero weight elements.
    pub nonzero: usize,
    /// Dense float32 bytes (`4 × elements`).
    pub dense_f32_bytes: usize,
    /// CSR bytes (f32 values + u32 indices + row pointers).
    pub csr_bytes: usize,
    /// Quantised storage bytes at the given format. For formats that fit
    /// the deployable block layout (≤ 8 bits) this is the **real** packed
    /// size — per-row 32-value blocks of codes plus a f32 scale each, the
    /// bytes a packed checkpoint actually stores — not the theoretical
    /// `bits × count / 8` lower bound. Wider formats keep the bit-packed
    /// estimate (they have no block representation).
    pub quantized_bytes: Option<usize>,
    /// Huffman-coded quantised stream bytes (payload, codebook excluded).
    pub huffman_bytes: Option<usize>,
    /// Shannon entropy of the quantised codes (bits/symbol).
    pub code_entropy_bits: Option<f64>,
}

impl SizeReport {
    /// Compression ratio of the best available encoding vs dense float32.
    pub fn best_ratio(&self) -> f64 {
        let best = [
            Some(self.csr_bytes),
            self.quantized_bytes,
            self.huffman_bytes,
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(self.dense_f32_bytes);
        if best == 0 {
            return f64::INFINITY;
        }
        self.dense_f32_bytes as f64 / best as f64
    }
}

/// Computes deployment sizes for a model's weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSize;

impl ModelSize {
    /// Measures `model`'s weight storage under every encoding.
    ///
    /// When `format` is given, the quantised and Huffman rows are computed
    /// by encoding every weight in that format (the model is expected to
    /// already hold quantised values, but encoding is lossy-safe either
    /// way).
    ///
    /// # Errors
    ///
    /// Propagates CSR construction errors (non-2-D weights are flattened to
    /// 2-D first, so this is effectively infallible for real models).
    pub fn measure(model: &Sequential, format: Option<QFormat>) -> Result<SizeReport> {
        let mut elements = 0usize;
        let mut nonzero = 0usize;
        let mut csr_bytes = 0usize;
        let mut all_codes: Vec<i32> = Vec::new();
        let mut quant_bits = 0usize;
        let mut block_bytes = 0usize;
        let block_kind = format.and_then(QuantKind::for_format);

        for p in model.params() {
            if p.kind != ParamKind::Weight {
                continue;
            }
            elements += p.value.len();
            nonzero += p.value.l0_norm();
            // CSR over a 2-D view: [rows, cols] with rows = first axis.
            let rows = p.value.shape().first().copied().unwrap_or(1).max(1);
            let cols = p.value.len() / rows;
            let two_d = p.value.reshape(&[rows, cols])?;
            csr_bytes += CsrMatrix::from_dense(&two_d)?.storage_bytes();
            if let Some(fmt) = format {
                let qt = QuantizedTensor::from_tensor(&p.value, fmt);
                quant_bits += qt.storage_bits();
                all_codes.extend_from_slice(qt.codes());
                if let Some(kind) = block_kind {
                    // Stored block layout: rows padded to whole 32-value
                    // blocks, each block carrying a copy of the f32 scale —
                    // exactly what checkpoint v3 writes for this weight
                    // (`QTensor::packed_bytes`).
                    block_bytes += rows * cols.div_ceil(QK) * kind.block_bytes();
                }
            }
        }

        let quant_total = if block_kind.is_some() {
            block_bytes
        } else {
            quant_bits.div_ceil(8)
        };
        let (quantized_bytes, huffman_bytes, code_entropy_bits) = if format.is_some() {
            let entropy = entropy_bits(&all_codes);
            let huffman = if all_codes.is_empty() {
                0
            } else {
                let book = build_codebook(&all_codes)?;
                let total_bits: f64 = book.mean_bits(&all_codes) * all_codes.len() as f64;
                (total_bits / 8.0).ceil() as usize
            };
            (Some(quant_total), Some(huffman), Some(entropy))
        } else {
            (None, None, None)
        };

        Ok(SizeReport {
            elements,
            nonzero,
            dense_f32_bytes: elements * 4,
            csr_bytes,
            quantized_bytes,
            huffman_bytes,
            code_entropy_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::{Dense, Sequential};
    use rand::SeedableRng;

    fn model() -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        Sequential::new(vec![
            Box::new(Dense::with_name("a", 16, 8, &mut rng)),
            Box::new(Dense::with_name("b", 8, 4, &mut rng)),
        ])
    }

    #[test]
    fn dense_accounting() {
        let m = model();
        let report = ModelSize::measure(&m, None).unwrap();
        assert_eq!(report.elements, 16 * 8 + 8 * 4);
        assert_eq!(report.dense_f32_bytes, report.elements * 4);
        assert_eq!(report.nonzero, report.elements); // freshly initialised
        assert!(report.quantized_bytes.is_none());
        // Dense CSR is *larger* than raw floats (indices overhead).
        assert!(report.csr_bytes > report.dense_f32_bytes);
    }

    #[test]
    fn sparse_model_shrinks_csr() {
        let mut m = model();
        for p in m.params_mut() {
            if p.kind == ParamKind::Weight {
                for (i, v) in p.value.data_mut().iter_mut().enumerate() {
                    if i % 10 != 0 {
                        *v = 0.0; // 10% density
                    }
                }
            }
        }
        let report = ModelSize::measure(&m, None).unwrap();
        assert!(report.nonzero * 10 <= report.elements + 20);
        assert!(
            report.csr_bytes < report.dense_f32_bytes,
            "CSR {} vs dense {}",
            report.csr_bytes,
            report.dense_f32_bytes
        );
        assert!(report.best_ratio() > 1.0);
    }

    #[test]
    fn quantised_model_shrinks_further() {
        let mut m = model();
        let fmt = QFormat::for_bitwidth(4).unwrap();
        for p in m.params_mut() {
            if p.kind == ParamKind::Weight {
                fmt.quantize_slice(p.value.data_mut());
            }
        }
        let report = ModelSize::measure(&m, Some(fmt)).unwrap();
        let q = report.quantized_bytes.unwrap();
        // Real Q4_0 block layout: [8,16] → 8 rows × 1 block × 20 B, plus
        // [4,8] → 4 rows × 1 block × 20 B. The old theoretical estimate
        // (elements/2 = 80 B) ignored block padding and scales.
        assert_eq!(q, (8 + 4) * QuantKind::Q4.block_bytes());
        let h = report.huffman_bytes.unwrap();
        assert!(h <= q + 8, "huffman {h} vs quantised {q}");
        assert!(report.code_entropy_bits.unwrap() <= 4.0);
        assert!(report.best_ratio() > 2.0);
        // Still a real shrink vs dense f32 despite scale overhead.
        assert!(q * 2 < report.dense_f32_bytes);
    }

    #[test]
    fn wide_formats_keep_bit_packed_estimate() {
        let m = model();
        let fmt = QFormat::for_bitwidth(16).unwrap();
        let report = ModelSize::measure(&m, Some(fmt)).unwrap();
        // No block layout at 16 bits: theoretical bits × count / 8.
        assert_eq!(report.quantized_bytes.unwrap(), report.elements * 2);
    }

    /// The report's quantised row must equal the bytes a frozen model's
    /// packed weights (and hence a v3 checkpoint) actually occupy.
    #[test]
    fn packed_accounting_matches_frozen_model_exactly() {
        for bits in [4u32, 8] {
            let fmt = QFormat::for_bitwidth(bits).unwrap();
            let report = ModelSize::measure(&model(), Some(fmt)).unwrap();
            let mut frozen = model();
            frozen.freeze_quantized(fmt, fmt).unwrap();
            let real: usize = frozen
                .export_quantized()
                .iter()
                .map(|(_, qw)| qw.packed_bytes())
                .sum();
            assert_eq!(
                report.quantized_bytes.unwrap(),
                real,
                "{bits}-bit report vs frozen packed bytes"
            );
        }
    }
}
