//! Integer-execution parity: the packed block-quantised weight format and
//! the fused int8 GEMM/conv kernels vs the `qformat`-simulated float path.
//!
//! Three pillars, mirroring `DESIGN.md`'s "integer execution" contract:
//!
//! 1. **Pack round-trip**: `QTensor::quantize` → `dequantize` must be
//!    bit-exact with `QFormat::quantize` over the *entire* code range of
//!    the paper's Q1.3 (4-bit) and Q2.6 (8-bit) formats, plus off-grid and
//!    saturating inputs.
//! 2. **Differential kernel fuzzing**: the fused int8 GEMM (both backends)
//!    and the frozen `Conv2d` forward vs f64-accumulated references over
//!    randomized shape sweeps, gated on relative L2 error.
//! 3. **Bit-exact simulated parity + golden**: on the scalar backend a
//!    frozen (packed) model forward is *bit-identical* to the simulated
//!    FakeQuant/rounded-weight forward, and the packed LeNet forward and
//!    its v3 checkpoint bytes are pinned by checked-in goldens under
//!    `tests/goldens/`.

use advcomp_compress::Quantizer;
use advcomp_models::{crc32, Checkpoint};
use advcomp_nn::{Conv2d, Dense, FakeQuant, Flatten, Layer, MaxPool2d, Mode, Relu, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{quantize_activations, KernelBackend, QTensor, Tensor, QK};
use advcomp_testkit::diffref::{self, conv2d_direct};
use advcomp_testkit::fixtures::{self, materialize_params};
use advcomp_testkit::golden::{self, tensor_json};
use advcomp_testkit::json::Json;
use advcomp_testkit::DetRng;
use rand::SeedableRng;

/// Relative L2 distance `|a - b|₂ / max(|b|₂, ε)`.
fn rel_l2(actual: &[f32], expected: &[f32]) -> f64 {
    assert_eq!(actual.len(), expected.len(), "length mismatch");
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (&a, &e) in actual.iter().zip(expected) {
        diff += (f64::from(a) - f64::from(e)).powi(2);
        norm += f64::from(e).powi(2);
    }
    (diff / norm.max(1e-30)).sqrt()
}

/// Relative-L2 gate for the differential sweeps. The kernels accumulate
/// per-block sums in i32 exactly; only the cross-block f32 accumulation
/// can differ from the f64 reference, so the bound is tight.
const REL_L2_GATE: f64 = 1e-5;

// ---------------------------------------------------------------------------
// Pillar 1: pack → unpack round-trip vs QFormat, full code range.
// ---------------------------------------------------------------------------

/// Every representable value of Q1.3 and Q2.6 must survive the packed
/// format bit-exactly, and the stored codes must be exactly
/// `QFormat::encode` of the value.
#[test]
fn pack_roundtrip_is_bit_exact_over_full_code_range() {
    advcomp_testkit::pin_kernel("scalar");
    for bits in [4u32, 8] {
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        let raws: Vec<i64> = (fmt.min_raw()..=fmt.max_raw()).collect();
        let values: Vec<f32> = raws.iter().map(|&r| fmt.decode(r)).collect();
        let qt = QTensor::quantize(&values, &[1, values.len()], fmt).unwrap();
        let back = qt.dequantize();
        for (i, (&raw, &v)) in raws.iter().zip(&values).enumerate() {
            assert_eq!(
                i64::from(qt.code(0, i)),
                raw,
                "{bits}-bit code for {v} must be the QFormat raw code"
            );
            assert_eq!(
                back[i].to_bits(),
                v.to_bits(),
                "{bits}-bit round-trip of grid value {v}"
            );
        }
    }
}

/// Off-grid and saturating inputs: the packed round-trip must land on the
/// same grid point as `QFormat::quantize` (same rounding, same clamping),
/// bit for bit.
#[test]
fn pack_roundtrip_matches_qformat_quantize_off_grid() {
    advcomp_testkit::pin_kernel("scalar");
    let mut rng = DetRng::new(0x9A11);
    for bits in [4u32, 8] {
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        // Sweep 3× beyond the representable range so saturation is hit.
        let span = 3.0 * fmt.max_value().abs().max(fmt.min_value().abs());
        let values = rng.vec_f32(4 * QK + 7, -span, span);
        let qt = QTensor::quantize(&values, &[1, values.len()], fmt).unwrap();
        let back = qt.dequantize();
        for (i, &v) in values.iter().enumerate() {
            let expected = fmt.quantize(v);
            assert_eq!(
                back[i].to_bits(),
                expected.to_bits(),
                "{bits}-bit pack of off-grid {v}: {} vs {expected}",
                back[i]
            );
        }
    }
}

/// The activation encoder's codes on the AVX2 backend equal the scalar
/// `QFormat::encode` at every packed format (Q1.3, Q4.1–Q4.3, Q2.6), on the
/// inputs where rounding is hardest: every code's midpoint and the two
/// ulps either side of it (one ulp below ½·2^-f must encode to 0, not 1),
/// the range edges, ±0, subnormals, ±∞ and NaN.
#[test]
fn activation_codes_agree_across_backends() {
    for bits in 4..=8 {
        let fmt = QFormat::for_bitwidth(bits).unwrap();
        let res = fmt.resolution();
        let ulps = |v: f32| (-2..=2).map(move |d| f32::from_bits((v.to_bits() as i32 + d) as u32));
        let mut values: Vec<f32> = (fmt.min_raw() - 1..=fmt.max_raw() + 1)
            .flat_map(|k| ulps((k as f32 + 0.5) * res).chain(ulps(k as f32 * res)))
            .collect();
        values.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
        ]);
        let cols = values.len();
        let codes = |backend| {
            let q = quantize_activations(backend, &values, 1, cols, fmt).unwrap();
            q.codes()[..cols].to_vec()
        };
        let (scalar, simd) = (codes(KernelBackend::Scalar), codes(KernelBackend::Simd));
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(
                i64::from(scalar[i]),
                fmt.encode(v),
                "{fmt}: scalar code of {v:e}"
            );
            assert_eq!(
                simd[i],
                scalar[i],
                "{fmt}: SIMD code of {v:e} ({:#010x})",
                v.to_bits()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pillar 2: differential fuzzing vs f64 references.
// ---------------------------------------------------------------------------

/// f64-accumulated reference for the fused int8 GEMM: decodes every code
/// and sums in f64 (strictly more accurate than any production path).
fn qgemm_f64(act_data: &[f32], m: usize, fmt: QFormat, w: &QTensor) -> Vec<f32> {
    let act = quantize_activations(KernelBackend::Scalar, act_data, m, w.cols(), fmt).unwrap();
    let bpr = w.blocks_per_row();
    let (n, cols) = (w.rows(), w.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &act.codes()[i * bpr * QK..(i + 1) * bpr * QK];
        for j in 0..n {
            let mut acc = 0.0f64;
            for b in 0..bpr {
                let mut block = 0i64;
                for l in 0..QK {
                    let col = b * QK + l;
                    if col >= cols {
                        break;
                    }
                    block += i64::from(a_row[col]) * i64::from(w.code(j, col));
                }
                acc += block as f64 * f64::from(w.format().resolution()) * f64::from(act.scale());
            }
            out[i * n + j] = acc as f32;
        }
    }
    out
}

/// Randomized GEMM sweep: the fused int8 kernel on both backends vs the
/// f64 reference, Q1.3 and Q2.6, shapes crossing block and SIMD-tile
/// boundaries. On hardware without AVX2 the Simd backend falls back to
/// scalar at the call site, so this test is meaningful everywhere.
#[test]
fn int8_gemm_matches_f64_reference() {
    advcomp_testkit::pin_kernel("scalar");
    let mut rng = DetRng::new(0x1813);
    for case in 0..60 {
        let m = rng.range_usize(1, 17);
        let k = rng.range_usize(1, 200);
        let n = rng.range_usize(1, 23);
        for bits in [4u32, 8] {
            let fmt = QFormat::for_bitwidth(bits).unwrap();
            let span = fmt.max_value();
            let wdata = rng.vec_f32(n * k, -span, span);
            let adata = rng.vec_f32(m * k, -span, span);
            let w = QTensor::quantize(&wdata, &[n, k], fmt).unwrap();
            let reference = qgemm_f64(&adata, m, fmt, &w);
            for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                let mut out = vec![0.0f32; m * n];
                advcomp_tensor::qmatmul_f32(backend, &adata, m, fmt, &w, &mut out).unwrap();
                let err = rel_l2(&out, &reference);
                assert!(
                    err <= REL_L2_GATE,
                    "case {case} {bits}-bit {backend:?} {m}x{k}x{n}: rel-L2 {err:e}"
                );
            }
        }
    }
}

/// Frozen `Conv2d` forward vs the direct f64 convolution reference on
/// pre-quantised inputs and weights, over the shared randomized conv
/// sweep. The frozen layer quantises its input on entry; feeding it
/// already-on-grid values makes that step the identity, so the reference
/// is exactly the integer convolution the packed path computes.
#[test]
fn frozen_conv2d_matches_f64_reference() {
    advcomp_testkit::pin_kernel("scalar");
    let fmt = QFormat::for_bitwidth(8).unwrap();
    let mut init_rng = rand::rngs::StdRng::seed_from_u64(0);
    for case in diffref::conv_cases(0x0CC5, 40) {
        let (oc, c, k) = (
            case.weight.shape()[0],
            case.weight.shape()[1],
            case.weight.shape()[2],
        );
        let qinput = case.input.map(|v| fmt.quantize(v));
        let qweight = case.weight.map(|v| fmt.quantize(v));
        let reference = conv2d_direct(&qinput, &qweight, &case.bias, case.stride, case.padding);

        let mut conv =
            Conv2d::with_name("fuzz", c, oc, k, case.stride, case.padding, &mut init_rng);
        for p in conv.params_mut() {
            if p.name.ends_with(".weight") {
                p.value = qweight.clone();
            } else {
                p.value = Tensor::new(&[oc], case.bias.clone()).unwrap();
            }
        }
        conv.freeze_quantized(fmt, fmt).unwrap();
        let produced = conv.forward(qinput, Mode::Eval).expect("frozen forward");
        assert_eq!(produced.shape(), reference.shape(), "case {}", case.index);
        let err = rel_l2(produced.data(), reference.data());
        assert!(
            err <= REL_L2_GATE,
            "conv case {} (x {:?}, w {:?}, stride {}, pad {}): rel-L2 {err:e}",
            case.index,
            case.input.shape(),
            case.weight.shape(),
            case.stride,
            case.padding
        );
    }
}

// ---------------------------------------------------------------------------
// Pillar 3: bit-exact parity with the simulated path, plus a golden.
// ---------------------------------------------------------------------------

/// The goldens' LeNet fixture with a `FakeQuant` point in front of every
/// weighted layer — the simulated-quantisation topology. The packed model
/// quantises layer inputs on entry with the same format, so once the
/// simulated path also quantises them the two compute the same integer
/// arithmetic.
fn fq_lenet(seed: u64) -> Sequential {
    let mut init_rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = Sequential::new(vec![
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("conv1", 1, 4, 3, 1, 1, &mut init_rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("conv2", 4, 8, 3, 1, 0, &mut init_rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(FakeQuant::new()),
        Box::new(Dense::with_name(
            "fc",
            8,
            fixtures::LENET_CLASSES,
            &mut init_rng,
        )),
    ]);
    materialize_params(&mut model, &mut DetRng::new(seed));
    model
}

/// `fq_lenet(42)` with its weighted layers frozen (packed) at `bits`.
fn frozen_fq_lenet(bits: u32) -> Sequential {
    let mut model = fq_lenet(42);
    let q = Quantizer::for_bitwidth(bits).unwrap();
    let frozen = q.quantize_frozen(&mut model).unwrap();
    assert_eq!(frozen, 3, "conv1, conv2 and fc must freeze");
    model
}

/// The acceptance pin: on the scalar backend, the packed integer forward
/// is **bit-identical** to the simulated FakeQuant/rounded-weight float
/// forward. Per-block i32 sums scaled by the power-of-two resolutions stay
/// exactly representable in f32 at these layer sizes, so the two paths
/// compute the same bits despite different accumulation orders.
#[test]
fn packed_forward_is_bit_exact_with_simulated_quantisation() {
    advcomp_testkit::pin_kernel("scalar");
    let x = fixtures::image_batch(7, 4);
    for bits in [4u32, 8] {
        let q = Quantizer::for_bitwidth(bits).unwrap();

        let mut simulated = fq_lenet(42);
        q.quantize(&mut simulated);
        let sim_logits = simulated.forward(&x, Mode::Eval).unwrap();

        let packed_logits = frozen_fq_lenet(bits).forward(&x, Mode::Eval).unwrap();

        assert_eq!(sim_logits.shape(), packed_logits.shape());
        for (i, (s, p)) in sim_logits
            .data()
            .iter()
            .zip(packed_logits.data())
            .enumerate()
        {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "{bits}-bit logit {i}: simulated {s} vs packed {p}"
            );
        }
    }
}

/// Checked-in goldens for the packed LeNet forward at both paper
/// bitwidths (scalar backend): any drift in the block format, the
/// activation encode, or the fused GEMM/conv kernels shows up as a
/// bit-level diff in `lenet_packed_q8_forward` or `lenet_packed_q4_forward`.
#[test]
fn packed_lenet_forward_conforms() {
    advcomp_testkit::pin_kernel("scalar");
    for bits in [8u32, 4] {
        let mut model = frozen_fq_lenet(bits);
        let x = fixtures::image_batch(7, 4);
        let logits = model.forward(&x, Mode::Eval).unwrap();
        let packed: Vec<(String, Json)> = model
            .export_quantized()
            .iter()
            .map(|(name, qw)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("kind".into(), Json::Str(qw.tensor().kind().name().into())),
                        ("packed_bytes".into(), Json::from_usize(qw.packed_bytes())),
                    ]),
                )
            })
            .collect();
        let doc = Json::Obj(vec![
            ("model_seed".into(), Json::from_usize(42)),
            ("bitwidth".into(), Json::from_usize(bits as usize)),
            ("packed".into(), Json::Obj(packed)),
            ("input".into(), tensor_json(&x)),
            ("logits".into(), tensor_json(&logits)),
        ]);
        golden::check_or_regen(&format!("lenet_packed_q{bits}_forward"), &doc).unwrap();
    }
}

/// Checked-in golden for the packed (v3) checkpoint bytes of the frozen
/// fixture at both bitwidths: the file length and the CRC-32 of every
/// byte before the footer (the CRC of a whole file that ends in its own
/// CRC-32 is a constant). The CRC is stored as a hex string because
/// golden numbers compare as f32, which cannot hold every 32-bit value.
#[test]
fn packed_lenet_checkpoint_conforms() {
    let entry = |bits: u32| {
        let bytes = Checkpoint::capture(&frozen_fq_lenet(bits)).to_bytes();
        let body_crc = crc32(&bytes[..bytes.len() - 4]);
        Json::Obj(vec![
            ("bytes".into(), Json::from_usize(bytes.len())),
            ("body_crc32".into(), Json::Str(format!("{body_crc:08x}"))),
        ])
    };
    let doc = Json::Obj(vec![
        ("model_seed".into(), Json::from_usize(42)),
        (
            "checkpoints".into(),
            Json::Obj(vec![("q4".into(), entry(4)), ("q8".into(), entry(8))]),
        ),
    ]);
    golden::check_or_regen("lenet_packed_checkpoint", &doc).unwrap();
}
