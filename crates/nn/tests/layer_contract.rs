//! The by-value layer contract: a layer whose output has its input's
//! shape and length hands its input's own buffer on. For `FakeQuant` with
//! and without a format, `Relu`, `Flatten` and `Dropout` in eval mode,
//! `forward` returns the buffer it was given and `backward_input` returns
//! the gradient's buffer, so `Sequential` moves one activation and one
//! gradient tensor through these layers without copying either.

use advcomp_nn::{Dropout, FakeQuant, Flatten, Layer, Mode, Relu};
use advcomp_qformat::QFormat;
use advcomp_tensor::Tensor;

/// Runs `layer` forward on `x` and backward on a gradient of the output's
/// shape, and asserts each returned its argument's buffer.
fn assert_hands_buffers_on(label: &str, layer: &mut dyn Layer, x: Tensor) {
    let ptr = x.data().as_ptr();
    let y = layer.forward(x, Mode::Eval).expect("forward");
    assert_eq!(y.data().as_ptr(), ptr, "{label}: forward copied its input");
    let g = Tensor::full(y.shape(), 0.5);
    let ptr = g.data().as_ptr();
    let dx = layer.backward_input(g).expect("backward_input");
    assert_eq!(
        dx.data().as_ptr(),
        ptr,
        "{label}: backward_input copied its gradient"
    );
}

#[test]
fn elementwise_and_reshaping_layers_hand_their_buffers_on() {
    let x = || {
        Tensor::new(
            &[2, 3, 2, 2],
            (0..24).map(|v| v as f32 * 0.125 - 1.0).collect(),
        )
        .unwrap()
    };
    let q = QFormat::new(1, 3).unwrap();
    let cases: [(&str, Box<dyn Layer>); 5] = [
        ("fakequant without a format", Box::new(FakeQuant::new())),
        ("fakequant Q1.3", Box::new(FakeQuant::with_format(q))),
        ("relu", Box::new(Relu::new())),
        ("flatten", Box::new(Flatten::new())),
        ("dropout in eval", Box::new(Dropout::new(0.5, 1))),
    ];
    for (label, mut layer) in cases {
        assert_hands_buffers_on(label, layer.as_mut(), x());
    }
}
