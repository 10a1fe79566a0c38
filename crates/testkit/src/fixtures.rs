//! Deterministic model and data fixtures.
//!
//! The golden-vector fixtures are materialised from [`DetRng`] streams:
//! layers are constructed through the normal `advcomp_nn` constructors
//! (which draw initial weights from whatever `rand` the workspace links)
//! and then **every parameter value is overwritten** from the testkit's
//! own generator. The resulting network is therefore identical in every
//! build environment — the property the checked-in goldens rely on.
//! [`strided`] keeps its constructors' weights: the suites that use it
//! compare two paths in one process, never a checked-in value.

use crate::det::DetRng;
use advcomp_nn::{Conv2d, Dense, FakeQuant, Flatten, Layer, MaxPool2d, Relu, Sequential};
use advcomp_tensor::Tensor;
use rand::SeedableRng;

/// Classes predicted by the LeNet-style fixture.
pub const LENET_CLASSES: usize = 10;

/// Input image side length for the LeNet-style fixture.
pub const LENET_IMAGE: usize = 8;

/// Overwrites every parameter of `model` with uniform values from `rng`.
///
/// Weights and biases are drawn in `[-0.5, 0.5)` in parameter order (layer
/// order, weight before bias), consuming one stream value per scalar — so
/// the fill is a pure function of the seed and the architecture.
pub fn materialize_params(model: &mut Sequential, rng: &mut DetRng) {
    for p in model.params_mut() {
        for v in p.value.data_mut() {
            *v = rng.range_f32(-0.5, 0.5);
        }
    }
}

/// A tiny LeNet-style convolutional classifier on 8×8 single-channel
/// images:
///
/// ```text
/// conv1: Conv2d(1→4, k3, s1, p1) → ReLU → MaxPool(2,2)
/// conv2: Conv2d(4→8, k3, s1, p0) → ReLU → MaxPool(2,2)
/// Flatten → fc: Dense(8→10)
/// ```
///
/// All parameters come from a [`DetRng`] seeded with `seed`; the `rand`
/// stream used during layer construction is discarded.
pub fn lenet(seed: u64) -> Sequential {
    // Constructor rng only shapes the throwaway init; any stream works.
    let mut init_rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut model = Sequential::new(vec![
        Box::new(Conv2d::with_name("conv1", 1, 4, 3, 1, 1, &mut init_rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Conv2d::with_name("conv2", 4, 8, 3, 1, 0, &mut init_rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("fc", 8, LENET_CLASSES, &mut init_rng)),
    ]);
    let mut rng = DetRng::new(seed);
    materialize_params(&mut model, &mut rng);
    model
}

/// Per-sample input shape of [`strided`].
pub const STRIDED_INPUT: [usize; 3] = [3, 16, 16];

/// A net with the convolutions the paper nets lack, with FakeQuant layers
/// where the paper nets place them:
///
/// ```text
/// FakeQuant → down: Conv2d(3→5, k3, s2, p1) → ReLU
/// FakeQuant → point: Conv2d(5→7, k1, s1, p0) → ReLU
/// FakeQuant → Flatten → fc: Dense(448→10)
/// ```
///
/// The stride-2 conv lowers to `im2col` + GEMM on every backend, and the
/// 1×1 conv runs the direct kernels on AVX2, so the one net covers both
/// implementations under either `ADVCOMP_KERNEL`. The FakeQuant layers
/// pass values through until a quantiser installs their formats.
pub fn strided(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("down", 3, 5, 3, 2, 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Conv2d::with_name("point", 5, 7, 1, 1, 0, &mut rng)),
        Box::new(Relu::new()),
        Box::new(FakeQuant::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::with_name("fc", 7 * 8 * 8, 10, &mut rng)),
    ];
    Sequential::new(layers)
}

/// A batch of deterministic `[batch, 1, 8, 8]` images with pixels in
/// `[0, 1)` — the domain the attacks clamp to.
pub fn image_batch(seed: u64, batch: usize) -> Tensor {
    let mut rng = DetRng::new(seed);
    let data = rng.vec_f32(batch * LENET_IMAGE * LENET_IMAGE, 0.0, 1.0);
    Tensor::new(&[batch, 1, LENET_IMAGE, LENET_IMAGE], data)
        .expect("fixture shape is consistent by construction")
}

/// Deterministic labels in `[0, classes)`.
pub fn labels(seed: u64, batch: usize, classes: usize) -> Vec<usize> {
    let mut rng = DetRng::new(seed);
    (0..batch).map(|_| rng.range_usize(0, classes)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::Mode;

    #[test]
    fn lenet_is_seed_deterministic() {
        let mut a = lenet(11);
        let mut b = lenet(11);
        let x = image_batch(3, 2);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya.data(), yb.data());
        assert_eq!(ya.shape(), &[2, LENET_CLASSES]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = lenet(1);
        let b = lenet(2);
        let wa = &a.param("conv1.weight").unwrap().value;
        let wb = &b.param("conv1.weight").unwrap().value;
        assert_ne!(wa.data(), wb.data());
    }

    #[test]
    fn image_batch_is_in_unit_range() {
        let x = image_batch(5, 3);
        assert!(x.data().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn labels_are_in_range() {
        let l = labels(7, 50, LENET_CLASSES);
        assert!(l.iter().all(|&c| c < LENET_CLASSES));
    }
}
