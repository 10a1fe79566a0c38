//! Inverted dropout.

use crate::layer::{Layer, Mode};
use crate::{NnError, Result};
use advcomp_tensor::Tensor;
use rand::{Rng, SeedableRng};

/// Inverted dropout: in training mode each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)` so evaluation mode
/// is a plain identity, which hands its buffer on. Training multiplies the
/// input and the gradient by the mask in place.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: rand::rngs::StdRng,
    mask: Option<Tensor>,
    last_mode: Mode,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a fixed seed
    /// (training must be reproducible for the paper's paired comparisons).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0, 1), got {p}"
        );
        Dropout {
            p,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            mask: None,
            last_mode: Mode::Eval,
        }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, mut input: Tensor, mode: Mode) -> Result<Tensor> {
        self.last_mode = mode;
        if mode == Mode::Eval || self.p == 0.0 {
            self.mask = None;
            return Ok(input);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let mask = Tensor::new(input.shape(), mask_data)?;
        mul_in_place(&mut input, &mask);
        self.mask = Some(mask);
        Ok(input)
    }

    fn backward_input(&mut self, mut grad_output: Tensor) -> Result<Tensor> {
        match (self.last_mode, &self.mask) {
            (Mode::Eval, _) | (Mode::Train, None) => Ok(grad_output),
            (Mode::Train, Some(mask)) => {
                if mask.shape() != grad_output.shape() {
                    return Err(NnError::Tensor(
                        advcomp_tensor::TensorError::ShapeMismatch {
                            lhs: grad_output.shape().to_vec(),
                            rhs: mask.shape().to_vec(),
                            op: "dropout backward",
                        },
                    ));
                }
                mul_in_place(&mut grad_output, mask);
                Ok(grad_output)
            }
        }
    }

    fn kind(&self) -> &'static str {
        "dropout"
    }

    fn spec(&self) -> crate::layer::LayerSpec<'_> {
        crate::layer::LayerSpec::Dropout
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        // The RNG is cloned at its current position so a replica trained
        // onward draws the same masks the original would have.
        Box::new(Dropout {
            p: self.p,
            rng: self.rng.clone(),
            mask: None,
            last_mode: Mode::Eval,
        })
    }
}

/// `t[i] *= mask[i]`; the caller has checked the shapes.
fn mul_in_place(t: &mut Tensor, mask: &Tensor) {
    for (v, &m) in t.data_mut().iter_mut().zip(mask.data()) {
        *v *= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let y = d.forward(x.clone(), Mode::Eval).unwrap();
        assert_eq!(y.data(), x.data());
        let g = d.backward_input(Tensor::ones(&[3])).unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn train_zeroes_roughly_p_fraction() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones(&[10_000]);
        let y = d.forward(x, Mode::Train).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros = {zeros}");
        // Survivors are scaled so the expectation is preserved.
        assert!((y.mean() - 1.0).abs() < 0.05);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[64]);
        let y = d.forward(x, Mode::Train).unwrap();
        let g = d.backward_input(Tensor::ones(&[64])).unwrap();
        // Gradient is zero exactly where the output was dropped.
        for (o, gr) in y.data().iter().zip(g.data()) {
            assert_eq!(*o == 0.0, *gr == 0.0);
        }
    }

    #[test]
    fn p_zero_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 0);
        let x = Tensor::from_vec(vec![5.0; 8]);
        let y = d.forward(x.clone(), Mode::Train).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn invalid_p_panics() {
        Dropout::new(1.0, 0);
    }
}
