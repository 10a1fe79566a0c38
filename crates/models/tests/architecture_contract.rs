//! Architecture contracts the rest of the workspace relies on: stable
//! parameter names, checkpoint compatibility across instances, and the
//! quantisation-point layout of the reference models.

use advcomp_models::{cifarnet, lenet5, mlp, Checkpoint, ModelKind};
use advcomp_nn::Mode;
use advcomp_qformat::QFormat;
use advcomp_tensor::Tensor;

#[test]
fn lenet5_parameter_names_are_stable() {
    // Compression masks and checkpoints key on these names; changing them
    // silently breaks saved artefacts.
    let names: Vec<String> = lenet5(1.0, 0)
        .params()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    assert_eq!(
        names,
        vec![
            "conv1.weight",
            "conv1.bias",
            "conv2.weight",
            "conv2.bias",
            "fc1.weight",
            "fc1.bias",
            "fc2.weight",
            "fc2.bias",
            "fc3.weight",
            "fc3.bias",
        ]
    );
}

#[test]
fn cifarnet_parameter_names_are_stable() {
    let names: Vec<String> = cifarnet(1.0, 0)
        .params()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    assert_eq!(
        names,
        vec![
            "conv1.weight",
            "conv1.bias",
            "conv2.weight",
            "conv2.bias",
            "conv3.weight",
            "conv3.bias",
            "conv4.weight",
            "conv4.bias",
            "fc1.weight",
            "fc1.bias",
            "fc2.weight",
            "fc2.bias",
        ]
    );
}

#[test]
fn checkpoints_transfer_between_same_width_instances() {
    let a = lenet5(0.5, 1);
    let mut b = lenet5(0.5, 2);
    Checkpoint::capture(&a).restore(&mut b).unwrap();
    for (pa, pb) in a.params().iter().zip(b.params().iter()) {
        assert_eq!(pa.value.data(), pb.value.data());
    }
}

#[test]
fn checkpoints_reject_width_mismatch() {
    let a = lenet5(0.5, 1);
    let mut b = lenet5(1.0, 1);
    assert!(Checkpoint::capture(&a).restore(&mut b).is_err());
}

#[test]
fn quantisation_points_cover_input_and_every_activation() {
    // The §3.2 scheme quantises *all* activations; model builders must put
    // a FakeQuant at the input and after each nonlinearity.
    let fmt = QFormat::for_bitwidth(4).unwrap();
    for (mut model, expected_points) in [(lenet5(1.0, 0), 5usize), (cifarnet(1.0, 0), 6)] {
        assert_eq!(model.set_activation_format(Some(fmt)), expected_points);
        // With a Q1.3 format installed everywhere, every quantisation
        // point's output must respect the format's range.
        let input_shape = if expected_points == 5 {
            [1usize, 1, 28, 28]
        } else {
            [1usize, 3, 32, 32]
        };
        let outputs = model
            .forward_outputs(&Tensor::full(&input_shape, 0.4), Mode::Eval)
            .unwrap();
        for (layer, out) in model.layers().iter().zip(&outputs) {
            if layer.kind() == "fakequant" {
                assert!(out.max().unwrap() <= fmt.max_value());
                assert!(out.min().unwrap() >= fmt.min_value());
            }
        }
    }
}

#[test]
fn model_kind_shapes_match_builders() {
    let mut l = lenet5(0.5, 0);
    let mut shape = vec![2usize];
    shape.extend_from_slice(ModelKind::LeNet5.input_shape());
    assert!(l.forward(&Tensor::zeros(&shape), Mode::Eval).is_ok());

    let mut c = cifarnet(0.25, 0);
    let mut shape = vec![2usize];
    shape.extend_from_slice(ModelKind::CifarNet.input_shape());
    assert!(c.forward(&Tensor::zeros(&shape), Mode::Eval).is_ok());
}

#[test]
fn mlp_and_lenet_share_input_contract() {
    // The test MLP must accept the same input as LeNet5 so tests can swap
    // them freely.
    let mut m = mlp(8, 0);
    let mut l = lenet5(0.5, 0);
    let x = Tensor::zeros(&[3, 1, 28, 28]);
    assert_eq!(m.forward(&x, Mode::Eval).unwrap().shape(), &[3, 10]);
    assert_eq!(l.forward(&x, Mode::Eval).unwrap().shape(), &[3, 10]);
}
