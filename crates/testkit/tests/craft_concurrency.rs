//! `craft_all` against serial `generate` calls: crafting IFGSM, IFGM and
//! DeepFool (at their adapted Table 1 parameters) with DeepFool's samples
//! on pool workers must return the serial calls' tensors bit for bit, their
//! health events in order, and their first error.
//!
//! The models are both paper nets at the sweep widths, at f32, DNS-pruned
//! to density 0.1 and with 4-bit FakeQuant installed, on the task's own
//! test inputs. Each
//! comparison runs at the pool's default parallelism and under
//! `with_thread_cap(1)`. `scripts/check.sh` also runs this binary at
//! `ADVCOMP_THREADS=8`, so seven helpers interleave the samples.
//!
//! Every test holds the fault registry (empty where it injects nothing),
//! so the one test that poisons `attack_iter` never leaks its NaNs into
//! another's crafts.

use advcomp_attacks::{
    craft_all, Attack, AttackKind, CraftJob, DeepFool, Ifgm, Ifgsm, NetKind, PaperParams,
};
use advcomp_compress::{DnsPruner, Quantizer, TrainConfig};
use advcomp_core::{ExperimentScale, TaskSetup};
use advcomp_models::{cifarnet, lenet5};
use advcomp_nn::faults::{self, FaultGuard, FaultKind, FaultSpec};
use advcomp_nn::health::{self, HealthEvent};
use advcomp_nn::Sequential;
use advcomp_tensor::pool::with_thread_cap;
use advcomp_tensor::Tensor;

/// Samples the batch attacks and DeepFool craft per job.
const BATCH: usize = 24;
const DEEPFOOL_SAMPLES: usize = 8;

/// A model to craft against and the inputs of each attack.
struct Case {
    name: String,
    model: Sequential,
    attacks: Vec<Box<dyn Attack>>,
    sets: Vec<(Tensor, Vec<usize>)>,
}

impl Case {
    fn jobs(&self) -> Vec<CraftJob<'_>> {
        self.attacks
            .iter()
            .zip(&self.sets)
            .map(|(attack, (x, y))| (attack.as_ref(), x, y.as_slice()))
            .collect()
    }
}

fn net_cases(net: NetKind) -> Vec<Case> {
    let setup = TaskSetup::new(net, &ExperimentScale::tiny());
    let base = match net {
        NetKind::LeNet5 => lenet5(0.5, 31),
        NetKind::CifarNet => cifarnet(0.35, 32),
    };
    let mut dns = base.clone();
    DnsPruner {
        update_every: 1,
        ..DnsPruner::new(0.1)
    }
    .prune_and_finetune(
        &mut dns,
        &setup.train.take(64).unwrap(),
        &TrainConfig::paper(1),
    )
    .unwrap();
    let mut fake_quant = base.clone();
    Quantizer::for_bitwidth(4)
        .unwrap()
        .quantize(&mut fake_quant);
    let sets: Vec<(Tensor, Vec<usize>)> = AttackKind::ALL
        .iter()
        .map(|&kind| {
            let n = match kind {
                AttackKind::DeepFool => DEEPFOOL_SAMPLES,
                _ => BATCH,
            };
            setup.test.slice(0, n).unwrap()
        })
        .collect();
    [
        ("f32", base),
        ("dns 0.1", dns),
        ("fakequant 4-bit", fake_quant),
    ]
    .into_iter()
    .map(|(variant, model)| Case {
        name: format!("{} {variant}", net.id()),
        model,
        attacks: AttackKind::ALL
            .iter()
            .map(|&kind| PaperParams::build_adapted(net, kind))
            .collect(),
        sets: sets.clone(),
    })
    .collect()
}

/// Holds the process-wide fault registry with nothing installed.
fn no_faults() -> FaultGuard {
    faults::install(Vec::new())
}

/// Each job's `generate`, in order, on one replica of `model`.
fn serial(model: &Sequential, jobs: &[CraftJob<'_>]) -> (Vec<Tensor>, Vec<HealthEvent>) {
    let mut model = model.clone();
    health::scope(|| {
        jobs.iter()
            .map(|&(attack, x, y)| attack.generate(&mut model, x, y).unwrap())
            .collect()
    })
}

/// `craft_all` on another replica of `model`.
fn concurrent(model: &Sequential, jobs: &[CraftJob<'_>]) -> (Vec<Tensor>, Vec<HealthEvent>) {
    let mut model = model.clone();
    health::scope(|| craft_all(&mut model, jobs).unwrap())
}

fn assert_same_bits(name: &str, want: &[Tensor], got: &[Tensor]) {
    assert_eq!(want.len(), got.len(), "{name}: job count");
    for (j, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.shape(), g.shape(), "{name}: job {j} shape");
        let differ = w
            .data()
            .iter()
            .zip(g.data())
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(differ, None, "{name}: job {j} differs at element");
    }
}

/// `craft_all` equals the serial calls at default parallelism and on one
/// thread.
fn assert_matches_serial(name: &str, model: &Sequential, jobs: &[CraftJob<'_>]) {
    let (want, want_events) = serial(model, jobs);
    let (got, events) = concurrent(model, jobs);
    assert_same_bits(name, &want, &got);
    assert_eq!(events, want_events, "{name}: health events");
    let (got, events) = with_thread_cap(1, || concurrent(model, jobs));
    assert_same_bits(&format!("{name}, one thread"), &want, &got);
    assert_eq!(events, want_events, "{name}, one thread: health events");
}

#[test]
fn craft_all_matches_serial_generate_on_both_nets() {
    let _serial = no_faults();
    for net in [NetKind::LeNet5, NetKind::CifarNet] {
        for case in net_cases(net) {
            assert_matches_serial(&case.name, &case.model, &case.jobs());
        }
    }
}

/// Under a sticky NaN at every `attack_iter` hit, each attack stops at its
/// first iterate, and the events `craft_all` re-records match the serial
/// run's, one per batch attack and one per DeepFool sample, in job order
/// (sweep order and reversed).
#[test]
fn health_events_match_serial_under_a_sticky_nan_fault() {
    let case = net_cases(NetKind::LeNet5).remove(0);
    let mut jobs = case.jobs();
    let _g = faults::install(vec![FaultSpec::sticky(FaultKind::Nan, "attack_iter", 0)]);
    let mut expected = vec!["ifgsm", "ifgm"];
    expected.extend(["deepfool"; DEEPFOOL_SAMPLES]);
    for order in ["sweep order", "reversed"] {
        let (want, want_events) = serial(&case.model, &jobs);
        let sites: Vec<&str> = want_events.iter().map(|e| e.site.as_str()).collect();
        assert_eq!(sites, expected, "{order}: {want_events:?}");
        for (threads, (got, events)) in [
            ("default threads", concurrent(&case.model, &jobs)),
            (
                "one thread",
                with_thread_cap(1, || concurrent(&case.model, &jobs)),
            ),
        ] {
            let name = format!("{order}, {threads}");
            assert_same_bits(&name, &want, &got);
            assert_eq!(events, want_events, "{name}: health events");
        }
        jobs.reverse();
        expected.reverse();
    }
}

/// The first error in job order is returned, as the serial calls return
/// it, although a later job fails too.
#[test]
fn craft_all_returns_the_first_error_in_job_order() {
    let _serial = no_faults();
    let case = net_cases(NetKind::LeNet5).remove(0);
    let mut jobs = case.jobs();
    // DeepFool with one label too few: a malformed batch runs whole.
    let (x, y) = &case.sets[2];
    jobs[2] = (jobs[2].0, x, &y[1..]);
    jobs.push((jobs[0].0, x, &y[..1]));
    let mut model = case.model.clone();
    let want = jobs
        .iter()
        .map(|&(attack, x, y)| attack.generate(&mut model, x, y))
        .find_map(Result::err)
        .expect("the serial calls fail");
    let mut model = case.model.clone();
    let got = craft_all(&mut model, &jobs).expect_err("craft_all fails");
    assert_eq!(got.to_string(), want.to_string());
}

/// DeepFool's batch output is its per-sample outputs, each on a fresh
/// replica, concatenated; the iterative FGSM family crafts batches whole.
#[test]
fn only_deepfool_crafts_samples_independently() {
    let _serial = no_faults();
    for case in net_cases(NetKind::LeNet5) {
        let (x, y) = &case.sets[2];
        let attack = &case.attacks[2];
        assert!(attack.independent_samples(), "{}", attack.name());
        let batch = attack.generate(&mut case.model.clone(), x, y).unwrap();
        let samples: Vec<Tensor> = (0..y.len())
            .map(|i| {
                let xi = x.narrow(i, 1).unwrap();
                attack
                    .generate(&mut case.model.clone(), &xi, &y[i..=i])
                    .unwrap()
            })
            .collect();
        let joined = Tensor::concat0(&samples).unwrap();
        assert_same_bits(&case.name, &[batch], &[joined]);
    }
    assert!(DeepFool::new(0.02, 3).unwrap().independent_samples());
    assert!(!Ifgsm::new(0.02, 3).unwrap().independent_samples());
    assert!(!Ifgm::new(0.02, 3).unwrap().independent_samples());
}
