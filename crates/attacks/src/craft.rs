//! Crafting several attacks against one model at once, with the samples of
//! per-sample attacks on idle pool workers.

use crate::{Attack, Result};
use advcomp_nn::health::{self, HealthEvent};
use advcomp_nn::Sequential;
use advcomp_tensor::{pool, Tensor};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One [`craft_all`] job: an attack, its clean inputs and their labels, as
/// [`Attack::generate`] takes them.
pub type CraftJob<'a> = (&'a dyn Attack, &'a Tensor, &'a [usize]);

/// What one crafting unit (a whole batch attack, or one sample) returned,
/// with the health events it recorded.
type Crafted = (Result<Tensor>, Vec<HealthEvent>);

/// Crafts every job against `model` and returns what calling each job's
/// [`Attack::generate`] in order on `model` returns: the same tensors, bit
/// for bit, the same health events, re-recorded on this thread in
/// job-then-sample order, and the first error in job order.
///
/// Only the schedule differs. A job whose attack reports
/// [`Attack::independent_samples`] becomes one pool chunk per sample, each
/// crafted on a model from a free list that holds at most one model per
/// participating thread: a replica of `model` per helper, and `model`
/// itself once the lead is done. The other jobs, the batch attacks, are the
/// lead: they run in order on `model` on this thread, which then joins the
/// samples still unclaimed. Batch attacks never overlap one another, so
/// memory holds one batch craft at a time.
///
/// The `attack_iter` fault site counts its hits process-wide, so inside
/// one call the hit indices follow the schedule: a sticky fault from hit 0,
/// or any fault on a one-thread pool, fires deterministically.
///
/// # Errors
///
/// The first error in job order, as [`Attack::generate`] reports it.
pub fn craft_all(model: &mut Sequential, jobs: &[CraftJob<'_>]) -> Result<Vec<Tensor>> {
    // A malformed batch runs whole, so `generate` reports its own error.
    let split: Vec<bool> = jobs
        .iter()
        .map(|&(attack, x, labels)| {
            attack.independent_samples()
                && !labels.is_empty()
                && x.shape().first() == Some(&labels.len())
        })
        .collect();
    // `(job, sample)` per chunk, in job-then-sample order.
    let samples: Vec<(usize, usize)> = jobs
        .iter()
        .zip(&split)
        .enumerate()
        .filter(|&(_, (_, &split))| split)
        .flat_map(|(j, (&(_, _, labels), _))| (0..labels.len()).map(move |i| (j, i)))
        .collect();
    let pool = pool::global();
    let helpers = (pool.effective_threads() - 1).min(samples.len());
    let mut replicas: Vec<Sequential> = (0..helpers).map(|_| model.clone()).collect();
    let free = Mutex::new(replicas.iter_mut().collect::<Vec<_>>());
    let crafted: Vec<OnceLock<Crafted>> = samples.iter().map(|_| OnceLock::new()).collect();
    let batch = pool.run(
        samples.len(),
        helpers,
        || {
            let mut batch = Vec::new();
            for (&(attack, x, labels), _) in jobs.iter().zip(&split).filter(|(_, &s)| !s) {
                let unit = health::scope(|| attack.generate(model, x, labels));
                let failed = unit.0.is_err();
                batch.push(unit);
                if failed {
                    break;
                }
            }
            lock(&free).push(model);
            batch
        },
        &|s| {
            let (j, i) = samples[s];
            let (attack, x, labels) = jobs[j];
            let mut replica = Checkout::take(&free);
            let unit = health::scope(|| {
                let xi = x.narrow(i, 1)?;
                attack.generate(replica.model(), &xi, &labels[i..=i])
            });
            // Each index runs once, so the slot is still empty.
            let _ = crafted[s].set(unit);
        },
    );

    let mut batch = batch.into_iter();
    let mut crafted = crafted
        .into_iter()
        .map(|unit| unit.into_inner().expect("every sample chunk ran"));
    let mut out = Vec::with_capacity(jobs.len());
    for (&(_, _, labels), &split) in jobs.iter().zip(&split) {
        if split {
            let parts = crafted
                .by_ref()
                .take(labels.len())
                .map(replay)
                .collect::<Result<Vec<_>>>()?;
            out.push(Tensor::concat0(&parts)?);
        } else {
            let unit = batch
                .next()
                .expect("the lead stops only after an error, returned above");
            out.push(replay(unit)?);
        }
    }
    Ok(out)
}

/// Re-records a unit's health events on this thread; returns its result.
fn replay((result, events): Crafted) -> Result<Tensor> {
    for event in events {
        health::record(&event.site, event.detail);
    }
    result
}

/// Locks `m`, recovering it from a poisoned state: every update here is
/// one push or pop, which leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A model taken from the free list and put back when dropped, also when a
/// craft panics, so the list never runs dry.
struct Checkout<'l, 'm> {
    free: &'l Mutex<Vec<&'m mut Sequential>>,
    model: Option<&'m mut Sequential>,
}

impl<'l, 'm> Checkout<'l, 'm> {
    fn take(free: &'l Mutex<Vec<&'m mut Sequential>>) -> Self {
        let model = lock(free)
            .pop()
            .expect("the free list holds one model per participating thread");
        Checkout {
            free,
            model: Some(model),
        }
    }

    fn model(&mut self) -> &mut Sequential {
        self.model.as_deref_mut().expect("held until dropped")
    }
}

impl Drop for Checkout<'_, '_> {
    fn drop(&mut self) {
        if let Some(model) = self.model.take() {
            lock(self.free).push(model);
        }
    }
}
