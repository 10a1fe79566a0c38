//! The serving engine: sharded batch queues, work-stealing worker pool,
//! hot-swappable models, and the compression-ensemble adversarial guard.
//!
//! # Dataflow
//!
//! ```text
//! submit()/submit_async() --push--> [shard 0] --pop--> worker 0
//!    | round-robin, spill on full   [shard 1] --pop--> worker 1   steal on
//!    | (all full => Overloaded)        ...                ...     imbalance
//!    |                              [shard N] --pop--> worker N
//!    |                                                    |
//!    |<--------------- completion channel ----------------| coalesce to
//!         (token routes the reply; a drop-guard             max_batch or
//!          turns a lost job into WorkerLost, never           max_delay, then
//!          a hang)                                           batched forward
//! ```
//!
//! Each worker owns one shard and private clones of the registry's
//! compiled [`ExecPlan`]s, so forwards never share an activation arena.
//! Every forward runs a plan: the registry compiles each model when it is
//! registered or swapped and rejects one that does not lower, so there is
//! no other path to fall back to. An idle worker steals a chunk of queued
//! jobs from the most loaded shard, so a stalled worker never strands
//! requests. Before each batch the worker compares the registry's swap
//! generation with its cached one and re-clones the plans on change: a
//! hot model swap lands between batches, without draining in-flight work.
//!
//! # Completion contract
//!
//! Every job accepted into a shard produces **exactly one** completion:
//! the worker answers it, or — if a worker panics and the job is dropped —
//! the job's completion guard reports [`ServeError::WorkerLost`] on drop.
//! Callers (the blocking [`Engine::submit`] and the event-loop server)
//! therefore never hang on a lost request.
//!
//! # Ensemble guard
//!
//! Adversarial examples crafted against a dense model transfer imperfectly
//! to its pruned/quantised variants (the paper's central observation), so
//! the spread between the baseline's and its compressed copies' outputs is
//! a cheap adversarial signal. Scoring goes through the shared
//! [`Detector`](advcomp_detect::Detector) implementations from
//! `advcomp-detect` — the same code the offline calibration pipeline runs —
//! over the logits the batch forward already produced. For each request the
//! guard computes one score in `[0, 1]` and flags when
//! `score >= threshold`.
//!
//! By default the detector is top-1 disagreement at the manually
//! configured [`GuardConfig::threshold`]. When the registry carries a
//! [`DetectorCalibration`](advcomp_detect::DetectorCalibration) artifact
//! (see [`ModelRegistry::load_calibration`]), the guard instead deploys
//! the calibrated detector at its ROC-chosen operating threshold, and the
//! metrics snapshot reports the verdicts as calibrated.

use crate::metrics::GuardDeployment;
use crate::registry::{ModelRegistry, ModelSet, RegistryHandle};
use crate::shard::{PushError, ShardedQueue};
use crate::{ServeError, ServeMetrics};
use advcomp_detect::{detector_by_name, Detector, DisagreementDetector};
use advcomp_graph::ExecPlan;
use advcomp_nn::{faults, softmax};
use advcomp_tensor::Tensor;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ensemble-guard configuration.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Flag a request when its detector score reaches this value. Must
    /// lie in `(0, 1]`. Ignored when the registry carries a calibration
    /// artifact — the calibrated operating threshold wins.
    pub threshold: f64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { threshold: 0.5 }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker threads; also the number of queue shards (each
    /// worker drains its own shard and steals from the others).
    pub workers: usize,
    /// Maximum requests coalesced into one forward pass.
    pub max_batch: usize,
    /// Maximum time a worker waits for the batch to fill after the first
    /// request arrives.
    pub max_delay: Duration,
    /// Bounded depth of **each** shard; when every shard is full a submit
    /// is rejected with [`ServeError::Overloaded`]. Total queue capacity
    /// is therefore `workers * queue_depth`.
    pub queue_depth: usize,
    /// How long an idle worker parks before scanning other shards for
    /// work to steal. Lower values drain a stalled shard faster at the
    /// cost of more wakeups.
    pub steal_poll: Duration,
    /// Enables the compression-ensemble adversarial guard.
    pub guard: Option<GuardConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_depth: 64,
            steal_poll: Duration::from_millis(1),
            guard: Some(GuardConfig::default()),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::Config("workers must be >= 1".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue_depth must be >= 1".into()));
        }
        if self.steal_poll.is_zero() {
            return Err(ServeError::Config("steal_poll must be > 0".into()));
        }
        if let Some(g) = &self.guard {
            if !(g.threshold > 0.0 && g.threshold <= 1.0) {
                return Err(ServeError::Config(format!(
                    "guard threshold {} must lie in (0, 1]",
                    g.threshold
                )));
            }
        }
        Ok(())
    }
}

/// The answer for one request.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Baseline top-1 class.
    pub label: usize,
    /// Baseline softmax distribution, when the request asked for it.
    pub probs: Option<Vec<f32>>,
    /// Guard detector score in `[0, 1]` (higher = more suspect; the
    /// variant-disagreement fraction for the default detector). `None`
    /// when the guard is disabled or no variants are registered.
    pub suspect: Option<f64>,
    /// Whether the guard flagged this request as adversarial-suspect.
    pub flagged: Option<bool>,
    /// Per-variant top-1 labels `(name, label)` when the guard ran.
    pub variant_labels: Vec<(String, usize)>,
}

/// One finished request, delivered on a [`CompletionSender`]. The token
/// is whatever the submitter passed to [`Engine::submit_async`];
/// event-loop servers use it to route the reply to the right connection.
#[derive(Debug)]
pub struct Completion {
    /// Caller-chosen routing token, echoed verbatim.
    pub token: u64,
    /// The prediction, or why it failed.
    pub result: Result<Prediction, ServeError>,
}

/// Channel end that receives [`Completion`]s for async submits.
pub type CompletionSender = Sender<Completion>;

/// Called (if set) after a completion is sent, so pollers sleeping in
/// `poll(2)` can be woken. Must be cheap and never block.
pub type CompletionWaker = Arc<dyn Fn() + Send + Sync>;

/// Exactly-once completion guard: sends the result, or `WorkerLost` if
/// the job is dropped unanswered (e.g. a worker panic unwound the batch).
struct Done {
    tx: CompletionSender,
    token: u64,
    waker: Option<CompletionWaker>,
    sent: bool,
}

impl Done {
    fn send(mut self, result: Result<Prediction, ServeError>) {
        self.sent = true;
        let _ = self.tx.send(Completion {
            token: self.token,
            result,
        });
        if let Some(w) = &self.waker {
            w();
        }
    }
}

impl Drop for Done {
    fn drop(&mut self) {
        if !self.sent {
            let _ = self.tx.send(Completion {
                token: self.token,
                result: Err(ServeError::WorkerLost),
            });
            if let Some(w) = &self.waker {
                w();
            }
        }
    }
}

struct WorkJob {
    input: Vec<f32>,
    want_probs: bool,
    /// Evaluation-traffic tag: which attack (if any) this request claims
    /// to carry, for per-attack detection-rate accounting. Production
    /// traffic leaves it `None`.
    attack: Option<String>,
    enqueued: Instant,
    done: Done,
}

enum Job {
    Work(WorkJob),
    /// Test hook: puts the receiving worker to sleep, simulating a stall
    /// so the steal path can be exercised deterministically.
    Stall(Duration),
}

/// The guard as deployed: which detector scores batches and at what
/// threshold (resolved once at engine start from config + registry
/// calibration).
struct GuardRuntime {
    detector: Box<dyn Detector>,
    threshold: f64,
    calibrated: bool,
}

struct Shared {
    metrics: ServeMetrics,
    sample_len: usize,
    input_shape: Vec<usize>,
    config: ServeConfig,
    guard: Option<GuardRuntime>,
    queue: ShardedQueue<Job>,
    registry: RegistryHandle,
}

/// Handle to a running engine. Cheap to clone; all clones feed the same
/// worker pool.
#[derive(Clone)]
pub struct Engine {
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shared: Arc<Shared>,
    started: Instant,
}

impl Engine {
    /// Spawns the worker pool over `registry`'s models. The engine keeps
    /// a live handle to the registry: a later [`ModelRegistry::swap`] is
    /// picked up by every worker at its next batch boundary.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid configuration or an incomplete
    /// registry (no baseline).
    pub fn start(registry: &ModelRegistry, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let handle = registry.handle()?;
        // Resolve the guard deployment: a registry calibration artifact
        // overrides the manual threshold and picks the detector it was
        // calibrated for.
        let guard = match (&config.guard, registry.calibration()) {
            (Some(_), Some(cal)) => Some(GuardRuntime {
                detector: detector_by_name(&cal.detector).ok_or_else(|| {
                    ServeError::Config(format!(
                        "calibration names unknown detector {:?}",
                        cal.detector
                    ))
                })?,
                threshold: cal.threshold,
                calibrated: true,
            }),
            (Some(cfg), None) => Some(GuardRuntime {
                detector: Box::new(DisagreementDetector),
                threshold: cfg.threshold,
                calibrated: false,
            }),
            (None, _) => None,
        };
        let shared = Arc::new(Shared {
            metrics: ServeMetrics::with_model_names(registry.names()),
            sample_len: registry.sample_len(),
            input_shape: registry.input_shape().to_vec(),
            queue: ShardedQueue::new(config.workers, config.queue_depth),
            registry: handle,
            guard,
            config,
        });
        if let Some(g) = &shared.guard {
            shared.metrics.set_guard_deployment(GuardDeployment {
                detector: g.detector.name().into(),
                threshold: g.threshold,
                calibrated: g.calibrated,
            });
        }
        let mut workers = Vec::with_capacity(shared.config.workers);
        for idx in 0..shared.config.workers {
            let (generation, set) = shared.registry.snapshot();
            let planned = PlannedSet::new(&set, &shared);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{idx}"))
                    .spawn(move || worker_loop(idx, planned, generation, shared))
                    .map_err(ServeError::Io)?,
            );
        }
        Ok(Engine {
            workers: Arc::new(Mutex::new(workers)),
            shared,
            started: Instant::now(),
        })
    }

    fn validate_input(&self, input: &[f32]) -> Result<(), ServeError> {
        let m = &self.shared.metrics;
        if input.len() != self.shared.sample_len {
            m.failed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::BadRequest(format!(
                "input has {} values, model expects {}",
                input.len(),
                self.shared.sample_len
            )));
        }
        if input.iter().any(|v| !v.is_finite()) {
            m.failed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::BadRequest(
                "input contains non-finite values".into(),
            ));
        }
        Ok(())
    }

    fn enqueue(&self, job: WorkJob, shard: Option<usize>) -> Result<(), ServeError> {
        let m = &self.shared.metrics;
        let pushed = match shard {
            Some(s) => self.shared.queue.push_to(s, Job::Work(job)).map(|()| s),
            None => self.shared.queue.push(Job::Work(job)),
        };
        match pushed {
            Ok(_) => {
                m.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(PushError::Full(job)) => {
                m.overloaded.fetch_add(1, Ordering::Relaxed);
                // Forget the guard: the caller gets a synchronous error,
                // not a completion.
                if let Job::Work(mut w) = job {
                    w.done.sent = true;
                }
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed(job)) => {
                if let Job::Work(mut w) = job {
                    w.done.sent = true;
                }
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submits one sample and blocks until its prediction is ready.
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadRequest`] — wrong input length.
    /// * [`ServeError::Overloaded`] — every shard full; retry later.
    /// * [`ServeError::ShuttingDown`] — engine stopped.
    /// * [`ServeError::WorkerLost`] / [`ServeError::Nn`] — worker-side
    ///   failures.
    pub fn submit(&self, input: Vec<f32>, want_probs: bool) -> Result<Prediction, ServeError> {
        self.submit_keyed(input, want_probs, None, None)
    }

    /// Like [`Engine::submit`] but tags the request as evaluation traffic
    /// carrying `attack` (e.g. `"uap"`): the guard's verdict for it is
    /// accumulated into the per-attack detection-rate counters exported by
    /// the metrics snapshot. Production traffic should use plain
    /// [`Engine::submit`].
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`].
    pub fn submit_tagged(
        &self,
        input: Vec<f32>,
        want_probs: bool,
        attack: Option<String>,
    ) -> Result<Prediction, ServeError> {
        self.submit_keyed(input, want_probs, None, attack)
    }

    /// Like [`Engine::submit`] but pins the request to shard
    /// `key % workers` instead of round-robin placement, with no spill to
    /// other shards. Gives tests a deterministic target and callers an
    /// affinity knob; a pinned request on a stalled shard is still served
    /// via work stealing.
    pub fn submit_with_key(
        &self,
        input: Vec<f32>,
        want_probs: bool,
        key: usize,
    ) -> Result<Prediction, ServeError> {
        self.submit_keyed(input, want_probs, Some(key), None)
    }

    fn submit_keyed(
        &self,
        input: Vec<f32>,
        want_probs: bool,
        key: Option<usize>,
        attack: Option<String>,
    ) -> Result<Prediction, ServeError> {
        self.validate_input(&input)?;
        let (tx, rx) = mpsc::channel();
        let job = WorkJob {
            input,
            want_probs,
            attack,
            enqueued: Instant::now(),
            done: Done {
                tx,
                token: 0,
                waker: None,
                sent: false,
            },
        };
        self.enqueue(job, key)?;
        match rx.recv() {
            // Failure accounting happens on the worker side (run_batch /
            // the panic path), so errors are not double-counted here.
            Ok(c) => c.result,
            Err(_) => {
                self.shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::WorkerLost)
            }
        }
    }

    /// Non-blocking submit: validates and enqueues, then returns. The
    /// result arrives later as a [`Completion`] carrying `token` on
    /// `done` (exactly once, even if a worker dies); `waker`, when set,
    /// is invoked after each send so a `poll(2)`-parked event loop wakes.
    ///
    /// # Errors
    ///
    /// Synchronous failures only ([`ServeError::BadRequest`],
    /// [`ServeError::Overloaded`], [`ServeError::ShuttingDown`]); once
    /// this returns `Ok(())` the reply always comes via the channel.
    pub fn submit_async(
        &self,
        input: Vec<f32>,
        want_probs: bool,
        token: u64,
        done: &CompletionSender,
        waker: Option<CompletionWaker>,
    ) -> Result<(), ServeError> {
        self.submit_async_tagged(input, want_probs, None, token, done, waker)
    }

    /// [`Engine::submit_async`] with an optional evaluation-traffic attack
    /// tag (see [`Engine::submit_tagged`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::submit_async`].
    pub fn submit_async_tagged(
        &self,
        input: Vec<f32>,
        want_probs: bool,
        attack: Option<String>,
        token: u64,
        done: &CompletionSender,
        waker: Option<CompletionWaker>,
    ) -> Result<(), ServeError> {
        self.validate_input(&input)?;
        let job = WorkJob {
            input,
            want_probs,
            attack,
            enqueued: Instant::now(),
            done: Done {
                tx: done.clone(),
                token,
                waker,
                sent: false,
            },
        };
        self.enqueue(job, None)
    }

    /// Test hook: makes worker `shard % workers` sleep for `d` the next
    /// time it picks up work, simulating a stalled worker so steal-path
    /// tests are deterministic. Not part of the serving API.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] / [`ServeError::ShuttingDown`] as a
    /// normal pinned submit.
    #[doc(hidden)]
    pub fn inject_stall(&self, shard: usize, d: Duration) -> Result<(), ServeError> {
        match self.shared.queue.push_to(shard, Job::Stall(d)) {
            Ok(()) => Ok(()),
            Err(PushError::Full(_)) => Err(ServeError::Overloaded),
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// The engine's metrics (shared with workers).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// JSON metrics snapshot since engine start.
    pub fn metrics_snapshot(&self) -> crate::json::Json {
        self.shared
            .metrics
            .set_steals(self.shared.queue.stolen.load(Ordering::Relaxed));
        self.shared.metrics.set_swaps(self.shared.registry.swaps());
        self.shared.metrics.snapshot(self.started.elapsed())
    }

    /// Jobs stolen across shards so far.
    pub fn steals(&self) -> u64 {
        self.shared.queue.stolen.load(Ordering::Relaxed)
    }

    /// Current queued-job count per shard (diagnostics).
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shared.queue.depths()
    }

    /// Shape of one input sample.
    pub fn input_shape(&self) -> &[usize] {
        &self.shared.input_shape
    }

    /// Scalar element count of one input sample.
    pub fn sample_len(&self) -> usize {
        self.shared.sample_len
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Stops accepting work, drains every queued job, and joins every
    /// worker. Idempotent across clones.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let workers: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain(..)
            .collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

/// A worker's own clone of one registered model's compiled plan.
///
/// The plan keeps its activation arena and quantisation scratch across
/// batches, so the steady-state serving forward performs no per-layer heap
/// allocation.
struct PlannedModel {
    name: String,
    plan: ExecPlan,
}

impl PlannedModel {
    /// Clones the registry's plan, pre-sizes it for the largest coalesced
    /// batch so even the first forward allocates nothing, and publishes
    /// the plan gauges under metrics slot `index`.
    fn new(index: usize, (name, plan): &(String, ExecPlan), shared: &Shared) -> Self {
        let mut plan = plan.clone();
        plan.reserve_batch(shared.config.max_batch);
        shared.metrics.set_model_plan(
            index,
            plan.compile_us().max(1),
            plan.arena_peak_bytes() as u64,
        );
        PlannedModel {
            name: name.clone(),
            plan,
        }
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, ServeError> {
        self.plan
            .forward(input)
            .map_err(|e| ServeError::BadRequest(format!("model {}: {e}", self.name)))
    }
}

/// Every registered model of one worker.
struct PlannedSet {
    baseline: PlannedModel,
    variants: Vec<PlannedModel>,
}

impl PlannedSet {
    fn new(set: &ModelSet, shared: &Shared) -> Self {
        PlannedSet {
            baseline: PlannedModel::new(0, set.baseline(), shared),
            variants: set
                .variants()
                .iter()
                .enumerate()
                .map(|(i, m)| PlannedModel::new(1 + i, m, shared))
                .collect(),
        }
    }
}

fn worker_loop(idx: usize, mut planned: PlannedSet, mut generation: u64, shared: Arc<Shared>) {
    let max_batch = shared.config.max_batch;
    let max_delay = shared.config.max_delay;
    let steal_poll = shared.config.steal_poll;
    while let Some(jobs) = shared
        .queue
        .pop_batch(idx, max_batch, max_delay, steal_poll)
    {
        // Hot swap: between batches, re-clone the plans when the registry
        // generation moved. In-flight work finished on the old weights;
        // this batch runs on the new ones.
        let current = shared.registry.generation();
        if current != generation {
            let (g, set) = shared.registry.snapshot();
            planned = PlannedSet::new(&set, &shared);
            generation = g;
        }
        let mut batch = Vec::with_capacity(jobs.len());
        for job in jobs {
            match job {
                Job::Work(w) => batch.push(w),
                Job::Stall(d) => std::thread::sleep(d),
            }
        }
        if batch.is_empty() {
            continue;
        }
        let picked = Instant::now();
        for job in &batch {
            shared
                .metrics
                .queue_wait
                .record(picked.duration_since(job.enqueued));
        }
        shared.metrics.batch_sizes.record(batch.len());
        // A panicking forward (bug or injected fault) must cost one batch,
        // not the worker: the jobs' completion guards report WorkerLost
        // and the loop continues.
        let n_jobs = batch.len() as u64;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&mut planned, batch, &shared);
        }));
        if outcome.is_err() {
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            shared.metrics.failed.fetch_add(n_jobs, Ordering::Relaxed);
        }
    }
}

/// Runs one coalesced batch through the baseline (and guard variants),
/// then answers every job's completion.
fn run_batch(replicas: &mut PlannedSet, batch: Vec<WorkJob>, shared: &Shared) {
    let m = &shared.metrics;
    // Deterministic fault site for the soak suite: a `panic` spec here
    // exercises the worker's catch_unwind + completion-guard path.
    faults::maybe_panic("serve_batch");
    let n = batch.len();
    let mut shape = vec![n];
    shape.extend_from_slice(&shared.input_shape);
    let mut data = Vec::with_capacity(n * shared.sample_len);
    for job in &batch {
        data.extend_from_slice(&job.input);
    }
    let forward_t0 = Instant::now();
    let outcome = (|| -> Result<_, ServeError> {
        let input = Tensor::new(&shape, data).map_err(advcomp_nn::NnError::from)?;
        let logits = replicas.baseline.forward(&input)?;
        m.record_model_forward(0, forward_t0.elapsed());
        let labels = logits.argmax_rows().map_err(advcomp_nn::NnError::from)?;
        let probs = softmax(&logits)?;
        let guard = match (&shared.guard, replicas.variants.is_empty()) {
            (Some(g), false) => {
                let mut variant_logits = Vec::with_capacity(replicas.variants.len());
                let mut per_variant = Vec::with_capacity(replicas.variants.len());
                for (i, planned) in replicas.variants.iter_mut().enumerate() {
                    let variant_t0 = Instant::now();
                    let vl = planned.forward(&input)?;
                    m.record_model_forward(1 + i, variant_t0.elapsed());
                    let vlabels = vl.argmax_rows().map_err(advcomp_nn::NnError::from)?;
                    per_variant.push((planned.name.clone(), vlabels));
                    variant_logits.push(vl);
                }
                // Score through the shared detector implementation — the
                // same code path the offline calibration sweep ran.
                let scores = g.detector.score(&logits, &variant_logits)?;
                Some((g.threshold, scores, per_variant))
            }
            _ => None,
        };
        Ok((labels, probs, guard))
    })();
    m.forward.record(forward_t0.elapsed());

    match outcome {
        Ok((labels, probs, guard)) => {
            let classes = probs.shape()[1];
            for (row, job) in batch.into_iter().enumerate() {
                let label = labels[row];
                let (suspect, flagged, variant_labels) = match &guard {
                    Some((threshold, scores, per_variant)) => {
                        let total = per_variant.len();
                        let mut disagree = 0usize;
                        for (vi, (_, vl)) in per_variant.iter().enumerate() {
                            if vl[row] != label {
                                disagree += 1;
                                m.record_variant_disagreement(vi);
                            }
                        }
                        let suspect = scores[row];
                        let flagged = suspect >= *threshold;
                        m.guard_scored.fetch_add(1, Ordering::Relaxed);
                        m.guard_variants.fetch_add(total as u64, Ordering::Relaxed);
                        m.guard_disagreements
                            .fetch_add(disagree as u64, Ordering::Relaxed);
                        if flagged {
                            m.guard_flagged.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(attack) = &job.attack {
                            m.record_attack_outcome(attack, flagged);
                        }
                        (
                            Some(suspect),
                            Some(flagged),
                            per_variant
                                .iter()
                                .map(|(name, vl)| (name.clone(), vl[row]))
                                .collect(),
                        )
                    }
                    None => (None, None, Vec::new()),
                };
                let prediction = Prediction {
                    label,
                    probs: job
                        .want_probs
                        .then(|| probs.data()[row * classes..(row + 1) * classes].to_vec()),
                    suspect,
                    flagged,
                    variant_labels,
                };
                m.completed.fetch_add(1, Ordering::Relaxed);
                m.total.record(job.enqueued.elapsed());
                job.done.send(Ok(prediction));
            }
        }
        Err(err) => {
            // One shared failure message; ServeError isn't Clone, so each
            // job gets its own rendering.
            let msg = err.to_string();
            for job in batch {
                m.failed.fetch_add(1, Ordering::Relaxed);
                m.total.record(job.enqueued.elapsed());
                job.done.send(Err(ServeError::BadRequest(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_models::mlp;

    fn registry(variants: usize) -> ModelRegistry {
        let mut reg = ModelRegistry::new(&[1, 28, 28]).unwrap();
        reg.set_baseline("dense", mlp(8, 0)).unwrap();
        for i in 0..variants {
            reg.add_variant(format!("v{i}"), mlp(8, i as u64 + 1))
                .unwrap();
        }
        reg
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_delay: Duration::from_millis(1),
            queue_depth: 32,
            steal_poll: Duration::from_millis(1),
            guard: Some(GuardConfig { threshold: 0.5 }),
        }
    }

    #[test]
    fn rejects_bad_config() {
        let reg = registry(0);
        for bad in [
            ServeConfig {
                workers: 0,
                ..cfg()
            },
            ServeConfig {
                max_batch: 0,
                ..cfg()
            },
            ServeConfig {
                queue_depth: 0,
                ..cfg()
            },
            ServeConfig {
                steal_poll: Duration::ZERO,
                ..cfg()
            },
            ServeConfig {
                guard: Some(GuardConfig { threshold: 0.0 }),
                ..cfg()
            },
            ServeConfig {
                guard: Some(GuardConfig { threshold: 1.5 }),
                ..cfg()
            },
        ] {
            assert!(Engine::start(&reg, bad).is_err());
        }
    }

    #[test]
    fn serves_predictions_with_guard_scores() {
        let engine = Engine::start(&registry(2), cfg()).unwrap();
        let p = engine.submit(vec![0.5; 28 * 28], true).unwrap();
        assert!(p.label < 10);
        let probs = p.probs.expect("asked for probs");
        assert_eq!(probs.len(), 10);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(p.suspect.is_some());
        assert!(p.flagged.is_some());
        assert_eq!(p.variant_labels.len(), 2);
        engine.shutdown();
        let m = engine.metrics();
        assert_eq!(m.completed.load(Ordering::Relaxed), 1);
        // Per-model forward histograms: baseline + both variants recorded.
        assert_eq!(m.per_model_forward.len(), 3);
        assert_eq!(m.per_model_forward[0].0, "dense");
        for (name, h) in &m.per_model_forward {
            assert_eq!(h.count(), 1, "model {name} forward count");
        }
    }

    #[test]
    fn rejects_wrong_length_and_non_finite_inputs() {
        let engine = Engine::start(&registry(0), cfg()).unwrap();
        assert!(matches!(
            engine.submit(vec![0.0; 3], false),
            Err(ServeError::BadRequest(_))
        ));
        let mut nan = vec![0.0; 28 * 28];
        nan[0] = f32::NAN;
        assert!(matches!(
            engine.submit(nan, false),
            Err(ServeError::BadRequest(_))
        ));
        engine.shutdown();
    }

    #[test]
    fn concurrent_submits_batch_and_all_complete() {
        let engine = Engine::start(&registry(1), cfg()).unwrap();
        let mut handles = Vec::new();
        for i in 0..24 {
            let e = engine.clone();
            handles.push(std::thread::spawn(move || {
                e.submit(vec![(i as f32) / 24.0; 28 * 28], false)
            }));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        engine.shutdown();
        let m = engine.metrics();
        assert_eq!(m.completed.load(Ordering::Relaxed), 24);
        // With 24 near-simultaneous submits and max_batch 4 across 2
        // workers, at least one batch must have coalesced.
        assert!(m.batch_sizes.max() > 1, "max batch {}", m.batch_sizes.max());
    }

    #[test]
    fn submit_async_completes_with_token() {
        let engine = Engine::start(&registry(1), cfg()).unwrap();
        let (tx, rx) = mpsc::channel();
        for token in [7u64, 8, 9] {
            engine
                .submit_async(vec![token as f32 / 10.0; 28 * 28], false, token, &tx, None)
                .unwrap();
        }
        let mut tokens = Vec::new();
        for _ in 0..3 {
            let c = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(c.result.is_ok());
            tokens.push(c.token);
        }
        tokens.sort_unstable();
        assert_eq!(tokens, vec![7, 8, 9]);
        engine.shutdown();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let engine = Engine::start(&registry(0), cfg()).unwrap();
        engine.shutdown();
        assert!(matches!(
            engine.submit(vec![0.0; 28 * 28], false),
            Err(ServeError::ShuttingDown)
        ));
        // shutdown is idempotent.
        engine.shutdown();
    }

    #[test]
    fn workers_compile_plans_and_export_gauges() {
        use crate::json::Json;
        let engine = Engine::start(&registry(1), cfg()).unwrap();
        let p = engine.submit(vec![0.5; 28 * 28], false).unwrap();
        assert!(p.label < 10);
        let snap = engine.metrics_snapshot().to_string();
        let parsed = Json::parse(snap.as_bytes()).unwrap();
        let plan = parsed.get("plan").expect("plan section");
        for name in ["dense", "v0"] {
            let g = plan
                .get(name)
                .unwrap_or_else(|| panic!("gauges for {name}"));
            assert_eq!(g.get("compiled"), Some(&Json::Bool(true)), "{name}");
            assert!(
                matches!(g.get("compile_us"), Some(Json::Num(v)) if *v >= 1.0),
                "{name} compile_us"
            );
            assert!(
                matches!(g.get("arena_peak_bytes"), Some(Json::Num(v)) if *v > 0.0),
                "{name} arena_peak_bytes"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn guard_disabled_leaves_scores_empty() {
        let config = ServeConfig {
            guard: None,
            ..cfg()
        };
        let engine = Engine::start(&registry(2), config).unwrap();
        let p = engine.submit(vec![0.1; 28 * 28], false).unwrap();
        assert!(p.suspect.is_none());
        assert!(p.flagged.is_none());
        assert!(p.variant_labels.is_empty());
        engine.shutdown();
        assert_eq!(engine.metrics().guard_scored.load(Ordering::Relaxed), 0);
    }

    /// A calibration artifact on the registry must override the ad-hoc
    /// [`GuardConfig`] threshold: the engine deploys the calibrated
    /// detector at the ROC-chosen threshold and reports it in metrics.
    #[test]
    fn calibration_artifact_overrides_guard_config() {
        use advcomp_detect::DetectorCalibration;
        let mut reg = registry(2);
        let clean: Vec<f64> = (0..32).map(|i| 0.01 * i as f64).collect();
        let adv: Vec<f64> = (0..32).map(|i| 0.6 + 0.01 * i as f64).collect();
        let cal = DetectorCalibration::calibrate("divergence", &clean, &adv, 0.05).unwrap();
        let threshold = cal.threshold;
        reg.set_calibration(cal).unwrap();
        let engine = Engine::start(&reg, cfg()).unwrap();
        let deployment = engine.metrics().guard_deployment().expect("guard on");
        assert_eq!(deployment.detector, "divergence");
        assert!(deployment.calibrated);
        assert!((deployment.threshold - threshold).abs() < 1e-12);
        // Uncalibrated fallback: disagreement detector at the config
        // threshold.
        let engine2 = Engine::start(&registry(1), cfg()).unwrap();
        let fallback = engine2.metrics().guard_deployment().expect("guard on");
        assert_eq!(fallback.detector, "disagreement");
        assert!(!fallback.calibrated);
        assert!((fallback.threshold - 0.5).abs() < 1e-12);
        engine.shutdown();
        engine2.shutdown();
    }

    /// Attack-tagged evaluation traffic must land in the per-attack
    /// detection counters, and every guard batch must feed the
    /// per-variant disagreement counters and the metrics snapshot.
    #[test]
    fn tagged_traffic_fills_per_attack_and_per_variant_metrics() {
        use crate::json::Json;
        let engine = Engine::start(&registry(2), cfg()).unwrap();
        engine.submit(vec![0.2; 28 * 28], false).unwrap();
        engine
            .submit_tagged(vec![0.7; 28 * 28], false, Some("uap".into()))
            .unwrap();
        engine
            .submit_tagged(vec![0.9; 28 * 28], false, Some("uap".into()))
            .unwrap();
        engine.shutdown();
        let m = engine.metrics();
        let outcomes = m.attack_outcomes();
        assert_eq!(outcomes.len(), 1, "only tagged traffic is tallied");
        let (name, scored, flagged) = &outcomes[0];
        assert_eq!(name, "uap");
        assert_eq!(*scored, 2);
        assert!(*flagged <= 2);
        assert_eq!(m.per_variant_disagreements.len(), 2);
        assert_eq!(m.per_variant_disagreements[0].0, "v0");

        let snap = engine.metrics_snapshot().to_string();
        let parsed = Json::parse(snap.as_bytes()).unwrap();
        let guard = parsed.get("guard").expect("guard section");
        assert_eq!(
            guard.get("detector").and_then(Json::as_str),
            Some("disagreement")
        );
        assert_eq!(guard.get("calibrated"), Some(&Json::Bool(false)));
        let attacks = guard.get("attacks").expect("attacks section");
        assert_eq!(
            attacks.get("uap").and_then(|a| a.get("scored")),
            Some(&Json::Num(2.0))
        );
        let per_variant = guard
            .get("per_variant_disagreements")
            .expect("per-variant section");
        assert!(per_variant.get("v0").is_some());
        assert!(per_variant.get("v1").is_some());
    }
}
