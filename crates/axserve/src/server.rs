//! The fault-tolerant batched inference server.
//!
//! # Architecture
//!
//! ```text
//! clients ──try_send──▶ bounded admission queue ──▶ batcher thread ──▶ worker pool
//!    ▲                      (backpressure:             (groups by          (N threads,
//!    │                       full ⇒ Overloaded)         model/kernel/       catch_unwind
//!    └────── Response / typed ServeError ◀──────────────shape; idle worker  + bisection)
//!                                                       ⇒ dispatch now,
//!                                                       else size-or-
//!                                                       linger flush)
//! ```
//!
//! * **Work-conserving batching** — while some worker has no batch, the
//!   batcher dispatches pending groups at once, oldest first: holding a
//!   request back only pays off when it can join others, and that needs
//!   every worker busy. Only then do groups coalesce, flushing at
//!   [`ServerConfig::max_batch`] requests or after
//!   [`ServerConfig::linger`]. So a lone request on a quiet server is
//!   answered without waiting, and an overloaded one still amortizes
//!   plan setup over full batches.
//! * **Deadlines** — every [`Request`] may carry a [`Deadline`] budget.
//!   Expired requests are rejected with
//!   [`ServeError::DeadlineExceeded`] at admission, at batch formation,
//!   and again just before execution; they are never silently queued.
//! * **Backpressure** — the admission queue is bounded
//!   ([`axutil::sync::bounded`]). A full queue sheds with
//!   [`ServeError::Overloaded`] and a retry-after hint instead of
//!   growing an unbounded backlog. The batcher additionally caps its
//!   pending set and blocks on the (bounded) worker channel, so pressure
//!   propagates all the way back to the caller.
//! * **Panic isolation** — each batch executes under
//!   [`std::panic::catch_unwind`]. A panicking batch is *bisected*: the
//!   halves are re-executed (bounded per-request retries, with backoff)
//!   until the offending request fails alone with
//!   [`ServeError::Poisoned`] while its batch-mates are answered
//!   normally. The worker, the server, and unrelated requests survive.
//! * **Graceful degradation** — under sustained overload (a burst of
//!   sheds inside the policy window) the server can temporarily reroute
//!   approximate-kernel traffic to the exact multiplier; every such
//!   response is marked ([`Response::degraded`] plus the answering
//!   kernel name), so callers always know which numerics they received.
//! * **Moving-target ensembles** — a hosted ensemble
//!   ([`ServerBuilder::ensemble`]) resolves each request to one of its
//!   member kernels via a [`KernelPolicy`] draw keyed by a server-wide
//!   query counter. The sampled kernel is disclosed per response
//!   ([`Response::sampled`] plus the answering kernel name), exactly
//!   like degradation.
//!
//! # Determinism contract
//!
//! A completed [`Response`] is **bit-identical** to an offline
//! [`QPlan::forward_batch_with`](axquant::QPlan::forward_batch_with)
//! pass over the same image with the answering kernel — for any worker
//! count, batch coalescing, flush timing, or `AXDNN_THREADS` setting.
//! Batching here never reassociates arithmetic; it only amortizes
//! plan/scratch setup. Pinned by `tests/prop_serve.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use axmul::{ExactMul, MulKernel, MulLut};
use axquant::{KernelPolicy, QuantModel};
use axtensor::Tensor;
use axutil::sync::{bounded, BoundedSender, QueueDepth, SendError};
use axutil::time::Deadline;

use crate::batcher::{Batch, Job, Pending};
use crate::error::ServeError;
use crate::pool::{ModelId, PlanPool};
use crate::request::{FaultHook, Request, Response};
use crate::stats::{ServerStats, StatsInner};

/// The always-hosted exact kernel's index in the kernel table.
const EXACT_KERNEL: usize = 0;

static EXACT: ExactMul = ExactMul;

/// When (and whether) sustained overload reroutes approximate traffic to
/// the exact kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Master switch; off by default so the determinism-sensitive tests
    /// and sweeps opt in explicitly.
    pub enabled: bool,
    /// Sliding window over admission sheds.
    pub window: Duration,
    /// Sheds within [`DegradePolicy::window`] that trip degradation.
    pub shed_threshold: u32,
    /// How long degradation stays active once tripped.
    pub hold: Duration,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            enabled: false,
            window: Duration::from_millis(100),
            shed_threshold: 8,
            hold: Duration::from_millis(250),
        }
    }
}

/// Server tuning knobs. The defaults favour small-footprint tests; a
/// production deployment would raise `workers` and `queue_capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Bounded admission-queue capacity (the backpressure edge).
    pub queue_capacity: usize,
    /// A batch flushes as soon as it reaches this many requests, whether
    /// or not a worker is free (it then waits in the worker channel).
    pub max_batch: usize,
    /// The longest a request waits to coalesce while every worker is
    /// busy: a group flushes once its oldest request has waited this
    /// long. While some worker is idle nothing waits; pending groups are
    /// dispatched at once.
    pub linger: Duration,
    /// Re-executions allowed per request after panics (bisection hops
    /// count toward this bound).
    pub max_retries: u32,
    /// Sleep before each panic-triggered re-execution, scaled by the
    /// request's retry count.
    pub retry_backoff: Duration,
    /// The hint returned inside [`ServeError::Overloaded`].
    pub retry_after_hint: Duration,
    /// Overload degradation policy.
    pub degrade: DegradePolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            linger: Duration::from_micros(500),
            max_retries: 2,
            retry_backoff: Duration::from_micros(200),
            retry_after_hint: Duration::from_millis(5),
            degrade: DegradePolicy::default(),
        }
    }
}

enum KernelKind {
    Exact,
    Lut(MulLut),
    /// A moving-target ensemble over previously hosted kernels. Resolved
    /// to a concrete member at submission, so it never reaches a worker.
    Ensemble {
        /// Kernel-table indices of the member kernels.
        members: Vec<usize>,
        /// Per-query sampling distribution over `members`.
        policy: KernelPolicy,
    },
}

#[derive(Default)]
struct DegradeState {
    sheds: Vec<Instant>,
    until: Option<Instant>,
}

struct Inner {
    pool: PlanPool,
    kernels: Vec<(String, KernelKind)>,
    config: ServerConfig,
    stats: StatsInner,
    degrade: Mutex<DegradeState>,
    /// Server-wide moving-target query counter: each ensemble submission
    /// takes the next index, which keys its [`KernelPolicy`] draw.
    ensemble_queries: AtomicU64,
    /// Batches sent to the worker channel and not yet finished (queued
    /// or executing). Below `config.workers`, some worker has nothing
    /// to do.
    batches_out: AtomicUsize,
}

impl Inner {
    fn kernel_dyn(&self, idx: usize) -> &dyn MulKernel {
        match &self.kernels[idx].1 {
            KernelKind::Exact => &EXACT,
            KernelKind::Lut(lut) => lut,
            KernelKind::Ensemble { .. } => {
                unreachable!("ensemble kernels are resolved to members at submission")
            }
        }
    }

    fn kernel_index(&self, name: &str) -> Option<usize> {
        self.kernels.iter().position(|(n, _)| n == name)
    }

    /// Sends the final word on a job and settles its counters.
    fn reply(&self, job: Job, result: Result<Response, ServeError>) {
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        if result.is_ok() {
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
        }
        // The client may have stopped waiting (deadline timeout); the
        // result is simply dropped then.
        let _ = job.reply.send(result);
    }

    /// Records an admission shed for the degradation policy.
    fn note_shed(&self) {
        let policy = &self.config.degrade;
        if !policy.enabled {
            return;
        }
        let now = Instant::now();
        let mut st = self.degrade.lock().expect("degrade state");
        st.sheds.push(now);
        st.sheds
            .retain(|t| now.saturating_duration_since(*t) <= policy.window);
        if st.sheds.len() as u32 >= policy.shed_threshold {
            let already = st.until.is_some_and(|u| u > now);
            st.until = Some(now + policy.hold);
            st.sheds.clear();
            if !already {
                self.stats
                    .degrade_activations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn degraded_active(&self) -> bool {
        if !self.config.degrade.enabled {
            return false;
        }
        self.degrade
            .lock()
            .expect("degrade state")
            .until
            .is_some_and(|u| u > Instant::now())
    }
}

/// Builds a [`Server`]: host models, host kernels, then
/// [`serve`](ServerBuilder::serve).
pub struct ServerBuilder {
    pool: PlanPool,
    kernels: Vec<(String, KernelKind)>,
}

impl ServerBuilder {
    /// An empty builder. The `"exact"` kernel is always hosted.
    pub fn new() -> Self {
        ServerBuilder {
            pool: PlanPool::new(),
            kernels: vec![("exact".to_owned(), KernelKind::Exact)],
        }
    }

    /// Hosts a quantized model under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already hosted.
    #[must_use]
    pub fn model(mut self, name: impl Into<String>, model: QuantModel) -> Self {
        self.pool.insert(name, model);
        self
    }

    /// Hosts a LUT multiplier kernel under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already hosted (including the reserved
    /// `"exact"`).
    #[must_use]
    pub fn kernel(mut self, name: impl Into<String>, lut: MulLut) -> Self {
        let name = name.into();
        assert!(
            self.kernels.iter().all(|(n, _)| *n != name),
            "kernel {name:?} is already hosted"
        );
        self.kernels.push((name, KernelKind::Lut(lut)));
        self
    }

    /// Hosts a moving-target ensemble under `name`: every request naming
    /// it is answered by one of `members` (already-hosted kernel names),
    /// drawn by `policy` keyed on a server-wide query counter. The drawn
    /// kernel is disclosed in [`Response::kernel`] with
    /// [`Response::sampled`] set.
    ///
    /// A single-member ensemble degenerates to requesting that member
    /// directly (same kernel, same numerics) — only the `sampled` flag
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already hosted, `members` names an unhosted
    /// kernel or another ensemble, or the policy's arity does not match
    /// the member count.
    #[must_use]
    pub fn ensemble(
        mut self,
        name: impl Into<String>,
        members: &[&str],
        policy: KernelPolicy,
    ) -> Self {
        let name = name.into();
        assert!(
            self.kernels.iter().all(|(n, _)| *n != name),
            "kernel {name:?} is already hosted"
        );
        assert_eq!(
            policy.len(),
            members.len(),
            "ensemble policy arity must match the member count"
        );
        let members: Vec<usize> = members
            .iter()
            .map(|m| {
                let idx = self
                    .kernels
                    .iter()
                    .position(|(n, _)| n == m)
                    .unwrap_or_else(|| panic!("ensemble member {m:?} is not a hosted kernel"));
                assert!(
                    !matches!(self.kernels[idx].1, KernelKind::Ensemble { .. }),
                    "ensemble member {m:?} is itself an ensemble"
                );
                idx
            })
            .collect();
        self.kernels
            .push((name, KernelKind::Ensemble { members, policy }));
        self
    }

    /// Spawns the batcher and worker threads and returns the running
    /// server.
    ///
    /// # Panics
    ///
    /// Panics if no model is hosted or `config.workers == 0`.
    pub fn serve(self, config: ServerConfig) -> Server {
        assert!(!self.pool.is_empty(), "server needs at least one model");
        assert!(config.workers > 0, "server needs at least one worker");
        let inner = Arc::new(Inner {
            pool: self.pool,
            kernels: self.kernels,
            config: config.clone(),
            stats: StatsInner::default(),
            degrade: Mutex::new(DegradeState::default()),
            ensemble_queries: AtomicU64::new(0),
            batches_out: AtomicUsize::new(0),
        });
        let (tx, rx) = bounded::<Job>(config.queue_capacity);
        let depth = tx.depth_gauge();
        // The worker channel is bounded too, so a saturated pool stalls
        // the batcher, which stops draining admissions, which fills the
        // bounded queue, which sheds — pressure reaches the caller.
        let (work_tx, work_rx) = mpsc::sync_channel::<Batch>(config.workers);
        let work_rx = Arc::new(Mutex::new(work_rx));
        let workers = (0..config.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                let work_rx = Arc::clone(&work_rx);
                std::thread::Builder::new()
                    .name(format!("axserve-worker-{w}"))
                    .spawn(move || worker_loop(&inner, &work_rx))
                    .expect("spawn worker")
            })
            .collect();
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("axserve-batcher".to_owned())
                .spawn(move || batcher_loop(&inner, &rx, &work_tx))
                .expect("spawn batcher")
        };
        Server {
            inner,
            tx: Some(tx),
            depth,
            batcher: Some(batcher),
            workers,
        }
    }
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// A pending response. Obtain with [`Server::submit`], settle with
/// [`ResponseHandle::wait`].
#[derive(Debug)]
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
    deadline: Deadline,
}

impl ResponseHandle {
    /// Blocks until the response arrives or the request's deadline
    /// passes (whichever is first).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the server settled the request with, or
    /// [`ServeError::DeadlineExceeded`] if the budget ran out while
    /// waiting.
    pub fn wait(self) -> Result<Response, ServeError> {
        match self.deadline {
            Deadline::Unbounded => self.rx.recv().map_err(|_| ServeError::ShuttingDown)?,
            d => match self.rx.recv_timeout(d.remaining()) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
                Err(RecvTimeoutError::Disconnected) => Err(ServeError::ShuttingDown),
            },
        }
    }
}

/// The running server. Dropping it drains gracefully: queued requests
/// are still batched, executed and answered before the threads join.
pub struct Server {
    inner: Arc<Inner>,
    tx: Option<BoundedSender<Job>>,
    depth: QueueDepth,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// Submits a request without blocking on the result.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownModel`] / [`ServeError::UnknownKernel`] —
    ///   the request names something the server does not host;
    /// * [`ServeError::DeadlineExceeded`] — the budget is already spent;
    /// * [`ServeError::Overloaded`] — the bounded admission queue is
    ///   full (the request was shed, with a retry-after hint);
    /// * [`ServeError::ShuttingDown`] — the server is draining.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, ServeError> {
        let inner = &self.inner;
        let model = inner
            .pool
            .id_of(&request.model)
            .ok_or_else(|| ServeError::UnknownModel(request.model.clone()))?;
        let kernel = inner
            .kernel_index(&request.kernel)
            .ok_or_else(|| ServeError::UnknownKernel(request.kernel.clone()))?;
        if request.deadline.expired() {
            inner.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        // Moving-target resolution happens here, at submission: the
        // ensemble draws one member per query, so workers and the batcher
        // only ever see concrete kernels.
        let (kernel, sampled) = match &inner.kernels[kernel].1 {
            KernelKind::Ensemble { members, policy } => {
                let q = inner.ensemble_queries.fetch_add(1, Ordering::Relaxed);
                (members[policy.sample(q)], true)
            }
            _ => (kernel, false),
        };
        let deadline = request.deadline;
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            model,
            kernel,
            degraded: false,
            sampled,
            retries: 0,
            reply,
        };
        let tx = self.tx.as_ref().ok_or(ServeError::ShuttingDown)?;
        match tx.try_send(job) {
            Ok(()) => {
                inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
                inner.stats.in_flight.fetch_add(1, Ordering::Relaxed);
                Ok(ResponseHandle { rx, deadline })
            }
            Err(SendError::Full(_)) => {
                inner.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
                inner.note_shed();
                Err(ServeError::Overloaded {
                    retry_after: inner.config.retry_after_hint,
                })
            }
            Err(SendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submits and blocks for the response (or typed failure).
    ///
    /// # Errors
    ///
    /// See [`Server::submit`] and [`ResponseHandle::wait`].
    pub fn predict(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// A point-in-time health snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.snapshot(self.depth.get())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Disconnect admissions; the batcher drains its pending set,
        // dispatches everything, then drops the worker channel so the
        // workers finish the tail and exit.
        self.tx.take();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.inner.pool.len())
            .field("kernels", &self.inner.kernels.len())
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Admits one job into the pending set: deadline gate, degradation
/// reroute, then grouping (a full group pops out as a ready batch).
fn admit(inner: &Inner, pending: &mut Pending, mut job: Job, ready: &mut Vec<Batch>) {
    if job.request.deadline.expired() {
        inner.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
        inner.reply(job, Err(ServeError::DeadlineExceeded));
        return;
    }
    if job.kernel != EXACT_KERNEL && inner.degraded_active() {
        job.kernel = EXACT_KERNEL;
        job.degraded = true;
    }
    if let Some(batch) = pending.admit(job, Instant::now()) {
        ready.push(batch);
    }
}

fn batcher_loop(
    inner: &Inner,
    rx: &axutil::sync::BoundedReceiver<Job>,
    work_tx: &mpsc::SyncSender<Batch>,
) {
    let linger = inner.config.linger;
    // The pending set is capped so eager draining cannot turn into an
    // unbounded hidden queue; past the cap, jobs stay in the bounded
    // channel and new arrivals shed.
    let pending_cap = inner.config.queue_capacity.max(inner.config.max_batch);
    let mut pending = Pending::new(inner.config.max_batch);
    let mut disconnected = false;
    while !disconnected {
        let mut ready: Vec<Batch> = Vec::new();
        // 1. Get at least one job: block when nothing is pending,
        //    otherwise (every worker was busy) wait only until the oldest
        //    pending group's linger expires.
        let first = if pending.is_empty() {
            match rx.recv() {
                Ok(job) => Some(job),
                Err(_) => {
                    disconnected = true;
                    None
                }
            }
        } else {
            let wait = pending
                .next_due(linger)
                .map(|t| t.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::ZERO);
            match rx.recv_timeout(wait) {
                Ok(job) => Some(job),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    None
                }
            }
        };
        if let Some(job) = first {
            admit(inner, &mut pending, job, &mut ready);
        }
        // 2. Drain the rest of the burst without blocking — this is
        //    what actually coalesces concurrent arrivals into batches.
        while pending.total() < pending_cap {
            match rx.try_recv() {
                Ok(job) => admit(inner, &mut pending, job, &mut ready),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // 3. Dispatch full and aged groups, then, while some worker has
        //    no batch, the oldest pending groups: waiting to coalesce
        //    pays off only when every worker is busy. A worker that goes
        //    idle while the batcher sleeps in step 1 is noticed at the
        //    next arrival or at the next linger expiry, so no request
        //    waits longer than `linger` for it. The bounded send blocks
        //    when the worker channel is full — that stall is the
        //    backpressure path, not a bug.
        ready.extend(pending.take_due(Instant::now(), linger));
        for batch in ready {
            if !dispatch(inner, work_tx, batch) {
                return;
            }
        }
        while inner.batches_out.load(Ordering::Relaxed) < inner.config.workers {
            let Some(batch) = pending.take_oldest() else {
                break;
            };
            if !dispatch(inner, work_tx, batch) {
                return;
            }
        }
    }
    // Shutdown drain: answer everything still pending.
    while let Some(batch) = pending.take_oldest() {
        if !dispatch(inner, work_tx, batch) {
            return;
        }
    }
}

/// Hands `batch` to the worker pool, blocking while the channel is full.
/// Returns `false` once every worker is gone.
fn dispatch(inner: &Inner, work_tx: &mpsc::SyncSender<Batch>, batch: Batch) -> bool {
    inner.batches_out.fetch_add(1, Ordering::Relaxed);
    work_tx.send(batch).is_ok()
}

fn worker_loop(inner: &Inner, work_rx: &Mutex<mpsc::Receiver<Batch>>) {
    loop {
        // Lock only around the dequeue; idle workers queue on the mutex
        // and take batches in arrival order.
        let batch = match work_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match batch {
            Ok(batch) => {
                let Batch {
                    model,
                    kernel,
                    degraded,
                    shape,
                    jobs,
                } = batch;
                execute_isolated(inner, model, kernel, degraded, &shape, jobs);
                inner.batches_out.fetch_sub(1, Ordering::Relaxed);
            }
            Err(_) => return,
        }
    }
}

/// Executes a batch under `catch_unwind`; on panic, bisects and retries
/// (bounded per request) until the poisoned request fails alone.
fn execute_isolated(
    inner: &Inner,
    model: ModelId,
    kernel: usize,
    degraded: bool,
    shape: &[usize],
    jobs: Vec<Job>,
) {
    // Deadline gate directly before execution: a request whose budget
    // died while queued fails typed instead of wasting a forward pass.
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.request.deadline.expired() {
            inner.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            inner.reply(job, Err(ServeError::DeadlineExceeded));
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }

    let result = catch_unwind(AssertUnwindSafe(|| {
        inner.pool.with_plan(model, shape, |plan, scratch| {
            live.iter()
                .map(|job| {
                    match job.request.hook {
                        FaultHook::None => {}
                        FaultHook::Panic => panic!("injected fault hook"),
                        FaultHook::Stall(d) => std::thread::sleep(d),
                    }
                    plan.forward_one(scratch, &job.request.image, inner.kernel_dyn(kernel))
                })
                .collect::<Vec<Tensor>>()
        })
    }));

    match result {
        Ok(logits) => {
            let n = live.len();
            let kernel_name = inner.kernels[kernel].0.clone();
            inner.stats.record_batch(&kernel_name, n as u64);
            if degraded {
                inner.stats.degraded.fetch_add(n as u64, Ordering::Relaxed);
            }
            for (job, tensor) in live.into_iter().zip(logits) {
                let response = Response {
                    class: tensor.argmax(),
                    logits: tensor,
                    kernel: kernel_name.clone(),
                    degraded,
                    sampled: job.sampled,
                    batch_size: n,
                    retries: job.retries,
                };
                inner.reply(job, Ok(response));
            }
        }
        Err(_) => {
            inner.stats.panics.fetch_add(1, Ordering::Relaxed);
            if live.len() == 1 {
                let mut job = live.pop().expect("one job");
                if job.retries >= inner.config.max_retries {
                    inner.stats.poisoned.fetch_add(1, Ordering::Relaxed);
                    let retries = job.retries;
                    inner.reply(job, Err(ServeError::Poisoned { retries }));
                } else {
                    job.retries += 1;
                    inner.stats.retries.fetch_add(1, Ordering::Relaxed);
                    backoff(inner, job.retries);
                    execute_isolated(inner, model, kernel, degraded, shape, vec![job]);
                }
            } else {
                // Bisect: the panicking request is in exactly one half;
                // the other half completes on its re-run. Each hop
                // counts toward every member's bounded retry budget.
                let mut left = live;
                let right = left.split_off(left.len() / 2);
                for mut half in [left, right] {
                    for job in &mut half {
                        job.retries += 1;
                    }
                    inner
                        .stats
                        .retries
                        .fetch_add(half.len() as u64, Ordering::Relaxed);
                    backoff(inner, half.iter().map(|j| j.retries).max().unwrap_or(1));
                    execute_isolated(inner, model, kernel, degraded, shape, half);
                }
            }
        }
    }
}

fn backoff(inner: &Inner, attempt: u32) {
    let base = inner.config.retry_backoff;
    if !base.is_zero() {
        std::thread::sleep(base * attempt);
    }
}
