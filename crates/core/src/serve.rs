//! Shared, long-lived serving layer: many analysts, one campaign.
//!
//! The paper's elasticity story is multi-tenant — several analysts pull
//! *different* accuracy levels of the same refactored campaign at once,
//! each trading accuracy for speed independently. [`CanopusService`]
//! turns the single-caller engines into that shared service: a bounded
//! admission queue, a worker pool executing requests over `&self`
//! readers (one shared [`CanopusReader`] per file, so all tenants of a
//! file share its decoded-level and geometry caches), and per-request
//! priority classes with deadline-aware scheduling.
//!
//! ## Priority semantics
//!
//! Two classes mirror the two ends of the accuracy/speed trade:
//!
//! * [`Priority::QuickLook`] — cheap exploratory reads (base level, a
//!   short deadline budget);
//! * [`Priority::FullAccuracy`] — deep restores and refinements (long
//!   deadline budget).
//!
//! Scheduling is earliest-deadline-first over `(deadline, seq)`, where
//! a request's deadline is its admission time plus the class budget
//! (overridable per request). Within a class that degenerates to FIFO;
//! across classes a fresh `QuickLook` overtakes queued `FullAccuracy`
//! work unless the full restore has waited long enough that its own
//! deadline comes first — so deep restores are starvation-free.
//! Additionally, when the pool has 2+ workers, **worker 0 serves only
//! `QuickLook` requests**: even with every other worker pinned inside a
//! running full restore, a quick look is picked up without waiting for
//! any of them to finish. That reserved lane is what makes "cheap reads
//! are never stuck behind a full restore" a structural guarantee
//! instead of a probabilistic one.
//!
//! ## Pool shape
//!
//! The default pool is one accuracy worker per core *plus* the reserved
//! lane: `available_parallelism() + 1` threads. Accuracy work therefore
//! gets every core, and the lane is one thread more than there are
//! cores. Nothing in the walk or in `refine_region` yields to it: a
//! quick look that arrives while every core runs accuracy work never
//! waits for a request, but it does wait until the OS scheduler gives
//! the lane a core. What that costs the quick class is measured in
//! `docs/performance.md` §9, not assumed away.
//! An explicit `CanopusConfig::serve_workers = N` is N threads in total,
//! the lane among them once N ≥ 2.
//!
//! ## Cache hits are answered on arrival
//!
//! Once a level is hot, the shared reader's caches answer it at memory
//! speed, and the queue would be most of what a served hit costs (a
//! scheduler lock, a wake-up of every worker, a pop and a channel back).
//! So [`CanopusService::submit_with`] first asks the file's open reader
//! whether its caches alone can answer the request, with no I/O, decode
//! or restore, and if so answers it on the submitting thread and returns
//! a [`Ticket`] that is already resolved. What qualifies:
//!
//! * `Base` and `Level(l)`: the level's exact entry in the decoded-level
//!   cache, its geometry holding the whole mesh
//!   ([`CanopusReader::held_level`], the test the reader's own
//!   `read_base` and `read_level` take first);
//! * `Region`: the base qualifies, the step refines into a level stored
//!   as one chunk that the region touches, and that level qualifies —
//!   `refine_region`'s full-step hit, with its [`RegionStats`]
//!   (`chunks_total`, `chunks_read` and `chunks_cached` 1, `bytes_read`
//!   0) and its chunk-plan accounting ([`CanopusReader::held_region`]).
//!
//! Everything else is admitted and scheduled as below: a miss, a level
//! the cache holds without its coordinates (a walk only passed through
//! it), a region step that fetches or prunes, a file with no open reader
//! yet (opening is I/O), and a request met by a poisoned reader map.
//! The pool and the quick lane therefore see only misses.
//!
//! An answer on arrival is counted as a queued completion is: `requests`,
//! and per class `requests`, `completed`, `latency`, deadline hit or miss
//! by the same strict rule, and the attainment gauge while the live
//! plane is on. Its queue wait is one sample of 0, and it bumps the
//! class's `on_arrival` counter instead of `dequeued`, so once the queue
//! has drained `requests = dequeued + on_arrival` per class. It takes no
//! queue slot, so it never blocks on a full queue. The level cache counts
//! its hits as the reader's own reads would; a request that goes to the
//! queue has counted nothing yet. It emits no `read` span.
//!
//! ## Backpressure, shutdown, drain
//!
//! The admission queue is bounded (`CanopusConfig::serve_queue`):
//! `submit` blocks until a slot frees, giving closed-loop clients
//! natural backpressure. Dropping the service marks it shut down, wakes
//! everyone, and **drains**: every request already admitted is still
//! executed and its [`Ticket`] resolves; only new submissions (and
//! submitters still blocked on a full queue) get
//! [`CanopusError::ServiceStopped`].
//!
//! ## Lock order
//!
//! The service adds two leaf locks above the reader's own (documented
//! on [`CanopusReader`]): the scheduler mutex and the per-file reader
//! map. Neither is ever held while executing a request, opening a file,
//! or touching reader/storage locks — a worker pops under the scheduler
//! lock, releases it, then runs the request lock-free from the
//! service's point of view.
//!
//! The submitting thread takes them too. The on-arrival probe takes the
//! reader map only to clone the file's reader out, and the reader's
//! level-cache lock for each lookup, one at a time, releasing each
//! before the next. Only then does it take the scheduler lock, once:
//! to check for shutdown before answering a hit, or to admit a request
//! the caches did not answer. It never holds the scheduler lock
//! together with either of the other two.

use crate::error::CanopusError;
use crate::read::{CanopusReader, ReadOutcome, RegionStats};
use crate::write::Canopus;
use canopus_mesh::Aabb;
use canopus_obs::{names, Counter, Gauge, Histogram, Registry};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request priority class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Cheap exploratory read (base level): short deadline, never
    /// queued behind deep restores.
    QuickLook,
    /// Deep restore / refinement: long deadline, scheduled EDF so it
    /// cannot starve behind a stream of quick looks.
    FullAccuracy,
}

impl Priority {
    /// Metric-name segment for this class (`quick` / `full`).
    pub const fn class(self) -> &'static str {
        match self {
            Priority::QuickLook => "quick",
            Priority::FullAccuracy => "full",
        }
    }

    /// Default deadline budget from admission, the EDF ordering key
    /// unless overridden via [`ServeOptions::deadline`].
    pub const fn default_deadline(self) -> Duration {
        match self {
            Priority::QuickLook => Duration::from_millis(50),
            Priority::FullAccuracy => Duration::from_secs(30),
        }
    }
}

const fn class_idx(p: Priority) -> usize {
    match p {
        Priority::QuickLook => 0,
        Priority::FullAccuracy => 1,
    }
}

/// One retrieval request against a served campaign.
#[derive(Debug, Clone)]
pub enum ServeRequest {
    /// Read the base (coarsest) level of `var` — the quick look.
    Base { file: String, var: String },
    /// Restore `var` to accuracy `level` (0 = full accuracy).
    Level {
        file: String,
        var: String,
        level: u32,
    },
    /// Quick look plus one focused refinement inside `region`
    /// (fetches only the intersecting delta chunks).
    Region {
        file: String,
        var: String,
        region: Aabb,
    },
}

impl ServeRequest {
    fn file(&self) -> &str {
        match self {
            ServeRequest::Base { file, .. }
            | ServeRequest::Level { file, .. }
            | ServeRequest::Region { file, .. } => file,
        }
    }

    /// The class a request lands in unless the submitter overrides it:
    /// base reads are quick looks, everything else is accuracy work.
    pub fn default_priority(&self) -> Priority {
        match self {
            ServeRequest::Base { .. } => Priority::QuickLook,
            _ => Priority::FullAccuracy,
        }
    }
}

/// Per-request scheduling options.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    pub priority: Priority,
    /// Deadline budget from admission; `None` takes the class default.
    pub deadline: Option<Duration>,
}

impl ServeOptions {
    pub fn new(priority: Priority) -> Self {
        Self {
            priority,
            deadline: None,
        }
    }
}

/// What a completed request returns.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    pub outcome: ReadOutcome,
    /// Present for [`ServeRequest::Region`] requests.
    pub region_stats: Option<RegionStats>,
    pub priority: Priority,
    /// Wall seconds the request waited in the admission queue; 0 for a
    /// request answered on arrival.
    pub queue_wait_s: f64,
    /// Wall seconds a worker spent executing it, or the submitting
    /// thread answering it on arrival.
    pub service_s: f64,
}

/// Handle to one request. Resolves exactly once: with the response,
/// the request's error, or [`CanopusError::ServiceStopped`] if the
/// executing worker died. A request answered on arrival is resolved
/// already: every way of waiting returns at once.
pub struct Ticket(Resolution);

enum Resolution {
    /// Answered on arrival; the first poll takes the response. Not a
    /// channel that already holds it: that cost a served hit half a
    /// microsecond more, a third of it (`docs/performance.md` §9).
    Answered(Cell<Option<ServeResponse>>),
    /// Admitted; the worker that runs it sends the result.
    Queued(mpsc::Receiver<Result<ServeResponse, CanopusError>>),
}

impl Ticket {
    /// Block until the request completes.
    pub fn wait(self) -> Result<ServeResponse, CanopusError> {
        match self.0 {
            Resolution::Answered(response) => taken(response.into_inner()),
            Resolution::Queued(rx) => rx.recv().unwrap_or(Err(CanopusError::ServiceStopped)),
        }
    }

    /// Non-blocking poll: `None` while the request is still queued or
    /// executing.
    pub fn try_wait(&self) -> Option<Result<ServeResponse, CanopusError>> {
        match &self.0 {
            Resolution::Answered(response) => Some(taken(response.take())),
            Resolution::Queued(rx) => match rx.try_recv() {
                Ok(result) => Some(result),
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => Some(Err(CanopusError::ServiceStopped)),
            },
        }
    }

    /// Block up to `timeout`; `None` if the request hasn't completed.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServeResponse, CanopusError>> {
        match &self.0 {
            Resolution::Answered(response) => Some(taken(response.take())),
            Resolution::Queued(rx) => match rx.recv_timeout(timeout) {
                Ok(result) => Some(result),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Some(Err(CanopusError::ServiceStopped))
                }
            },
        }
    }
}

/// An on-arrival answer as a poll returns it: once the response has been
/// taken, a further poll sees what a queued ticket's closed channel
/// gives.
fn taken(response: Option<ServeResponse>) -> Result<ServeResponse, CanopusError> {
    response.ok_or(CanopusError::ServiceStopped)
}

struct Job {
    seq: u64,
    request: ServeRequest,
    priority: Priority,
    deadline: Instant,
    enqueued: Instant,
    tx: mpsc::SyncSender<Result<ServeResponse, CanopusError>>,
}

/// Scheduler state behind the service's one mutex. Two queues, popped
/// earliest-deadline-first by `(deadline, seq)`.
struct Sched {
    quick: Vec<Job>,
    full: Vec<Job>,
    next_seq: u64,
    shutdown: bool,
}

impl Sched {
    fn len(&self) -> usize {
        self.quick.len() + self.full.len()
    }

    fn push(&mut self, job: Job) {
        match job.priority {
            Priority::QuickLook => self.quick.push(job),
            Priority::FullAccuracy => self.full.push(job),
        }
    }

    fn min_key(queue: &[Job]) -> Option<(usize, (Instant, u64))> {
        queue
            .iter()
            .enumerate()
            .map(|(i, j)| (i, (j.deadline, j.seq)))
            .min_by_key(|&(_, key)| key)
    }

    /// Pop the earliest-deadline job this worker may run. The reserved
    /// quick lane passes `quick_only`; everyone else runs EDF over the
    /// union of both queues. Queues stay poppable after shutdown — that
    /// is the drain.
    fn pop(&mut self, quick_only: bool) -> Option<Job> {
        let quick = Self::min_key(&self.quick);
        if quick_only {
            return quick.map(|(i, _)| self.quick.swap_remove(i));
        }
        let full = Self::min_key(&self.full);
        match (quick, full) {
            (Some((qi, qk)), Some((_, fk))) if qk <= fk => Some(self.quick.swap_remove(qi)),
            (Some((qi, _)), None) => Some(self.quick.swap_remove(qi)),
            (_, Some((fi, _))) => Some(self.full.swap_remove(fi)),
            (None, None) => None,
        }
    }
}

/// Pre-resolved instruments: workers bump atomics, never the registry's
/// name maps, on the hot path.
struct ClassMetrics {
    requests: Arc<Counter>,
    dequeued: Arc<Counter>,
    on_arrival: Arc<Counter>,
    completed: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    latency: Arc<Histogram>,
    deadline_hit: Arc<Counter>,
    deadline_miss: Arc<Counter>,
    attainment: Arc<Gauge>,
}

struct ServeMetrics {
    requests: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    rejected: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_depth_peak: Arc<Gauge>,
    inflight: Arc<Gauge>,
    inflight_peak: Arc<Gauge>,
    workers_alive: Arc<Gauge>,
    class: [ClassMetrics; 2],
    /// The live-telemetry-plane switch. Off (the default), a worker's
    /// per-request extra cost is exactly this one relaxed load — the
    /// derived attainment gauges are not recomputed. Deadline hit/miss
    /// *counters* are ordinary metrics and always flow, like the rest.
    live: AtomicBool,
}

impl ServeMetrics {
    fn new(obs: &Registry) -> Self {
        let class = |p: Priority| ClassMetrics {
            requests: obs.counter(&names::serve_requests(p.class())),
            dequeued: obs.counter(&names::serve_dequeued(p.class())),
            on_arrival: obs.counter(&names::serve_on_arrival(p.class())),
            completed: obs.counter(&names::serve_completed(p.class())),
            queue_wait: obs.histogram(&names::serve_queue_wait_hist(p.class())),
            latency: obs.histogram(&names::serve_latency_hist(p.class())),
            deadline_hit: obs.counter(&names::serve_deadline_hit(p.class())),
            deadline_miss: obs.counter(&names::serve_deadline_miss(p.class())),
            attainment: obs.gauge(&names::serve_attainment_ppm(p.class())),
        };
        Self {
            requests: obs.counter(names::SERVE_REQUESTS),
            completed: obs.counter(names::SERVE_COMPLETED),
            failed: obs.counter(names::SERVE_FAILED),
            rejected: obs.counter(names::SERVE_REJECTED),
            queue_depth: obs.gauge(names::SERVE_QUEUE_DEPTH),
            queue_depth_peak: obs.gauge(names::SERVE_QUEUE_DEPTH_PEAK),
            inflight: obs.gauge(names::SERVE_INFLIGHT),
            inflight_peak: obs.gauge(names::SERVE_INFLIGHT_PEAK),
            workers_alive: obs.gauge(names::SERVE_WORKERS_ALIVE),
            class: [class(Priority::QuickLook), class(Priority::FullAccuracy)],
            live: AtomicBool::new(false),
        }
    }
}

/// Attainment in parts per million: `hits * 1e6 / (hits + misses)`.
pub(crate) fn attainment_ppm(hits: u64, misses: u64) -> i64 {
    let total = hits + misses;
    if total == 0 {
        1_000_000
    } else {
        ((hits as u128 * 1_000_000) / total as u128) as i64
    }
}

struct Shared {
    canopus: Arc<Canopus>,
    /// One shared reader per file; all tenants of a file share its
    /// decoded-level and geometry caches. Leaf lock, never held across
    /// the open itself.
    readers: Mutex<HashMap<String, Arc<CanopusReader>>>,
    sched: Mutex<Sched>,
    /// Signalled when work arrives (or at shutdown).
    work: Condvar,
    /// Signalled when a queue slot frees (or at shutdown).
    space: Condvar,
    queue_cap: usize,
    m: ServeMetrics,
}

impl Shared {
    fn reader(&self, file: &str) -> Result<Arc<CanopusReader>, CanopusError> {
        if let Some(r) = self.readers.lock().unwrap().get(file) {
            return Ok(Arc::clone(r));
        }
        // Open outside the map lock: a first-open's tier I/O must not
        // block workers serving other files. A racing double-open keeps
        // the first inserted reader.
        let opened = Arc::new(self.canopus.open(file)?);
        let mut map = self.readers.lock().unwrap();
        Ok(Arc::clone(map.entry(file.to_string()).or_insert(opened)))
    }

    /// The answer the open reader's caches hold for `request`, with no
    /// I/O, decode or restore ([`CanopusReader::held_level`],
    /// [`CanopusReader::held_region`]). `None` sends the request to the
    /// queue: the caches do not hold it, the file has no open reader yet
    /// (opening is I/O), or the reader map's lock is poisoned (the
    /// worker that takes the request meets that).
    fn held(&self, request: &ServeRequest) -> Option<(ReadOutcome, Option<RegionStats>)> {
        let reader = Arc::clone(self.readers.lock().ok()?.get(request.file())?);
        match request {
            ServeRequest::Base { var, .. } => reader
                .held_level(var, reader.num_levels().checked_sub(1)?)
                .map(|o| (o, None)),
            ServeRequest::Level { var, level, .. } => {
                reader.held_level(var, *level).map(|o| (o, None))
            }
            ServeRequest::Region { var, region, .. } => reader
                .held_region(var, *region)
                .map(|(o, stats)| (o, Some(stats))),
        }
    }

    /// Count one completed request of `class`, queued or answered on
    /// arrival alike: the completion, its latency, and its deadline.
    fn count_completion(
        &self,
        class: &ClassMetrics,
        deadline: Instant,
        finished: Instant,
        latency_s: f64,
    ) {
        self.m.completed.inc();
        class.completed.inc();
        class.latency.observe_secs(latency_s);
        // SLO accounting: a hit finishes *strictly before* the deadline.
        // The strictness makes the degenerate case deterministic: a zero
        // deadline budget pins the deadline at admission time, and a
        // monotone clock guarantees completion is never before
        // admission — so such a request counts exactly one miss, always.
        if finished < deadline {
            class.deadline_hit.inc();
        } else {
            class.deadline_miss.inc();
        }
        // The derived attainment gauge belongs to the live telemetry
        // plane; disabled, its cost is this single relaxed load.
        if self.m.live.load(Ordering::Relaxed) {
            class.attainment.set(attainment_ppm(
                class.deadline_hit.get(),
                class.deadline_miss.get(),
            ));
        }
    }
}

fn execute(
    shared: &Shared,
    request: &ServeRequest,
) -> Result<(ReadOutcome, Option<RegionStats>), CanopusError> {
    match request {
        ServeRequest::Base { file, var } => shared.reader(file)?.read_base(var).map(|o| (o, None)),
        ServeRequest::Level { file, var, level } => shared
            .reader(file)?
            .read_level(var, *level)
            .map(|o| (o, None)),
        ServeRequest::Region { file, var, region } => {
            let reader = shared.reader(file)?;
            let base = reader.read_base(var)?;
            let (roi, stats) = reader.refine_region(var, &base, *region)?;
            Ok((roi, Some(stats)))
        }
    }
}

/// Takes one off a pool gauge when dropped, so a worker that leaves —
/// drained at shutdown or unwinding from a panic — leaves the gauges
/// `/healthz` reads telling the truth.
struct Release<'a>(&'a Gauge);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

fn worker_loop(shared: &Shared, quick_only: bool) {
    let _alive = Release(&shared.m.workers_alive);
    loop {
        let job = {
            let mut sched = shared.sched.lock().unwrap();
            loop {
                if let Some(job) = sched.pop(quick_only) {
                    break job;
                }
                if sched.shutdown {
                    return;
                }
                sched = shared.work.wait(sched).unwrap();
            }
        };
        shared.space.notify_one();

        let class = &shared.m.class[class_idx(job.priority)];
        shared.m.queue_depth.sub(1);
        class.dequeued.inc();
        let queue_wait_s = job.enqueued.elapsed().as_secs_f64();
        class.queue_wait.observe_secs(queue_wait_s);

        shared.m.inflight.add(1);
        let inflight = Release(&shared.m.inflight);
        shared.m.inflight_peak.set_max(shared.m.inflight.get());
        let started = Instant::now();
        let result = execute(shared, &job.request);
        let finished = Instant::now();
        let service_s = finished.duration_since(started).as_secs_f64();
        drop(inflight);

        let result = match result {
            Ok((outcome, region_stats)) => {
                shared.count_completion(class, job.deadline, finished, queue_wait_s + service_s);
                Ok(ServeResponse {
                    outcome,
                    region_stats,
                    priority: job.priority,
                    queue_wait_s,
                    service_s,
                })
            }
            Err(e) => {
                shared.m.failed.inc();
                Err(e)
            }
        };
        // A dropped ticket just means the client stopped caring.
        let _ = job.tx.send(result);
    }
}

/// The shared serving layer: a bounded admission queue and a worker
/// pool over one [`Canopus`] engine. See the module docs for the
/// scheduling and shutdown semantics.
pub struct CanopusService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Service start time — the origin of `/healthz` uptime.
    epoch: Instant,
}

impl CanopusService {
    /// Start the worker pool sized by the engine's configuration
    /// (`serve_workers`: 0 = one accuracy worker per available core plus
    /// the reserved quick-look lane, N = N threads in total;
    /// `serve_queue`: admission bound, at least 1).
    pub fn start(canopus: Arc<Canopus>) -> Self {
        let config = *canopus.config();
        let workers = if config.serve_workers > 0 {
            config.serve_workers as usize
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get()) + 1
        };
        let queue_cap = config.serve_queue.max(1) as usize;
        let epoch = Instant::now();
        let m = ServeMetrics::new(canopus.metrics());
        m.workers_alive.set(workers as i64);
        let shared = Arc::new(Shared {
            canopus,
            readers: Mutex::new(HashMap::new()),
            sched: Mutex::new(Sched {
                quick: Vec::new(),
                full: Vec::new(),
                next_seq: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            queue_cap,
            m,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Worker 0 is the reserved QuickLook lane once the pool
                // has a second worker to take FullAccuracy jobs (the
                // default pool has one per core).
                let quick_only = workers >= 2 && i == 0;
                std::thread::Builder::new()
                    .name(format!("canopus-serve-{i}"))
                    .spawn(move || worker_loop(&shared, quick_only))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
            epoch,
        }
    }

    /// Turn on the live telemetry plane's in-service work (today: the
    /// per-class deadline-attainment gauges, recomputed at completion).
    /// Off — the default — a worker pays one relaxed atomic load per
    /// request for the check and nothing else.
    pub fn enable_live_telemetry(&self) {
        self.shared.m.live.store(true, Ordering::Relaxed);
    }

    pub fn live_telemetry_enabled(&self) -> bool {
        self.shared.m.live.load(Ordering::Relaxed)
    }

    /// Wall time since the service started.
    pub fn uptime(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Everything the telemetry endpoint needs to observe this service:
    /// the shared registry, the deterministic sim clock, and the pool
    /// shape for `/healthz`.
    pub fn telemetry_sources(&self) -> crate::telemetry::TelemetrySources {
        let hierarchy = self.shared.canopus.hierarchy_arc();
        crate::telemetry::TelemetrySources::new(Arc::clone(self.shared.canopus.metrics()))
            .with_sim_clock(move || hierarchy.clock().now().seconds())
            .with_epoch(self.epoch)
            .with_service_shape(self.workers.len(), self.shared.queue_cap)
    }

    /// Number of worker threads (including the reserved quick lane).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Admission-queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_cap
    }

    /// The engine's metrics registry (shared with storage and readers).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.shared.canopus.metrics()
    }

    /// Submit with the request's default class and deadline.
    pub fn submit(&self, request: ServeRequest) -> Result<Ticket, CanopusError> {
        let priority = request.default_priority();
        self.submit_with(request, ServeOptions::new(priority))
    }

    /// Submit with an explicit class/deadline. A request the open
    /// reader's caches hold is answered on this thread and its ticket
    /// returned resolved (see the module docs); any other is admitted,
    /// blocking while the bounded queue is full. Fails with
    /// [`CanopusError::ServiceStopped`] once shutdown has begun.
    pub fn submit_with(
        &self,
        request: ServeRequest,
        opts: ServeOptions,
    ) -> Result<Ticket, CanopusError> {
        let now = Instant::now();
        let deadline = now
            + opts
                .deadline
                .unwrap_or_else(|| opts.priority.default_deadline());
        let shared = &self.shared;
        if let Some((outcome, region_stats)) = shared.held(&request) {
            let finished = Instant::now();
            if shared.sched.lock().unwrap().shutdown {
                shared.m.rejected.inc();
                return Err(CanopusError::ServiceStopped);
            }
            let service_s = finished.duration_since(now).as_secs_f64();
            let class = &shared.m.class[class_idx(opts.priority)];
            shared.m.requests.inc();
            class.requests.inc();
            class.on_arrival.inc();
            class.queue_wait.observe_secs(0.0);
            shared.count_completion(class, deadline, finished, service_s);
            return Ok(Ticket(Resolution::Answered(Cell::new(Some(
                ServeResponse {
                    outcome,
                    region_stats,
                    priority: opts.priority,
                    queue_wait_s: 0.0,
                    service_s,
                },
            )))));
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let mut sched = shared.sched.lock().unwrap();
        while !sched.shutdown && sched.len() >= shared.queue_cap {
            sched = shared.space.wait(sched).unwrap();
        }
        if sched.shutdown {
            shared.m.rejected.inc();
            return Err(CanopusError::ServiceStopped);
        }
        let seq = sched.next_seq;
        sched.next_seq += 1;
        sched.push(Job {
            seq,
            request,
            priority: opts.priority,
            deadline,
            enqueued: now,
            tx,
        });
        let depth = sched.len() as i64;
        drop(sched);
        shared.m.requests.inc();
        shared.m.class[class_idx(opts.priority)].requests.inc();
        shared.m.queue_depth.add(1);
        shared.m.queue_depth_peak.set_max(depth);
        // notify_all, not notify_one: a single wake could land on the
        // reserved quick worker while the new job is FullAccuracy. A
        // targeted wake-up (a condvar per lane, notify_one each) measured
        // slower end to end (docs/performance.md §9).
        shared.work.notify_all();
        Ok(Ticket(Resolution::Queued(rx)))
    }
}

impl Drop for CanopusService {
    /// Shutdown drains: admitted requests still execute and their
    /// tickets resolve; blocked/new submitters get `ServiceStopped`.
    fn drop(&mut self) {
        {
            let mut sched = self.shared.sched.lock().unwrap();
            sched.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

// The whole point of the refactor: readers, engine and service are
// shareable across threads.
fn _assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<CanopusReader>();
    assert::<Canopus>();
    assert::<CanopusService>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CanopusConfig, RelativeCodec};
    use canopus_data::xgc1_dataset_sized;
    use canopus_refactor::levels::RefactorConfig;
    use canopus_storage::StorageHierarchy;

    fn engine(workers: u32, queue: u32) -> Arc<Canopus> {
        let ds = xgc1_dataset_sized(8, 40, 3);
        let raw = (ds.data.len() * 8) as u64;
        let canopus = Canopus::new(
            Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
            CanopusConfig {
                refactor: RefactorConfig {
                    num_levels: 3,
                    ..Default::default()
                },
                codec: RelativeCodec::Raw,
                serve_workers: workers,
                serve_queue: queue,
                ..Default::default()
            },
        );
        canopus.write("s.bp", ds.var, &ds.mesh, &ds.data).unwrap();
        Arc::new(canopus)
    }

    #[test]
    fn default_priorities_split_by_request_kind() {
        let base = ServeRequest::Base {
            file: "f".into(),
            var: "v".into(),
        };
        let level = ServeRequest::Level {
            file: "f".into(),
            var: "v".into(),
            level: 0,
        };
        assert_eq!(base.default_priority(), Priority::QuickLook);
        assert_eq!(level.default_priority(), Priority::FullAccuracy);
        assert!(Priority::QuickLook.default_deadline() < Priority::FullAccuracy.default_deadline());
    }

    #[test]
    fn serves_requests_and_matches_direct_reads() {
        let canopus = engine(2, 4);
        let service = CanopusService::start(Arc::clone(&canopus));
        assert_eq!(service.workers(), 2);
        assert_eq!(service.queue_capacity(), 4);

        let direct = canopus.open("s.bp").unwrap();
        let want_base = direct.read_base("dpot").unwrap();
        let want_l0 = direct.read_level("dpot", 0).unwrap();

        let base = service
            .submit(ServeRequest::Base {
                file: "s.bp".into(),
                var: "dpot".into(),
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(base.priority, Priority::QuickLook);
        assert_eq!(base.outcome.data, want_base.data);

        let full = service
            .submit(ServeRequest::Level {
                file: "s.bp".into(),
                var: "dpot".into(),
                level: 0,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(full.priority, Priority::FullAccuracy);
        assert_eq!(full.outcome.data, want_l0.data);
        assert!(full.queue_wait_s >= 0.0 && full.service_s >= 0.0);

        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter(names::SERVE_REQUESTS), 2);
        assert_eq!(snap.counter(names::SERVE_COMPLETED), 2);
        assert_eq!(snap.counter(names::SERVE_FAILED), 0);
    }

    #[test]
    fn unknown_variable_fails_the_request_not_the_service() {
        let canopus = engine(1, 4);
        let service = CanopusService::start(Arc::clone(&canopus));
        let err = service
            .submit(ServeRequest::Base {
                file: "s.bp".into(),
                var: "nope".into(),
            })
            .unwrap()
            .wait();
        assert!(err.is_err());
        // The pool survives a failed request.
        let ok = service
            .submit(ServeRequest::Base {
                file: "s.bp".into(),
                var: "dpot".into(),
            })
            .unwrap()
            .wait();
        assert!(ok.is_ok());
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter(names::SERVE_FAILED), 1);
    }

    #[test]
    fn zero_budget_request_counts_exactly_one_deterministic_miss() {
        let canopus = engine(2, 4);
        let service = CanopusService::start(Arc::clone(&canopus));
        service.enable_live_telemetry();
        let base = || ServeRequest::Base {
            file: "s.bp".into(),
            var: "dpot".into(),
        };
        // Admitted already past its deadline: completion cannot precede
        // admission on a monotone clock, so this is always one miss.
        let opts = ServeOptions {
            priority: Priority::QuickLook,
            deadline: Some(Duration::ZERO),
        };
        service.submit_with(base(), opts).unwrap().wait().unwrap();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter(&names::serve_deadline_miss("quick")), 1);
        assert_eq!(snap.counter(&names::serve_deadline_hit("quick")), 0);
        assert_eq!(snap.gauge(&names::serve_attainment_ppm("quick")), 0);

        // A generous budget hits, and the attainment gauge follows.
        let opts = ServeOptions {
            priority: Priority::QuickLook,
            deadline: Some(Duration::from_secs(3600)),
        };
        service.submit_with(base(), opts).unwrap().wait().unwrap();
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter(&names::serve_deadline_miss("quick")), 1);
        assert_eq!(snap.counter(&names::serve_deadline_hit("quick")), 1);
        assert_eq!(
            snap.gauge(&names::serve_attainment_ppm("quick")),
            500_000,
            "1 hit / 2 completions"
        );
        // Hit + miss partitions completions, per class.
        assert_eq!(snap.counter(&names::serve_completed("quick")), 2);
        assert_eq!(snap.counter(&names::serve_deadline_miss("full")), 0);
    }

    #[test]
    fn disabled_live_plane_still_counts_deadlines_but_no_gauges() {
        // The zero-overhead pattern: with the live plane off (default),
        // the base SLO counters flow like any other metric, while the
        // derived attainment gauge — the live plane's per-request work —
        // is never computed.
        let canopus = engine(2, 4);
        let service = CanopusService::start(Arc::clone(&canopus));
        assert!(!service.live_telemetry_enabled(), "off by default");
        let opts = ServeOptions {
            priority: Priority::QuickLook,
            deadline: Some(Duration::ZERO),
        };
        service
            .submit_with(
                ServeRequest::Base {
                    file: "s.bp".into(),
                    var: "dpot".into(),
                },
                opts,
            )
            .unwrap()
            .wait()
            .unwrap();
        let snap = service.metrics().snapshot();
        assert_eq!(
            snap.counter(&names::serve_deadline_miss("quick")),
            1,
            "metrics flow regardless"
        );
        assert_eq!(
            snap.gauge(&names::serve_attainment_ppm("quick")),
            0,
            "the derived gauge is untouched while disabled"
        );
        assert_eq!(attainment_ppm(0, 0), 1_000_000, "vacuous attainment");
        assert_eq!(attainment_ppm(3, 1), 750_000);
    }

    #[test]
    fn workers_alive_gauge_tracks_pool_lifecycle() {
        let canopus = engine(3, 4);
        let metrics = Arc::clone(canopus.metrics());
        {
            let service = CanopusService::start(Arc::clone(&canopus));
            assert_eq!(
                metrics.snapshot().gauge(names::SERVE_WORKERS_ALIVE),
                3,
                "all workers alive while running"
            );
            assert!(service.uptime() >= Duration::ZERO);
        }
        assert_eq!(
            metrics.snapshot().gauge(names::SERVE_WORKERS_ALIVE),
            0,
            "drained shutdown retires every worker"
        );
    }

    #[test]
    fn a_worker_that_panics_gives_back_its_gauges() {
        let service = CanopusService::start(engine(2, 4));
        // Poison the reader map: the next request's `execute` panics on
        // its lock, inside the accuracy worker's loop.
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _map = service.shared.readers.lock().unwrap();
                panic!("poisoning the reader map");
            })
            .join()
        });
        assert!(poisoned.is_err());
        let ticket = service
            .submit(ServeRequest::Level {
                file: "s.bp".into(),
                var: "dpot".into(),
                level: 0,
            })
            .unwrap();
        assert!(matches!(ticket.wait(), Err(CanopusError::ServiceStopped)));
        // The ticket resolves as the job drops, before the worker's
        // last guard does.
        let m = &service.shared.m;
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.workers_alive.get() != 1 {
            assert!(
                Instant::now() < deadline,
                "the dead worker is still counted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.inflight.get(), 0, "its request is no longer in flight");
        assert_eq!(m.completed.get() + m.failed.get(), 0);
    }

    fn level(level: u32) -> ServeRequest {
        ServeRequest::Level {
            file: "s.bp".into(),
            var: "dpot".into(),
            level,
        }
    }

    /// Per class: (requests, dequeued, on arrival, queue-wait samples).
    fn ledger(service: &CanopusService, class: &str) -> [u64; 4] {
        let snap = service.metrics().snapshot();
        [
            snap.counter(&names::serve_requests(class)),
            snap.counter(&names::serve_dequeued(class)),
            snap.counter(&names::serve_on_arrival(class)),
            snap.histogram(&names::serve_queue_wait_hist(class)).count,
        ]
    }

    #[test]
    fn cache_hits_are_answered_on_arrival_with_what_a_worker_returns() {
        let service = CanopusService::start(engine(2, 4));
        let region = ServeRequest::Region {
            file: "s.bp".into(),
            var: "dpot".into(),
            region: Aabb::from_points([
                canopus_mesh::geometry::Point2::new(-1e9, -1e9),
                canopus_mesh::geometry::Point2::new(1e9, 1e9),
            ]),
        };
        let served =
            |request: &ServeRequest| service.submit(request.clone()).unwrap().wait().unwrap();
        // Cold: no reader is open, so the walk runs on a worker. It
        // leaves level 1 in the cache with its topology alone (the walk
        // passed through it), which a worker still has to complete.
        served(&level(0));
        assert_eq!(ledger(&service, "full"), [1, 1, 0, 1]);
        served(&level(1));
        assert_eq!(ledger(&service, "full"), [2, 2, 0, 2], "held, not whole");

        let reader = service.shared.reader("s.bp").unwrap();
        let base = ServeRequest::Base {
            file: "s.bp".into(),
            var: "dpot".into(),
        };
        for (request, want) in [
            (level(1), reader.read_level("dpot", 1).unwrap()),
            (level(0), reader.read_level("dpot", 0).unwrap()),
            (base, reader.read_base("dpot").unwrap()),
        ] {
            let ticket = service.submit(request).unwrap();
            let got = ticket.try_wait().expect("resolved on arrival").unwrap();
            assert!(matches!(
                ticket.try_wait(),
                Some(Err(CanopusError::ServiceStopped))
            ));
            assert_eq!(got.queue_wait_s, 0.0);
            assert!(Arc::ptr_eq(&got.outcome.data, &want.data));
            assert_eq!(got.outcome.level, want.level);
        }
        assert_eq!(ledger(&service, "full"), [4, 2, 2, 4]);
        assert_eq!(ledger(&service, "quick"), [1, 0, 1, 1]);

        // A region request: the base and a full step into level 1, both
        // held whole, with the stats and the chunk plan of the worker's
        // path.
        let counters = || {
            let snap = service.metrics().snapshot();
            [
                names::READ_CACHE_HITS,
                names::READ_CHUNKS_PLANNED,
                names::READ_CHUNKS_SKIPPED,
                names::READ_BYTES_IO,
            ]
            .map(|n| snap.counter(n))
        };
        let before = counters();
        let (worked, worked_stats) = execute(&service.shared, &region).unwrap();
        let by_worker: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
        let before = counters();
        let got = service
            .submit(region.clone())
            .unwrap()
            .wait_timeout(Duration::ZERO)
            .expect("resolved on arrival")
            .unwrap();
        let on_arrival: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(got.queue_wait_s, 0.0);
        assert_eq!(got.region_stats, worked_stats);
        assert_eq!(got.region_stats.unwrap().chunks_cached, 1);
        assert!(Arc::ptr_eq(&got.outcome.data, &worked.data));
        assert_eq!(on_arrival, by_worker, "hits, planned, skipped, bytes");
        assert_eq!(on_arrival, [2, 1, 1, 0]);
        assert_eq!(ledger(&service, "full"), [5, 2, 3, 5]);
    }

    #[test]
    fn edf_pop_orders_by_deadline_then_seq_and_respects_reserved_lane() {
        let now = Instant::now();
        let (tx, _rx) = mpsc::sync_channel(1);
        let job = |seq: u64, priority: Priority, deadline_ms: u64| Job {
            seq,
            request: ServeRequest::Base {
                file: "f".into(),
                var: "v".into(),
            },
            priority,
            deadline: now + Duration::from_millis(deadline_ms),
            enqueued: now,
            tx: tx.clone(),
        };
        let mut sched = Sched {
            quick: Vec::new(),
            full: Vec::new(),
            next_seq: 0,
            shutdown: false,
        };
        sched.push(job(0, Priority::FullAccuracy, 10));
        sched.push(job(1, Priority::QuickLook, 50));
        sched.push(job(2, Priority::QuickLook, 50));
        // Reserved lane never touches the full queue.
        assert_eq!(
            sched.pop(true).unwrap().seq,
            1,
            "FIFO within equal deadlines"
        );
        // General worker runs EDF across classes: the old full job's
        // deadline beats the remaining quick one.
        assert_eq!(sched.pop(false).unwrap().seq, 0);
        assert_eq!(sched.pop(false).unwrap().seq, 2);
        assert!(sched.pop(false).is_none());
        assert!(sched.pop(true).is_none());
    }
}
