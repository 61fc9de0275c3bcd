//! Supervised campaign service: a threaded job-queue daemon over the
//! campaign runtime.
//!
//! [`CampaignService`] accepts [`CampaignConfig`] specs and executes them
//! on a pool of worker threads, sharding each campaign's energy bins
//! across per-worker queues with work stealing. Every unit of work runs
//! inside a supervision envelope:
//!
//! - **Crash isolation** — a panicking bin is caught (`catch_unwind` via
//!   the shared campaign envelope) and never takes down a worker or the
//!   daemon.
//! - **Retry with deterministic backoff** — a crashed bin is re-queued up
//!   to [`ServiceConfig::max_retries`] times; the delay before each retry
//!   comes from [`backoff_schedule`], a pure function of the campaign
//!   seed, so the schedule is reproducible run-to-run.
//! - **Quarantine** — a bin that exhausts its retries is recorded on the
//!   dead-letter list ([`CampaignService::dead_letters`]) with its
//!   captured panic message, and the job degrades to partial coverage
//!   instead of failing outright.
//! - **Deadlines** — each job can carry a wall-clock deadline
//!   ([`ServiceConfig::job_deadline`]) enforced through a cooperative
//!   [`CancelToken`]: the SPICE characterization polls it between Newton
//!   solves, and workers poll it at bin boundaries. An expired job ends
//!   in [`JobError::DeadlineExceeded`]; the daemon keeps serving.
//! - **Result cache** — submissions are keyed by the campaign's
//!   checkpoint fingerprint; an identical spec returns the cached report
//!   without re-running SPICE, and concurrent identical submissions
//!   coalesce onto one execution.
//! - **Graceful shutdown** — [`CampaignService::drain`] finishes the
//!   queue first; [`CampaignService::shutdown_now`] stops after in-flight
//!   items and flushes each unfinished job's partial checkpoint, so a
//!   killed daemon resumes to a bit-identical [`CampaignReport`].
//!
//! Determinism: bins use the same per-bin seed derivation as
//! [`CampaignRunner`](crate::campaign::CampaignRunner) and integration
//! folds outcomes in bin order, so the report is bit-identical regardless
//! of worker count, scheduling order, retries, or interruption.
//!
//! Architecture details and the supervision state machine are documented
//! in `docs/service.md`.

use crate::array::MemoryArray;
use crate::campaign::{
    build_checkpoint, integrate_outcomes, load_checkpoint_classified, payload_message,
    prefill_outcomes, supervised_bin, BinOutcome, CampaignConfig, CampaignError, CampaignReport,
};
use crate::checkpoint::config_fingerprint;
use crate::pipeline::SerPipeline;
use crate::strike::StrikeSimulator;
use crate::CoreError;
use finrad_environment::SpectrumBin;
use finrad_numerics::rng::{Rng, Xoshiro256pp};
use finrad_observe::keys;
use finrad_spice::cancel::install_scoped;
use finrad_spice::sync::{lock_recovering, wait_recovering, wait_timeout_recovering};
use finrad_spice::{CancelToken, SpiceError};
use finrad_sram::PofTable;
use finrad_transport::lut::EhpLut;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the service's worker pool and supervision envelope.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Retries granted to a crashed bin beyond its first attempt; after
    /// `max_retries + 1` panics the bin is quarantined.
    pub max_retries: u32,
    /// Base delay of the exponential retry backoff (attempt `a` waits
    /// roughly `base · 2^a` plus deterministic jitter).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
    /// Wall-clock budget per job, measured from submission; `None`
    /// disables deadlines.
    pub job_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            job_deadline: None,
        }
    }
}

/// Handle to a submitted campaign job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Terminal failure of a job. Degraded-but-covered campaigns are *not*
/// errors — they complete with a [`Coverage`](crate::campaign::Coverage)
/// summary in the report.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The prepare step failed: characterization error, invalid config,
    /// or an unusable checkpoint (including the typed truncation and
    /// fingerprint-mismatch classifications).
    Setup(String),
    /// The job's wall-clock deadline expired before it finished.
    DeadlineExceeded,
    /// Every energy bin failed; there is no spectrum coverage to report.
    NoCoverage {
        /// Total bins attempted.
        total_bins: usize,
    },
    /// The completion checkpoint flush failed; the result is not cached
    /// because a resumed daemon could not reproduce it from disk.
    CheckpointFlush(String),
    /// The service was draining or shut down before the job could run.
    Draining,
    /// The job id was never issued by this service.
    Unknown,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Setup(msg) => write!(f, "job setup failed: {msg}"),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            JobError::NoCoverage { total_bins } => write!(
                f,
                "no spectrum coverage: all {total_bins} energy bins failed"
            ),
            JobError::CheckpointFlush(msg) => {
                write!(f, "completion checkpoint flush failed: {msg}")
            }
            JobError::Draining => write!(f, "service is draining; job rejected"),
            JobError::Unknown => write!(f, "unknown job id"),
        }
    }
}

impl Error for JobError {}

/// What [`CampaignService::wait`] resolves to.
pub type JobResult = Result<Arc<CampaignReport>, JobError>;

/// Coarse progress of a job, for polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted; the prepare step has not produced a bin table yet.
    Queued,
    /// Bins are executing.
    Running {
        /// Bins in a terminal state (computed, planned-failed, or
        /// quarantined).
        completed_bins: usize,
        /// Total energy bins in the campaign.
        total_bins: usize,
    },
    /// Terminal; [`CampaignService::wait`] returns without blocking.
    Done,
}

/// One quarantined bin: it exhausted its retry budget and was excluded
/// from the job's integration as a failed bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The job the bin belonged to.
    pub job: JobId,
    /// The energy-bin index.
    pub bin: usize,
    /// Attempts consumed (first run plus retries).
    pub attempts: u32,
    /// The captured panic message of the final attempt.
    pub error: String,
}

/// Deterministic retry delay for `bin`'s zero-based retry `attempt`:
/// exponential `base · 2^attempt` plus a jitter draw in `[0, base)` from
/// the campaign seed's salted stream, capped at `cap`. A pure function —
/// the whole backoff schedule of a campaign is reproducible from its
/// seed, which the determinism-under-faults suite asserts.
pub fn backoff_schedule(
    campaign_seed: u64,
    bin: usize,
    attempt: u32,
    base: Duration,
    cap: Duration,
) -> Duration {
    let mut rng = Xoshiro256pp::salted_stream(campaign_seed, bin as u64, 0xC0FF_EE00_5EED_F00D);
    let mut jitter_word = 0u64;
    for _ in 0..=attempt {
        jitter_word = rng.next_u64();
    }
    let exp = base.saturating_mul(1u32 << attempt.min(20));
    let span = base.as_nanos().max(1) as u64;
    let raw = exp.saturating_add(Duration::from_nanos(jitter_word % span));
    if raw > cap {
        cap
    } else {
        raw
    }
}

/// Everything the bin stage needs, built once per job by the prepare
/// step. All fields are plain owned data, shared across workers by `Arc`.
struct Prepared {
    pipeline: SerPipeline,
    table: PofTable,
    array: MemoryArray,
    lut: Option<EhpLut>,
    bins: Vec<SpectrumBin>,
}

impl Prepared {
    fn run_bin(&self, cfg: &CampaignConfig, k: usize, attempt: u32) -> Result<BinOutcome, String> {
        let sim = StrikeSimulator::new(
            &self.array,
            self.pipeline.traversal(),
            &self.table,
            self.pipeline.direction_for(cfg.particle),
            cfg.pipeline.deposit,
            cfg.pipeline.flip_model,
            self.lut.as_ref(),
        );
        supervised_bin(&sim, cfg, k, &self.bins[k], attempt)
    }
}

enum WorkItem {
    Prepare(JobId),
    Bin {
        job: JobId,
        bin: usize,
        attempt: u32,
    },
}

struct Delayed {
    ready_at: Instant,
    item: WorkItem,
}

struct Job {
    config: Arc<CampaignConfig>,
    fingerprint: u64,
    token: CancelToken,
    submitted: Instant,
    prepared: Option<Arc<Prepared>>,
    outcomes: Vec<Option<BinOutcome>>,
    /// Bins not yet in a terminal state. The scheduling invariant: while
    /// the job is live, every non-terminal bin has exactly one item
    /// queued, delayed, or executing.
    remaining: usize,
}

enum Slot {
    /// A coalesced duplicate submission; resolves to its leader.
    Alias(JobId),
    /// A live job.
    Job(Box<Job>),
    /// A terminal result (completed, failed, cache hit, or rejected).
    Done(JobResult),
}

struct State {
    queues: Vec<VecDeque<WorkItem>>,
    delayed: Vec<Delayed>,
    jobs: HashMap<JobId, Slot>,
    cache: HashMap<u64, Arc<CampaignReport>>,
    /// Fingerprint → leader job currently executing it (for coalescing).
    inflight: HashMap<u64, JobId>,
    dead_letters: Vec<DeadLetter>,
    draining: bool,
    stopping: bool,
    next_job: u64,
    cursor: usize,
}

impl State {
    fn queued_items(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum::<usize>() + self.delayed.len()
    }

    /// Round-robin enqueue; records the post-enqueue depth gauge.
    fn enqueue(&mut self, item: WorkItem) {
        let w = self.cursor % self.queues.len();
        self.cursor = self.cursor.wrapping_add(1);
        self.queues[w].push_back(item);
        finrad_observe::record(keys::SERVICE_QUEUE_DEPTH, self.queued_items() as f64);
    }

    /// Pops the worker's own queue front, else steals from the back of
    /// another worker's queue (classic work stealing: owners and thieves
    /// touch opposite ends).
    fn pop(&mut self, widx: usize) -> Option<WorkItem> {
        if let Some(item) = self.queues[widx].pop_front() {
            return Some(item);
        }
        let n = self.queues.len();
        for off in 1..n {
            if let Some(item) = self.queues[(widx + off) % n].pop_back() {
                finrad_observe::counter_add(keys::SERVICE_QUEUE_STEALS, 1);
                return Some(item);
            }
        }
        None
    }

    fn resolve(&self, mut id: JobId) -> JobId {
        let mut hops = 0;
        while let Some(Slot::Alias(next)) = self.jobs.get(&id) {
            id = *next;
            hops += 1;
            if hops > self.jobs.len() {
                break;
            }
        }
        id
    }

    fn job_mut(&mut self, id: JobId) -> Option<&mut Job> {
        match self.jobs.get_mut(&id) {
            Some(Slot::Job(job)) => Some(job),
            _ => None,
        }
    }

    /// Moves a live job to its terminal state and records the per-job
    /// metrics. The `Job` (and its `Prepared` data) is dropped; waiters
    /// observe `Slot::Done` after the caller notifies the condvar.
    fn finalize(&mut self, id: JobId, result: JobResult) {
        let Some(Slot::Job(job)) = self.jobs.remove(&id) else {
            return;
        };
        if self.inflight.get(&job.fingerprint) == Some(&id) {
            self.inflight.remove(&job.fingerprint);
        }
        let secs = job.submitted.elapsed().as_secs_f64();
        finrad_observe::record(keys::SERVICE_JOB_SECONDS, secs);
        match &result {
            Ok(report) => {
                finrad_observe::counter_add(keys::SERVICE_JOBS_COMPLETED, 1);
                if secs > 0.0 {
                    finrad_observe::record(
                        keys::SERVICE_BINS_PER_SEC,
                        report.coverage.total_bins as f64 / secs,
                    );
                }
            }
            Err(e) => {
                finrad_observe::counter_add(keys::SERVICE_JOBS_FAILED, 1);
                if *e == JobError::DeadlineExceeded {
                    finrad_observe::counter_add(keys::SERVICE_DEADLINE_CANCELLATIONS, 1);
                }
            }
        }
        self.jobs.insert(id, Slot::Done(result));
    }

    fn all_jobs_done(&self) -> bool {
        self.jobs.values().all(|slot| !matches!(slot, Slot::Job(_)))
    }
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    config: ServiceConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A worker panicking with the lock held cannot happen (all job
        // code runs under catch_unwind off-lock), but poisoning must not
        // wedge the daemon regardless.
        lock_recovering(&self.state)
    }
}

/// The job-queue daemon. See the [module docs](self) for the supervision
/// contract; construction spawns the worker pool, drop stops it.
pub struct CampaignService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl CampaignService {
    /// Starts the daemon with `config.workers` worker threads.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                delayed: Vec::new(),
                jobs: HashMap::new(),
                cache: HashMap::new(),
                inflight: HashMap::new(),
                dead_letters: Vec::new(),
                draining: false,
                stopping: false,
                next_job: 1,
                cursor: 0,
            }),
            cv: Condvar::new(),
            config,
        });
        let handles = (0..workers)
            .map(|widx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, widx))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Submits a campaign. Identical specs (same checkpoint fingerprint)
    /// are deduplicated: a finished result is answered from the cache
    /// without re-running SPICE, and a spec currently executing is
    /// coalesced onto the running job. Returns immediately; resolve the
    /// job with [`CampaignService::wait`].
    pub fn submit(&self, config: CampaignConfig) -> JobId {
        let fingerprint = config_fingerprint(&config.pipeline, config.particle, config.vdd);
        let mut st = self.shared.lock();
        let id = JobId(st.next_job);
        st.next_job += 1;
        finrad_observe::counter_add(keys::SERVICE_JOBS_SUBMITTED, 1);
        if st.draining || st.stopping {
            st.jobs.insert(id, Slot::Done(Err(JobError::Draining)));
            drop(st);
            self.shared.cv.notify_all();
            return id;
        }
        if let Some(report) = st.cache.get(&fingerprint) {
            finrad_observe::counter_add(keys::SERVICE_CACHE_HITS, 1);
            let report = Arc::clone(report);
            st.jobs.insert(id, Slot::Done(Ok(report)));
            drop(st);
            self.shared.cv.notify_all();
            return id;
        }
        if let Some(leader) = st.inflight.get(&fingerprint) {
            finrad_observe::counter_add(keys::SERVICE_JOBS_COALESCED, 1);
            let leader = *leader;
            st.jobs.insert(id, Slot::Alias(leader));
            return id;
        }
        finrad_observe::counter_add(keys::SERVICE_CACHE_MISSES, 1);
        let deadline_token = match self.shared.config.job_deadline {
            Some(budget) => CancelToken::with_deadline(Instant::now() + budget),
            None => CancelToken::new(),
        };
        st.jobs.insert(
            id,
            Slot::Job(Box::new(Job {
                config: Arc::new(config),
                fingerprint,
                token: deadline_token,
                submitted: Instant::now(),
                prepared: None,
                outcomes: Vec::new(),
                remaining: 0,
            })),
        );
        st.inflight.insert(fingerprint, id);
        st.enqueue(WorkItem::Prepare(id));
        drop(st);
        self.shared.cv.notify_all();
        id
    }

    /// Blocks until the job is terminal and returns its result. Waiting
    /// on a coalesced duplicate resolves to its leader's result.
    pub fn wait(&self, id: JobId) -> JobResult {
        let mut st = self.shared.lock();
        loop {
            let rid = st.resolve(id);
            match st.jobs.get(&rid) {
                None => return Err(JobError::Unknown),
                Some(Slot::Done(result)) => return result.clone(),
                Some(_) => {}
            }
            st = wait_recovering(&self.shared.cv, st);
        }
    }

    /// Non-blocking progress probe.
    pub fn status(&self, id: JobId) -> JobStatus {
        let st = self.shared.lock();
        let rid = st.resolve(id);
        match st.jobs.get(&rid) {
            Some(Slot::Job(job)) => match &job.prepared {
                Some(_) => JobStatus::Running {
                    completed_bins: job.outcomes.len() - job.remaining,
                    total_bins: job.outcomes.len(),
                },
                None => JobStatus::Queued,
            },
            _ => JobStatus::Done,
        }
    }

    /// Snapshot of the quarantine list.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.shared.lock().dead_letters.clone()
    }

    /// Explicitly cancels a job (its in-flight bins finish, queued ones
    /// are discarded; the job resolves to
    /// [`JobError::DeadlineExceeded`]-style cancellation via its token).
    pub fn cancel(&self, id: JobId) {
        let st = self.shared.lock();
        let rid = st.resolve(id);
        if let Some(Slot::Job(job)) = st.jobs.get(&rid) {
            job.token.cancel();
        }
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Finishes every submitted job (new submissions are rejected with
    /// [`JobError::Draining`] from this point on) and blocks until the
    /// queue is empty. Workers stay parked; results remain queryable via
    /// [`CampaignService::wait`] until the service is dropped.
    pub fn drain(&self) {
        let mut st = self.shared.lock();
        st.draining = true;
        self.shared.cv.notify_all();
        while !st.all_jobs_done() {
            st = wait_recovering(&self.shared.cv, st);
        }
    }

    /// Stops the pool after in-flight items only: queued jobs resolve to
    /// [`JobError::Draining`], and every unfinished job with progress
    /// gets its partial checkpoint flushed so a successor daemon resumes
    /// bit-identically. Idempotent; also run on drop.
    pub fn shutdown_now(&self) {
        {
            let mut st = self.shared.lock();
            st.stopping = true;
        }
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *lock_recovering(&self.workers));
        for handle in handles {
            // A worker that panicked has already dead-lettered its item;
            // its join error carries nothing further to handle.
            // finrad-lint: allow(result-discard-audit)
            let _ = handle.join();
        }
        // Workers are gone: whatever is still live was interrupted.
        let mut st = self.shared.lock();
        let interrupted: Vec<JobId> = st
            .jobs
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Job(_)))
            .map(|(id, _)| *id)
            .collect();
        for id in interrupted {
            // Checkpoint I/O under the state lock is deliberate here: the
            // workers are already joined, so nothing contends, and holding
            // `st` keeps the flush + finalize transition atomic.
            // finrad-lint: allow(guard-lifetime-audit)
            let result = flush_partial(&mut st, id);
            st.finalize(id, Err(result));
        }
        drop(st);
        self.shared.cv.notify_all();
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Flushes the partial checkpoint of an interrupted job (lock held; the
/// worker pool has already exited, so the held lock is uncontended).
fn flush_partial(st: &mut State, id: JobId) -> JobError {
    let Some(job) = st.job_mut(id) else {
        return JobError::Draining;
    };
    let has_progress = job.outcomes.iter().any(Option::is_some);
    if job.prepared.is_none() || !has_progress || job.config.checkpoint_path.is_none() {
        return JobError::Draining;
    }
    #[cfg(feature = "fault-injection")]
    if fault::take_checkpoint_failure() {
        return JobError::CheckpointFlush("injected checkpoint write failure".into());
    }
    let Some(path) = &job.config.checkpoint_path else {
        return JobError::Draining;
    };
    match build_checkpoint(&job.config, &job.outcomes).save(path) {
        Ok(()) => {
            finrad_observe::counter_add(keys::SERVICE_DRAIN_FLUSHES, 1);
            JobError::Draining
        }
        Err(e) => JobError::CheckpointFlush(e.to_string()),
    }
}

fn worker_loop(shared: &Arc<Shared>, widx: usize) {
    loop {
        let item = {
            let mut st = shared.lock();
            loop {
                if st.stopping {
                    return;
                }
                // Promote retries whose backoff has elapsed.
                let now = Instant::now();
                let mut i = 0;
                while i < st.delayed.len() {
                    if st.delayed[i].ready_at <= now {
                        let d = st.delayed.swap_remove(i);
                        st.enqueue(d.item);
                    } else {
                        i += 1;
                    }
                }
                if let Some(item) = st.pop(widx) {
                    break item;
                }
                match st.delayed.iter().map(|d| d.ready_at).min() {
                    Some(ready_at) => {
                        let wait = ready_at.saturating_duration_since(Instant::now());
                        let (guard, _) = wait_timeout_recovering(&shared.cv, st, wait);
                        st = guard;
                    }
                    None => {
                        st = wait_recovering(&shared.cv, st);
                    }
                }
            }
        };
        match item {
            WorkItem::Prepare(id) => do_prepare(shared, id),
            WorkItem::Bin { job, bin, attempt } => do_bin(shared, job, bin, attempt),
        }
    }
}

/// Classifies a prepare-stage pipeline error: a characterization aborted
/// by the job's own cancellation token is a deadline, not a setup bug.
fn classify_setup(e: CoreError) -> JobError {
    match e {
        CoreError::Characterization(SpiceError::Cancelled { .. }) => JobError::DeadlineExceeded,
        other => JobError::Setup(format!("campaign setup failed: {other}")),
    }
}

/// The prepare stage, run off-lock: characterize the cell, build the
/// array/traversal/LUT, and prefill outcomes from a checkpoint if one
/// exists on disk.
fn prepare_job(cfg: &CampaignConfig) -> Result<(Prepared, Vec<Option<BinOutcome>>), JobError> {
    let pipeline = SerPipeline::new(cfg.pipeline.clone());
    let table = pipeline.build_pof_table(cfg.vdd).map_err(classify_setup)?;
    let bins = pipeline.energy_bins(cfg.particle);
    let array = pipeline.build_array();
    let lut = pipeline.deposit_lut(cfg.particle);
    let mut outcomes = vec![None; bins.len()];
    if let Some(path) = &cfg.checkpoint_path {
        if path.exists() {
            let ck =
                load_checkpoint_classified(path).map_err(|e| JobError::Setup(e.to_string()))?;
            let expected = config_fingerprint(&cfg.pipeline, cfg.particle, cfg.vdd);
            if ck.fingerprint != expected {
                return Err(JobError::Setup(
                    CampaignError::ConfigMismatch {
                        expected,
                        found: ck.fingerprint,
                    }
                    .to_string(),
                ));
            }
            outcomes =
                prefill_outcomes(ck.bins, &bins).map_err(|e| JobError::Setup(e.to_string()))?;
        }
    }
    Ok((
        Prepared {
            pipeline,
            table,
            array,
            lut,
            bins,
        },
        outcomes,
    ))
}

fn do_prepare(shared: &Arc<Shared>, id: JobId) {
    let (cfg, token) = {
        let mut st = shared.lock();
        let Some(job) = st.job_mut(id) else {
            return; // stale item for a finished job
        };
        let token = job.token.clone();
        if token.is_cancelled() {
            st.finalize(id, Err(JobError::DeadlineExceeded));
            drop(st);
            shared.cv.notify_all();
            return;
        }
        (Arc::clone(&job.config), token)
    };
    let scope = install_scoped(&token);
    let built = catch_unwind(AssertUnwindSafe(|| prepare_job(&cfg)));
    drop(scope);
    let mut st = shared.lock();
    match built {
        Err(payload) => {
            st.finalize(
                id,
                Err(JobError::Setup(format!(
                    "prepare panicked: {}",
                    payload_message(payload.as_ref())
                ))),
            );
        }
        Ok(Err(e)) => {
            st.finalize(id, Err(e));
        }
        Ok(Ok((prepared, outcomes))) => {
            let Some(job) = st.job_mut(id) else {
                return;
            };
            let remaining = outcomes.iter().filter(|o| o.is_none()).count();
            job.prepared = Some(Arc::new(prepared));
            job.outcomes = outcomes;
            job.remaining = remaining;
            if remaining == 0 {
                // Fully resumed from checkpoint: straight to completion.
                if let Some(work) = take_completion(&mut st, id) {
                    drop(st);
                    complete_job(shared, id, work);
                    return;
                }
            } else {
                let missing: Vec<usize> = job
                    .outcomes
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_none())
                    .map(|(k, _)| k)
                    .collect();
                for k in missing {
                    st.enqueue(WorkItem::Bin {
                        job: id,
                        bin: k,
                        attempt: 0,
                    });
                }
            }
        }
    }
    drop(st);
    shared.cv.notify_all();
}

/// Everything the completion stage needs, detached from the state so the
/// integration and checkpoint flush run off-lock.
struct CompletionWork {
    config: Arc<CampaignConfig>,
    prepared: Arc<Prepared>,
    outcomes: Vec<Option<BinOutcome>>,
}

/// Detaches the completion inputs when the job's last bin just landed
/// (lock held). Returns `None` while bins remain.
fn take_completion(st: &mut State, id: JobId) -> Option<CompletionWork> {
    let job = st.job_mut(id)?;
    if job.remaining > 0 {
        return None;
    }
    let prepared = Arc::clone(job.prepared.as_ref()?);
    Some(CompletionWork {
        config: Arc::clone(&job.config),
        prepared,
        outcomes: std::mem::take(&mut job.outcomes),
    })
}

/// The completion stage, run off-lock by the worker that landed the last
/// bin: flush the checkpoint, integrate, publish to the cache.
fn complete_job(shared: &Arc<Shared>, id: JobId, work: CompletionWork) {
    let mut flush_error: Option<JobError> = None;
    if let Some(path) = &work.config.checkpoint_path {
        #[cfg(feature = "fault-injection")]
        let injected = fault::take_checkpoint_failure();
        #[cfg(not(feature = "fault-injection"))]
        let injected = false;
        if injected {
            flush_error = Some(JobError::CheckpointFlush(
                "injected checkpoint write failure".into(),
            ));
        } else if let Err(e) = build_checkpoint(&work.config, &work.outcomes).save(path) {
            flush_error = Some(JobError::CheckpointFlush(e.to_string()));
        }
    }
    let result: JobResult = match flush_error {
        Some(e) => Err(e),
        None => integrate_outcomes(
            work.config.particle,
            work.config.vdd,
            work.outcomes,
            &work.prepared.array,
            &work.prepared.bins,
        )
        .map(Arc::new)
        .map_err(|e| match e {
            CampaignError::NoCoverage { total_bins } => JobError::NoCoverage { total_bins },
            other => JobError::Setup(other.to_string()),
        }),
    };
    let mut st = shared.lock();
    let fingerprint = match st.jobs.get(&id) {
        Some(Slot::Job(job)) => Some(job.fingerprint),
        _ => None,
    };
    if let (Ok(report), Some(fp)) = (&result, fingerprint) {
        // Only complete-coverage reports are cacheable: a degraded run
        // re-submitted later deserves a fresh attempt at the failed bins.
        if report.coverage.is_complete() {
            st.cache.insert(fp, Arc::clone(report));
        }
    }
    st.finalize(id, result);
    drop(st);
    shared.cv.notify_all();
}

fn do_bin(shared: &Arc<Shared>, id: JobId, k: usize, attempt: u32) {
    let (cfg, token, prepared) = {
        let mut st = shared.lock();
        let Some(job) = st.job_mut(id) else {
            return; // stale item for a finished job
        };
        let token = job.token.clone();
        if token.is_cancelled() {
            st.finalize(id, Err(JobError::DeadlineExceeded));
            drop(st);
            shared.cv.notify_all();
            return;
        }
        let Some(prepared) = job.prepared.clone() else {
            return; // cannot happen: bins are enqueued only after prepare
        };
        (Arc::clone(&job.config), token, prepared)
    };
    #[cfg(feature = "fault-injection")]
    if let Some(delay) = fault::bin_delay() {
        std::thread::sleep(delay);
    }
    let scope = install_scoped(&token);
    let result = prepared.run_bin(&cfg, k, attempt);
    drop(scope);
    let completion = {
        let mut st = shared.lock();
        let Some(job) = st.job_mut(id) else {
            return;
        };
        match result {
            Ok(outcome) => {
                job.outcomes[k] = Some(outcome);
                job.remaining -= 1;
            }
            Err(panic_msg) => {
                if attempt < shared.config.max_retries {
                    finrad_observe::counter_add(keys::SERVICE_BIN_RETRIES, 1);
                    let delay = backoff_schedule(
                        cfg.pipeline.seed,
                        k,
                        attempt,
                        shared.config.backoff_base,
                        shared.config.backoff_cap,
                    );
                    st.delayed.push(Delayed {
                        ready_at: Instant::now() + delay,
                        item: WorkItem::Bin {
                            job: id,
                            bin: k,
                            attempt: attempt + 1,
                        },
                    });
                    drop(st);
                    shared.cv.notify_all();
                    return;
                }
                finrad_observe::counter_add(keys::SERVICE_BINS_QUARANTINED, 1);
                let attempts = attempt + 1;
                job.outcomes[k] = Some(BinOutcome::Failed {
                    error: format!("bin {k} quarantined after {attempts} attempts: {panic_msg}"),
                });
                job.remaining -= 1;
                st.dead_letters.push(DeadLetter {
                    job: id,
                    bin: k,
                    attempts,
                    error: panic_msg,
                });
            }
        }
        take_completion(&mut st, id)
    };
    match completion {
        Some(work) => complete_job(shared, id, work),
        None => shared.cv.notify_all(),
    }
}

/// Service-level fault points, compiled only with `fault-injection`.
/// Process-global like the SPICE injector: tests that arm them must
/// serialize behind a shared mutex.
#[cfg(feature = "fault-injection")]
pub mod fault {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    static CKPT_FAIL_REMAINING: AtomicU64 = AtomicU64::new(0);
    static BIN_DELAY_MILLIS: AtomicU64 = AtomicU64::new(0);

    /// The next `count` checkpoint flushes (completion or drain) fail
    /// with [`JobError::CheckpointFlush`](super::JobError::CheckpointFlush).
    pub fn arm_checkpoint_failure(count: u64) {
        CKPT_FAIL_REMAINING.store(count, Ordering::SeqCst);
    }

    /// Every bin execution sleeps for `delay` before running — slows the
    /// service down deterministically so shutdown tests can interrupt a
    /// campaign mid-shard.
    pub fn arm_bin_delay(delay: Duration) {
        BIN_DELAY_MILLIS.store(delay.as_millis() as u64, Ordering::SeqCst);
    }

    /// Disarms all service fault points (idempotent).
    pub fn disarm() {
        CKPT_FAIL_REMAINING.store(0, Ordering::SeqCst);
        BIN_DELAY_MILLIS.store(0, Ordering::SeqCst);
    }

    pub(crate) fn take_checkpoint_failure() -> bool {
        CKPT_FAIL_REMAINING
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1))
            .is_ok()
    }

    pub(crate) fn bin_delay() -> Option<Duration> {
        let millis = BIN_DELAY_MILLIS.load(Ordering::SeqCst);
        (millis > 0).then(|| Duration::from_millis(millis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_monotone_in_attempt() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_secs(1);
        let a = backoff_schedule(42, 3, 0, base, cap);
        let b = backoff_schedule(42, 3, 0, base, cap);
        assert_eq!(a, b, "same seed/bin/attempt must give the same delay");
        assert!(a >= base && a < base * 2 + base, "exp + jitter bounds");
        // Different bins draw different jitter.
        let other_bin = backoff_schedule(42, 4, 0, base, cap);
        assert!(other_bin >= base);
        // The exponential component grows until the cap bites.
        let late = backoff_schedule(42, 3, 9, base, cap);
        assert!(late >= a);
        assert!(
            backoff_schedule(42, 3, 30, base, Duration::from_millis(80))
                <= Duration::from_millis(80)
        );
    }

    #[test]
    fn queue_depth_round_robins_and_steals() {
        let mut st = State {
            queues: vec![VecDeque::new(), VecDeque::new()],
            delayed: Vec::new(),
            jobs: HashMap::new(),
            cache: HashMap::new(),
            inflight: HashMap::new(),
            dead_letters: Vec::new(),
            draining: false,
            stopping: false,
            next_job: 1,
            cursor: 0,
        };
        for k in 0..4 {
            st.enqueue(WorkItem::Bin {
                job: JobId(1),
                bin: k,
                attempt: 0,
            });
        }
        assert_eq!(st.queues[0].len(), 2);
        assert_eq!(st.queues[1].len(), 2);
        // Worker 0 drains its own queue front-first, then steals from the
        // back of worker 1's queue.
        let order: Vec<usize> = (0..4)
            .filter_map(|_| match st.pop(0) {
                Some(WorkItem::Bin { bin, .. }) => Some(bin),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
        assert!(st.pop(0).is_none());
    }
}
