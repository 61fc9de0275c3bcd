//! The three workloads: their set-up, one pass of their operations, and
//! the checks on what a pass produced.

use crate::flow::{self, layer, Report};
use crate::reference;
use crate::trace::Tracer;
use finrad_core::campaign::{CampaignConfig, CampaignReport, CampaignRunner, CampaignStatus};
use finrad_core::checkpoint::{config_fingerprint, Checkpoint};
use finrad_core::fit::FitRate;
use finrad_core::pipeline::{PipelineConfig, SerPipeline, SerReport};
use finrad_core::service::{CampaignService, JobId, ServiceConfig};
use finrad_core::strike::{DepositMode, FlipModel};
use finrad_core::sweep::VddSweep;
use finrad_sram::Variation;
use finrad_units::{Particle, Voltage};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The supply-voltage sweep of Figs. 9–11.
pub const VDD_SWEEP: [f64; 5] = [0.7, 0.8, 0.9, 1.0, 1.1];

/// The (particle, V_dd) points of the campaign workload.
/// Nominal LUT mode gives protons no upsets at any V_dd, so three of
/// the four are alpha points, where the reports carry non-zero bins.
pub const CAMPAIGN_POINTS: [(Particle, f64); 4] = [
    (Particle::Alpha, 0.7),
    (Particle::Proton, 0.7),
    (Particle::Alpha, 0.8),
    (Particle::Alpha, 1.1),
];

/// Where the campaign workload keeps its checkpoints, relative to the
/// working directory.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 at quick scale: variation-MC POF tables, chord-exact strikes.
    Fig9Sweep,
    /// The no-PV arm of Fig. 11 in paper LUT mode.
    NominalLut,
    /// Paused, resumed and service-run nominal campaigns.
    CampaignResume,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig9Sweep,
        Workload::NominalLut,
        Workload::CampaignResume,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Sweep => "fig9_sweep",
            Workload::NominalLut => "nominal_lut",
            Workload::CampaignResume => "campaign_resume",
        }
    }

    /// One-line reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig9Sweep => {
                "the figure users wait on; cell characterization does most of the work, strike MC the rest"
            }
            Workload::NominalLut => {
                "nominal LUT mode bypasses characterization and runs the LUT-mean strike path and the transport LUT build"
            }
            Workload::CampaignResume => {
                "campaign runners, checkpoint writes and reads and service scheduling over the nominal strike layer"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pipeline configuration of the workload at `seed`.
    pub fn config(self, seed: u64) -> PipelineConfig {
        let mut cfg = PipelineConfig::paper_baseline();
        cfg.seed = seed;
        cfg.iterations_per_energy = 30_000;
        cfg.energy_bins = 10;
        match self {
            Workload::Fig9Sweep => cfg.variation = Variation::MonteCarlo { samples: 150 },
            Workload::NominalLut | Workload::CampaignResume => {
                cfg.variation = Variation::Nominal;
                cfg.deposit = DepositMode::LutMean;
                cfg.flip_model = FlipModel::Sampled;
            }
        }
        if self == Workload::CampaignResume {
            cfg.iterations_per_energy = 8_000;
            cfg.energy_bins = 24;
        }
        cfg
    }
}

/// What one operation produced.
#[derive(Debug, Clone)]
pub enum Output {
    /// A report from the program's own sweep (untraced passes).
    Pipeline(SerReport),
    /// A report from the decomposed flow (traced passes).
    Flow(Report),
    /// A campaign report from a runner or the service.
    Campaign(Arc<CampaignReport>),
}

impl Output {
    fn fit(&self) -> FitRate {
        match self {
            Output::Pipeline(r) => FitRate {
                total: r.fit_total,
                seu: r.fit_seu,
                mbu: r.fit_mbu,
            },
            Output::Flow(r) => r.fit,
            Output::Campaign(c) => c.fit,
        }
    }

    /// Whether two outputs agree bit for bit. A decomposed report and the
    /// program's report agree when the FIT and every bin do.
    pub fn identical(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Pipeline(a), Output::Pipeline(b)) => flow::same_report(a, b),
            (Output::Flow(a), Output::Flow(b)) => a.identical(b),
            (Output::Flow(a), Output::Pipeline(b)) | (Output::Pipeline(b), Output::Flow(a)) => {
                a.matches_pipeline(b)
            }
            (Output::Campaign(a), Output::Campaign(b)) => flow::same_campaign(a, b),
            _ => false,
        }
    }
}

/// One operation: a (particle, V_dd) report or a campaign job.
#[derive(Debug, Clone)]
pub struct Op {
    /// Label such as `alpha@0.70V` or `service proton@1.00V`.
    pub label: String,
    /// Particle species.
    pub particle: Particle,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// The output, or why the operation failed.
    pub output: Result<Output, String>,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// The operations, in execution order.
    pub ops: Vec<Op>,
    /// Submit-to-result seconds of each computed service job.
    pub job_seconds: Vec<f64>,
    /// Submit-to-result seconds of each cache-answered service job.
    pub cache_hit_seconds: Vec<f64>,
    /// Bytes of the paused checkpoints.
    pub checkpoint_bytes: u64,
}

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(tag: usize) -> std::io::Result<Self> {
        let path = Path::new(SCRATCH_DIR).join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and ignored by git.
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// State a pass runs against, built before its first operation.
pub struct Context {
    workload: Workload,
    pipeline: SerPipeline,
    campaigns: Vec<CampaignConfig>,
    service: Option<CampaignService>,
    scratch: Option<ScratchDir>,
}

impl Context {
    /// The pipeline configuration the pass runs.
    pub fn config(&self) -> &PipelineConfig {
        self.pipeline.config()
    }
}

/// Builds a pass's context: configuration, pipeline and array, and for
/// the campaign workload a scratch directory and a started service.
/// `tag` gives every context a fresh scratch directory, so no pass
/// can resume from a checkpoint an earlier pass left behind.
///
/// # Errors
///
/// A message when the array is empty or the scratch directory cannot be
/// created.
pub fn setup(workload: Workload, seed: u64, tag: usize) -> Result<Context, String> {
    let config = workload.config(seed);
    let pipeline = SerPipeline::new(config.clone());
    let footprint = pipeline.build_array().footprint();
    if footprint.square_meters() <= 0.0 {
        return Err("the array has no footprint".into());
    }
    let mut ctx = Context {
        workload,
        pipeline,
        campaigns: Vec::new(),
        service: None,
        scratch: None,
    };
    if workload == Workload::CampaignResume {
        let scratch = ScratchDir::create(tag).map_err(|e| format!("scratch dir: {e}"))?;
        ctx.campaigns = CAMPAIGN_POINTS
            .iter()
            .map(|&(particle, vdd)| {
                CampaignConfig::new(config.clone(), particle, Voltage::from_volts(vdd))
            })
            .collect();
        ctx.service = Some(CampaignService::start(ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..ServiceConfig::default()
        }));
        ctx.scratch = Some(scratch);
    }
    Ok(ctx)
}

fn particle_name(p: Particle) -> &'static str {
    match p {
        Particle::Alpha => "alpha",
        Particle::Proton => "proton",
    }
}

fn point_label(p: Particle, vdd: f64) -> String {
    format!("{}@{vdd:.2}V", particle_name(p))
}

/// Runs one pass of the workload's operations. An untraced sweep pass
/// calls the program's own `VddSweep::run`; a traced one makes the same
/// layer calls one by one, each in a span.
pub fn run_pass(ctx: &Context, tracer: &Tracer) -> PassOutput {
    match ctx.workload {
        Workload::Fig9Sweep | Workload::NominalLut if tracer.is_on() => {
            traced_sweep_pass(ctx, tracer)
        }
        Workload::Fig9Sweep | Workload::NominalLut => sweep_pass(ctx),
        Workload::CampaignResume => campaign_pass(ctx, tracer),
    }
}

const PARTICLES: [Particle; 2] = [Particle::Alpha, Particle::Proton];

fn op(particle: Particle, vdd: f64, output: Result<Output, String>) -> Op {
    Op {
        label: point_label(particle, vdd),
        particle,
        vdd,
        output,
    }
}

fn sweep_pass(ctx: &Context) -> PassOutput {
    let vdds: Vec<Voltage> = VDD_SWEEP.iter().map(|&v| Voltage::from_volts(v)).collect();
    let sweep = VddSweep::run(&ctx.pipeline, &vdds);
    let mut out = PassOutput::default();
    for (k, &vdd) in VDD_SWEEP.iter().enumerate() {
        for particle in PARTICLES {
            let output = match &sweep {
                Ok(s) => {
                    let point = &s.points()[k];
                    let report = match particle {
                        Particle::Alpha => &point.alpha,
                        Particle::Proton => &point.proton,
                    };
                    Ok(Output::Pipeline(report.clone()))
                }
                Err(e) => Err(format!("sweep failed: {e}")),
            };
            out.ops.push(op(particle, vdd, output));
        }
    }
    out
}

/// The reports of one V_dd point through the decomposed flow, each with
/// its counting error.
fn decomposed_point(ctx: &Context, vdd_v: f64, tracer: &Tracer) -> Vec<Op> {
    let vdd = Voltage::from_volts(vdd_v);
    let table = tracer.span(layer::SRAM, || ctx.pipeline.build_pof_table(vdd));
    PARTICLES
        .into_iter()
        .map(|particle| {
            let output = match &table {
                Ok(t) => Ok(Output::Flow(flow::report(
                    &ctx.pipeline,
                    particle,
                    vdd,
                    t,
                    tracer,
                ))),
                Err(e) => Err(format!("characterization failed: {e}")),
            };
            op(particle, vdd_v, output)
        })
        .collect()
}

fn traced_sweep_pass(ctx: &Context, tracer: &Tracer) -> PassOutput {
    PassOutput {
        ops: VDD_SWEEP
            .iter()
            .flat_map(|&vdd| decomposed_point(ctx, vdd, tracer))
            .collect(),
        ..PassOutput::default()
    }
}

/// Pauses a campaign at half its bins, reads the checkpoint back, and
/// resumes it to completion.
fn paused_and_resumed(
    cfg: &CampaignConfig,
    path: PathBuf,
    tracer: &Tracer,
    bytes: &mut u64,
) -> Result<Output, String> {
    let total = cfg.pipeline.energy_bins;
    let mut c = cfg.clone();
    c.checkpoint_path = Some(path.clone());
    c.max_bins_per_run = Some(total / 2);
    let paused = tracer.span(layer::CAMPAIGN_RUN, || CampaignRunner::new(c.clone()).run());
    match paused {
        Ok(CampaignStatus::Paused { completed, .. }) if completed == total / 2 => {}
        Ok(CampaignStatus::Paused { completed, .. }) => {
            return Err(format!("paused after {completed} bins, not {}", total / 2))
        }
        Ok(CampaignStatus::Complete(_)) => return Err("run did not pause".into()),
        Err(e) => return Err(format!("run failed: {e}")),
    }
    let ck = tracer
        .span(layer::CHECKPOINT_LOAD, || Checkpoint::load(&path))
        .map_err(|e| format!("checkpoint load failed: {e}"))?;
    if ck.bins.len() != total / 2
        || ck.total_bins != total
        || ck.fingerprint != config_fingerprint(&c.pipeline, c.particle, c.vdd)
    {
        return Err("the paused checkpoint does not describe the campaign".into());
    }
    *bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    c.max_bins_per_run = None;
    match tracer.span(layer::CAMPAIGN_RESUME, || CampaignRunner::new(c).resume()) {
        Ok(CampaignStatus::Complete(report)) => Ok(Output::Campaign(Arc::new(*report))),
        Ok(CampaignStatus::Paused { .. }) => Err("resume paused again".into()),
        Err(e) => Err(format!("resume failed: {e}")),
    }
}

/// Submits every campaign, then waits for each; returns the ops and
/// each job's submit-to-result seconds.
fn service_round(
    service: &CampaignService,
    campaigns: &[CampaignConfig],
    scratch: &ScratchDir,
    prefix: &str,
) -> (Vec<Op>, Vec<f64>) {
    let submitted: Vec<(JobId, Instant)> = campaigns
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let mut c = cfg.clone();
            c.checkpoint_path = Some(scratch.file(&format!("service-{i}.ck")));
            (service.submit(c), Instant::now())
        })
        .collect();
    let mut ops = Vec::with_capacity(campaigns.len());
    let mut seconds = Vec::with_capacity(campaigns.len());
    for ((id, at), cfg) in submitted.into_iter().zip(campaigns) {
        let result = service.wait(id);
        seconds.push(at.elapsed().as_secs_f64());
        ops.push(Op {
            label: format!("{prefix} {}", point_label(cfg.particle, cfg.vdd.volts())),
            particle: cfg.particle,
            vdd: cfg.vdd.volts(),
            output: result
                .map(Output::Campaign)
                .map_err(|e| format!("job {id} failed: {e}")),
        });
    }
    (ops, seconds)
}

fn campaign_pass(ctx: &Context, tracer: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let (Some(service), Some(scratch)) = (&ctx.service, &ctx.scratch) else {
        return out;
    };
    for (i, cfg) in ctx.campaigns.iter().enumerate() {
        let path = scratch.file(&format!("runner-{i}.ck"));
        let output = paused_and_resumed(cfg, path, tracer, &mut out.checkpoint_bytes);
        out.ops.push(Op {
            label: format!("runner {}", point_label(cfg.particle, cfg.vdd.volts())),
            particle: cfg.particle,
            vdd: cfg.vdd.volts(),
            output,
        });
    }
    let (ops, secs) = tracer.span(layer::SERVICE, || {
        service_round(service, &ctx.campaigns, scratch, "service")
    });
    out.ops.extend(ops);
    out.job_seconds = secs;
    let (ops, secs) = tracer.span(layer::SERVICE_CACHE, || {
        service_round(service, &ctx.campaigns, scratch, "cached")
    });
    out.ops.extend(ops);
    out.cache_hit_seconds = secs;
    out
}

/// What the checks of a first pass found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Failure reason of each op (aligned with the pass's ops).
    pub failures: Vec<Option<String>>,
    /// Largest relative standard error of any reported FIT.
    pub fit_rel_err: f64,
}

fn fail(failures: &mut [Option<String>], i: usize, why: String) {
    if failures[i].is_none() {
        failures[i] = Some(why);
    }
}

/// Checks a pass's outputs: errors, finite FIT with seu + mbu = total,
/// the workload's own invariants, and — at the default seed — the FIT
/// recorded at the reference commit. Every report is also recomputed
/// through the decomposed flow, which gives its counting error and must
/// match it bit for bit. Runs untimed.
pub fn check(ctx: &Context, pass: &PassOutput) -> Checked {
    let ops = &pass.ops;
    let mut failures: Vec<Option<String>> = ops
        .iter()
        .map(|op| op.output.as_ref().err().cloned())
        .collect();
    for (i, op) in ops.iter().enumerate() {
        if let Ok(out) = &op.output {
            let f = out.fit();
            let tol = 1e-9 * f.total.abs() + 1e-300;
            if !f.total.is_finite() || f.total < 0.0 {
                fail(
                    &mut failures,
                    i,
                    format!("FIT {} is not finite and >= 0", f.total),
                );
            } else if (f.seu + f.mbu - f.total).abs() > tol {
                fail(
                    &mut failures,
                    i,
                    format!("seu {} + mbu {} != total {}", f.seu, f.mbu, f.total),
                );
            }
        }
    }
    // The reports whose counting error is known, by op index.
    let mut sigma_reports: Vec<(usize, Report)> = Vec::new();
    match ctx.workload {
        Workload::Fig9Sweep | Workload::NominalLut => {
            check_decomposition(ctx, pass, &mut failures, &mut sigma_reports);
            if ctx.workload == Workload::Fig9Sweep {
                check_fig9_trends(ops, &mut failures);
            }
        }
        Workload::CampaignResume => check_campaigns(ctx, pass, &mut failures, &mut sigma_reports),
    }
    let seed = ctx.pipeline.config().seed;
    let mut fit_rel_err: f64 = 0.0;
    for (i, r) in &sigma_reports {
        fit_rel_err = fit_rel_err.max(r.relative_error());
        if seed != reference::DEFAULT_SEED {
            continue;
        }
        let op = &ops[*i];
        match reference::fit_total(ctx.workload, &op.label) {
            Some(expected) => {
                let tol = reference::SIGMAS * r.sigma.total;
                if (r.fit.total - expected).abs() > tol {
                    fail(
                        &mut failures,
                        *i,
                        format!(
                            "FIT {} is more than {} sigma from the reference {expected}",
                            r.fit.total,
                            reference::SIGMAS
                        ),
                    );
                }
            }
            None => fail(&mut failures, *i, "no reference FIT recorded".into()),
        }
    }
    Checked {
        failures,
        fit_rel_err,
    }
}

/// Recomputes every report through the decomposed flow, untimed; each
/// must equal the pass's report bit for bit.
fn check_decomposition(
    ctx: &Context,
    pass: &PassOutput,
    failures: &mut [Option<String>],
    sigma_reports: &mut Vec<(usize, Report)>,
) {
    for &vdd in &VDD_SWEEP {
        for twin in decomposed_point(ctx, vdd, &Tracer::off()) {
            let Some(i) = pass.ops.iter().position(|o| o.label == twin.label) else {
                continue;
            };
            match (twin.output, &pass.ops[i].output) {
                (Ok(Output::Flow(r)), Ok(out)) => {
                    if !Output::Flow(r.clone()).identical(out) {
                        fail(failures, i, "differs from the decomposed flow".into());
                    }
                    sigma_reports.push((i, r));
                }
                (Err(e), _) => fail(failures, i, format!("decomposed flow: {e}")),
                _ => {}
            }
        }
    }
}

/// Fig. 9's shape: FIT rises as V_dd falls for both particles, and the
/// proton FIT falls faster with V_dd than the alpha FIT.
fn check_fig9_trends(ops: &[Op], failures: &mut [Option<String>]) {
    let fit_of = |particle: Particle| -> Vec<(usize, f64)> {
        ops.iter()
            .enumerate()
            .filter(|(_, op)| op.particle == particle)
            .filter_map(|(i, op)| op.output.as_ref().ok().map(|o| (i, o.fit().total)))
            .collect()
    };
    let alpha = fit_of(Particle::Alpha);
    let proton = fit_of(Particle::Proton);
    for series in [&alpha, &proton] {
        for w in series.windows(2) {
            if w[1].1 >= w[0].1 {
                fail(
                    failures,
                    w[1].0,
                    format!(
                        "FIT {} does not fall below {} as V_dd rises",
                        w[1].1, w[0].1
                    ),
                );
            }
        }
    }
    let n = VDD_SWEEP.len();
    if alpha.len() == n && proton.len() == n {
        let alpha_fall = alpha[0].1 / alpha[n - 1].1;
        let proton_fall = proton[0].1 / proton[n - 1].1;
        // A NaN ratio fails too.
        if proton_fall.partial_cmp(&alpha_fall) != Some(std::cmp::Ordering::Greater) {
            fail(
                failures,
                proton[n - 1].0,
                format!("proton FIT falls {proton_fall}x over the sweep, alpha {alpha_fall}x"),
            );
        }
    }
}

/// Campaign checks: the flow's report equals `SerPipeline::run`, the
/// runner's resumed report and the service's report equal the flow's
/// report bit for bit, and a cache answer equals the service's report.
fn check_campaigns(
    ctx: &Context,
    pass: &PassOutput,
    failures: &mut [Option<String>],
    sigma_reports: &mut Vec<(usize, Report)>,
) {
    let n = ctx.campaigns.len();
    for (c, cfg) in ctx.campaigns.iter().enumerate() {
        let pipeline = SerPipeline::new(cfg.pipeline.clone());
        let reference = match pipeline.build_pof_table(cfg.vdd) {
            Ok(t) => flow::report(&pipeline, cfg.particle, cfg.vdd, &t, &Tracer::off()),
            Err(e) => {
                for i in [c, n + c, 2 * n + c] {
                    if i < failures.len() {
                        fail(
                            failures,
                            i,
                            format!("reference characterization failed: {e}"),
                        );
                    }
                }
                continue;
            }
        };
        match pipeline.run(cfg.particle, cfg.vdd) {
            Ok(direct) if reference.matches_pipeline(&direct) => {}
            Ok(_) => fail(failures, c, "flow differs from SerPipeline::run".into()),
            Err(e) => fail(failures, c, format!("SerPipeline::run failed: {e}")),
        }
        for i in [c, n + c, 2 * n + c] {
            let Some(op) = pass.ops.get(i) else {
                continue;
            };
            if let Ok(Output::Campaign(report)) = &op.output {
                if !reference.matches_campaign(report) {
                    fail(failures, i, "differs from the decomposed flow".into());
                }
            }
        }
        if let (Some(Ok(service)), Some(Ok(cached))) = (
            pass.ops.get(n + c).map(|o| &o.output),
            pass.ops.get(2 * n + c).map(|o| &o.output),
        ) {
            if !service.identical(cached) {
                fail(
                    failures,
                    2 * n + c,
                    "the cache answer differs from the computed report".into(),
                );
            }
        }
        sigma_reports.push((c, reference));
    }
}
