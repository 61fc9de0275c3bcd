//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_sweep --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! With `--trace 0` the workload's passes run untraced and the result
//! holds the end-to-end metrics; with `--trace 1` untraced passes are
//! followed by traced ones and the result holds the per-layer metrics.
//! The last line of standard output is the result object
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use finrad_observe::{json_number, json_string};
use finrad_perfbench::host::{usage, HostFacts};
use finrad_perfbench::metrics::{self, CounterDelta, Metric, END_TO_END, PER_LAYER};
use finrad_perfbench::stats::{median, overhead, quartiles};
use finrad_perfbench::trace::Tracer;
use finrad_perfbench::workloads::{self, Checked, Context, Output, PassOutput, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <fig9_sweep|nominal_lut|campaign_resume> \
                     --seed <n> --seconds <s> --trace <0|1> | --manifest";

/// Set-ups timed in a burst before every pass and once more after the
/// last; `setup_s` is the median of all of them. A set-up takes
/// microseconds, and its speed follows the host's from one second to the
/// next, so the bursts are spread over the run instead of taken at once.
const SETUP_BURST: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Manifest,
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = finrad_perfbench::reference::DEFAULT_SEED;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            return Ok(Command::Manifest);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Failure accounting over every pass of a run.
struct Ledger {
    first: Option<(PassOutput, Checked)>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Checks the first pass in full; every later pass, traced or not,
    /// must reproduce the first pass's outputs bit for bit.
    fn account(&mut self, ctx: &Context, pass: PassOutput) {
        self.attempted += pass.ops.len() as u64;
        let Some((first, _)) = &self.first else {
            let checked = workloads::check(ctx, &pass);
            for (op, why) in pass.ops.iter().zip(&checked.failures) {
                if let Some(why) = why {
                    println!("FAILED {}: {why}", op.label);
                }
            }
            self.failed += checked.failures.iter().filter(|f| f.is_some()).count() as u64;
            self.first = Some((pass, checked));
            return;
        };
        for (i, op) in pass.ops.iter().enumerate() {
            let same = match (first.ops.get(i).map(|o| &o.output), &op.output) {
                (Some(Ok(a)), Ok(b)) => a.identical(b),
                _ => false,
            };
            if !same {
                println!("FAILED {}: differs from the first pass", op.label);
                self.failed += 1;
            }
        }
        if pass.ops.len() < first.ops.len() {
            self.failed += (first.ops.len() - pass.ops.len()) as u64;
        }
    }
}

fn print_ops(pass: &PassOutput) {
    for op in &pass.ops {
        match &op.output {
            Ok(Output::Pipeline(r)) => println!(
                "op {:<24} FIT {:e} (seu {:.6e}, mbu {:.6e})",
                op.label, r.fit_total, r.fit_seu, r.fit_mbu
            ),
            Ok(Output::Flow(r)) => println!(
                "op {:<24} FIT {:e} ± {:.3e} (seu {:.6e}, mbu {:.6e})",
                op.label, r.fit.total, r.sigma.total, r.fit.seu, r.fit.mbu
            ),
            Ok(Output::Campaign(c)) => println!(
                "op {:<24} FIT {:e} (seu {:.6e}, mbu {:.6e})",
                op.label, c.fit.total, c.fit.seu, c.fit.mbu
            ),
            Err(e) => println!("op {:<24} error: {e}", op.label),
        }
    }
}

fn result_json(
    correct: bool,
    ledger: &Ledger,
    defs: &[Metric],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(v),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let mut setups = Vec::new();
    let mut tag = 0;
    // Times a burst of set-ups and keeps the last context for a pass.
    let mut setup_burst = || -> Result<Context, String> {
        let mut timed = || {
            let t = Instant::now();
            let ctx = workloads::setup(args.workload, args.seed, tag);
            setups.push(t.elapsed().as_secs_f64());
            tag += 1;
            ctx
        };
        let mut ctx = timed()?;
        for _ in 1..SETUP_BURST {
            drop(ctx);
            ctx = timed()?;
        }
        Ok(ctx)
    };
    let mut ledger = Ledger {
        first: None,
        attempted: 0,
        failed: 0,
    };

    // Untraced passes: the end-to-end metrics.
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while walls.iter().sum::<f64>() < untraced_budget {
        let ctx = setup_burst()?;
        let before = usage();
        let t = Instant::now();
        let pass = workloads::run_pass(&ctx, &Tracer::off());
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(usage().cpu_seconds - before.cpu_seconds);
        println!(
            "pass {} untraced wall {:.4} s cpu {:.4} s",
            walls.len(),
            walls[walls.len() - 1],
            cpus[cpus.len() - 1]
        );
        if ledger.first.is_none() {
            print_ops(&pass);
        }
        ledger.account(&ctx, pass);
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let defs = if args.trace {
        // Traced passes: the per-layer metrics, with the observe counters
        // scraped through the in-memory recorder.
        let recorder = finrad_observe::install_in_memory().map_err(|e| e.to_string())?;
        let mut traced_walls = Vec::new();
        let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        while traced_walls.iter().sum::<f64>() < args.seconds - untraced_budget {
            let ctx = setup_burst()?;
            let tracer = Tracer::on();
            let before = recorder.snapshot();
            let t = Instant::now();
            let pass = workloads::run_pass(&ctx, &tracer);
            let wall = t.elapsed().as_secs_f64();
            let after = recorder.snapshot();
            traced_walls.push(wall);
            println!("pass {} traced wall {wall:.4} s", traced_walls.len());
            let delta = CounterDelta {
                before: &before,
                after: &after,
            };
            let layers = metrics::layer_metrics(&pass, &tracer.take(), &delta, wall, ctx.config());
            for (name, v) in layers {
                per_pass.entry(name).or_default().push(v);
            }
            ledger.account(&ctx, pass);
        }
        for (name, vs) in &per_pass {
            values.insert(name, median(vs));
        }
        values.insert(
            "trace.overhead",
            overhead(median(&traced_walls), median(&walls)),
        );
        PER_LAYER
    } else {
        drop(setup_burst()?);
        let fit_rel_err = ledger
            .first
            .as_ref()
            .map_or(f64::NAN, |(_, c)| c.fit_rel_err);
        for (name, samples) in [("run_s", &walls), ("setup_s", &setups), ("cpu_s", &cpus)] {
            values.insert(name, median(samples));
            if let Some([q1, _, q3]) = quartiles(samples) {
                println!("samples {name} n {} q1 {q1:.6} q3 {q3:.6}", samples.len());
            }
        }
        values.insert("peak_rss_mb", usage().peak_rss_mb);
        values.insert("fit_rel_err", fit_rel_err);
        END_TO_END
    };
    for m in defs {
        println!(
            "metric {:<28} {:>16} {}",
            m.name,
            values.get(m.name).map_or("-".into(), |v| format!("{v:.6}")),
            m.unit
        );
    }
    let finite = defs
        .iter()
        .all(|m| values.get(m.name).is_some_and(|v| v.is_finite()));
    let correct = ledger.failed == 0 && ledger.attempted > 0 && finite;
    Ok(result_json(correct, &ledger, defs, &values))
}

fn main() {
    let args = match parse_args() {
        Ok(Command::Manifest) => {
            print!("{}", metrics::manifest_json());
            return;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = HostFacts::detect();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.to_json());
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
