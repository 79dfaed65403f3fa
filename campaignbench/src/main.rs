//! The campaign benchmark.
//!
//! ```text
//! ugc-campaignbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!                   [--scratch <dir>] [--commit <id>] [--source <digest>]
//! ```
//!
//! Runs one canonical grid campaign back to back for `--seconds` through
//! the public `ugc-core` API (closed loop, one campaign in flight, the
//! host's core count as scheduler workers) and prints every end-to-end
//! metric by name and unit. With `--trace 1` the same process first runs
//! the campaign untraced for half the time, then traced through the
//! wrappers in [`traced`] for the other half, and prints the per-layer
//! metrics instead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every campaign is checked: honest members accepted, planted cheaters
//! rejected, the summary digest identical across every campaign of the
//! run, across a one-worker reference campaign and across the traced
//! run; on `cbs_paper` the supervisor's op counts and bytes are checked
//! against the paper's cost model. Any failure exits non-zero.

#![forbid(unsafe_code)]

mod clock;
mod host;
mod metrics;
mod trace;
mod traced;
mod workload;

use metrics::{Figures, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use traced::{TracedBackend, TracedScheme, TracedSha256, TracedTask};
use ugc_core::{InProcessBackend, VerificationScheme};
use ugc_hash::Sha256;
use workload::{Inputs, Workload};

/// Fewest set-up repetitions per run, and the least time they take;
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(1);
/// Fewest timed campaigns per phase, so the tail percentile (ten
/// campaigns beyond it) always exists.
const MIN_CAMPAIGNS: usize = 11;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    commit: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scratch = PathBuf::from(".bench_build/campaignbench");
    let mut commit = "unknown".to_string();
    let mut source = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--commit" => commit = value,
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
        scratch,
        commit,
        source,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let result = run(&args, &mut report);
    if let Err(e) = &result {
        eprintln!("error: {e}");
        report.failed += 1;
        report.metrics.clear();
    }
    println!("{}", report.json(result.is_ok()));
    if result.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let workers = host::nproc();
    println!(
        "host: nproc {workers}, cpu {:?}, calibration {:.3} ms, commit {}, source {}",
        host::cpu_model(),
        host::calibration_ms(),
        args.commit,
        args.source
    );
    println!(
        "workload {} seed {} seconds {} trace {} workers {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let journal_path = args.scratch.join("campaign.wal");
    let journal = (args.workload == Workload::DurableFleet).then_some(journal_path.as_path());

    // Set-up: plan expansion, roster, journal creation and one cold,
    // untimed campaign — repeated, reporting the median.
    let mut setup_s = Vec::new();
    let setup_start = clock::now();
    let mut kept: Option<(Inputs, workload::Campaign)> = None;
    while setup_s.len() < SETUP_REPS || setup_start.elapsed() < SETUP_MIN {
        let start = clock::now();
        let inputs = Inputs::generate(args.workload, args.seed, workers);
        let cold = {
            let schemes = inputs.schemes::<Sha256>();
            let refs: Vec<&dyn VerificationScheme<Sha256>> =
                schemes.iter().map(|s| s.as_ref()).collect();
            workload::run(
                &inputs,
                &inputs.members(&refs),
                &inputs.task,
                &inputs.config(0),
                &mut InProcessBackend::new(inputs.transport()),
                journal,
            )?
        };
        setup_s.push(start.elapsed().as_secs_f64());
        report.attempted += 1;
        workload::check_verdicts(&inputs, &cold.summary)?;
        if let Some((_, first)) = &kept {
            if first.digest != cold.digest {
                return Err(format!(
                    "set-up campaigns disagree: digest {} then {}",
                    first.digest, cold.digest
                ));
            }
        }
        kept = Some((inputs, cold));
    }
    let (inputs, cold) = kept.expect("at least one set-up");
    checks_once(&inputs, &cold)?;
    let mut digests = vec![None; inputs.plans()];
    digests[0] = Some(cold.digest.clone());

    let plain_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = timed_phase(&inputs, plain_seconds, journal, &mut digests, report, false)?;

    // The one-worker reference: worker count is execution layout, never
    // campaign identity.
    let schemes = inputs.schemes::<Sha256>();
    let refs: Vec<&dyn VerificationScheme<Sha256>> = schemes.iter().map(|s| s.as_ref()).collect();
    let members = inputs.members(&refs);
    let mut one_worker = inputs.config(0);
    one_worker.workers = Some(1);
    let reference = workload::run(
        &inputs,
        &members,
        &inputs.task,
        &one_worker,
        &mut InProcessBackend::new(inputs.transport()),
        journal,
    )?;
    report.attempted += 1;
    if Some(&reference.digest) != digests[0].as_ref() {
        return Err(format!(
            "one-worker reference digest {} differs from the run's {:?}",
            reference.digest, digests[0]
        ));
    }

    if args.trace {
        let traced = timed_phase(
            &inputs,
            args.seconds / 2.0,
            journal,
            &mut digests,
            report,
            true,
        )?;
        metrics::per_layer(report, &plain, &traced, &args.scratch, journal)?;
    } else {
        metrics::end_to_end(report, &plain, metrics::median(&mut setup_s));
    }
    println!(
        "digests (every campaign of each fault schedule, the one-worker reference{}): {}",
        if args.trace { ", the traced run" } else { "" },
        digests
            .iter()
            .flatten()
            .cloned()
            .collect::<Vec<_>>()
            .join(" ")
    );
    report.print_human();
    Ok(())
}

/// The checks that need only one campaign: the cheater survival bound
/// and, on `cbs_paper`, the paper's cost model.
fn checks_once(inputs: &Inputs, cold: &workload::Campaign) -> Result<(), String> {
    let survival = inputs.survival_chance();
    println!(
        "roster: {} members over {} slots, {} planted cheater(s), closed-form survival \
         {survival:.3e} per campaign, {} fault schedule(s)",
        inputs.member_count(),
        inputs.slot_count(),
        inputs.cheaters(),
        inputs.plans()
    );
    if survival >= workload::SURVIVAL_LIMIT {
        return Err(format!(
            "closed-form cheater survival {survival:e} is not below {:e}",
            workload::SURVIVAL_LIMIT
        ));
    }
    if inputs.workload == Workload::CbsPaper {
        metrics::check_cbs_cost_model(inputs, &cold.summary)?;
    }
    Ok(())
}

/// Runs campaigns back to back for `seconds`, and at least until every
/// fault schedule ran and the tail percentile exists, untraced or traced,
/// checking each.
fn timed_phase(
    inputs: &Inputs,
    seconds: f64,
    journal: Option<&Path>,
    digests: &mut [Option<String>],
    report: &mut Report,
    traced: bool,
) -> Result<Figures, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut figures = Figures::default();
    let cpu_start = host::cpu_seconds();
    let start = clock::now();
    let more = |figures: &Figures| {
        start.elapsed() < budget || figures.campaigns() < MIN_CAMPAIGNS || !figures.covered(inputs)
    };
    if traced {
        let schemes: Vec<TracedScheme<TracedSha256>> = inputs
            .schemes::<TracedSha256>()
            .into_iter()
            .map(TracedScheme)
            .collect();
        let refs: Vec<&dyn VerificationScheme<TracedSha256>> = schemes
            .iter()
            .map(|s| s as &dyn VerificationScheme<TracedSha256>)
            .collect();
        let members = inputs.members(&refs);
        let task = TracedTask(&inputs.task);
        trace::enable();
        while more(&figures) {
            let first = figures.campaigns() == 0;
            if first {
                trace::start_capture();
            }
            let campaign = workload::run(
                inputs,
                &members,
                &task,
                &inputs.config(figures.campaigns()),
                &mut TracedBackend(InProcessBackend::new(inputs.transport())),
                journal,
            )?;
            if first {
                figures.capture = trace::take_capture();
                figures.capture_sessions = campaign.summary.throughput.sessions;
            }
            report.attempted += 1;
            figures.add(inputs, &campaign, digests)?;
            if figures.counts.is_none() && figures.covered(inputs) {
                figures.counts = Some(trace::Counts::now());
            }
        }
    } else {
        let schemes = inputs.schemes::<Sha256>();
        let refs: Vec<&dyn VerificationScheme<Sha256>> =
            schemes.iter().map(|s| s.as_ref()).collect();
        let members = inputs.members(&refs);
        while more(&figures) {
            let campaign = workload::run(
                inputs,
                &members,
                &inputs.task,
                &inputs.config(figures.campaigns()),
                &mut InProcessBackend::new(inputs.transport()),
                journal,
            )?;
            report.attempted += 1;
            figures.add(inputs, &campaign, digests)?;
        }
    }
    figures.wall_s = start.elapsed().as_secs_f64();
    figures.cpu_s = match (cpu_start, host::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        // Without /proc, CPU time falls back to wall time.
        _ => figures.wall_s,
    };
    Ok(figures)
}
