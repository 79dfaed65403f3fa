//! Scheduler equivalence: the poll-driven `GridScheduler` execution
//! model must reproduce, bit for bit, the campaigns the earlier
//! thread-per-participant runtime (one OS thread per participant slot)
//! produced — same seed and chaos plan in, same `FaultLog`, verdicts and
//! `CostLedger` axes out — for all five schemes, over both transports,
//! at any worker-pool size *and any work-stealing seed*. That runtime is
//! gone; its campaigns survive as the `summary_digest` goldens below,
//! recorded from it before it was removed.
//!
//! This is the replay-digest property the event-driven refactor rests
//! on: fault decisions are a pure function of `(seed, link, direction,
//! seq)` and each link carries exactly one session's protocol sequence,
//! so no interleaving — OS threads, a 4-worker run-queue, or a stolen
//! batch landing on another worker's queue — can change what any
//! participant observes. The work-stealing victim order (PR 8) and the
//! batched message stepping it schedules are exercised here explicitly:
//! sweeping `steal_seed` permutes which worker polls which session
//! without moving a single digest bit.

use std::time::Duration;
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    run_mixed_fleet, summary_digest, FleetSummary, FleetTransport, MemberSpec, MixedFleetConfig,
};
use uncheatable_grid::grid::runtime::FaultPlan;
use uncheatable_grid::grid::{
    CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{AcceptAllScreener, Domain, ZeroGuesser};

/// `summary_digest`s of the chaos campaign below, recorded from the
/// thread-per-participant runtime: `(transport, chaos seed, digest)`.
/// The digest covers verdicts, attempts, per-session supervisor traffic,
/// every `CostLedger` axis and the injected-fault log (wall-clock
/// throughput is real time and deliberately excluded).
const GOLDEN_CHAOS: [(FleetTransport, u64, &str); 4] = [
    (
        FleetTransport::Brokered,
        0xC4A05,
        "871f116a90ff6ea370dd930736b268616651debd1b3d670fa3a6ec01fc8161bf",
    ),
    (
        FleetTransport::Brokered,
        0x5EED5,
        "6d9c55768b571593f138fc2a98230ac4bd5817ea5432eaa75afcf201d7fe84cb",
    ),
    (
        FleetTransport::Brokered,
        42,
        "1b7357f1a70369de6aae01106f2c14d3ca2b9d98122bf393e4ebe528ff2edbe8",
    ),
    (
        FleetTransport::Direct,
        0xD12EC7,
        "de06b96212ecc68019d75c3fcd6aab124fd360720902a301af4ef33c375c83a8",
    ),
];

/// The quiet (chaos-free) fleet's `summary_digest`, recorded from the
/// thread-per-participant runtime.
const GOLDEN_QUIET: &str = "0be36f60790f1e59840cbc4cb384dcc97b9b6f4e709809e02ab57d94dbe16803";

/// The recorded digest of the chaos campaign for `(transport, seed)`.
fn golden(transport: FleetTransport, chaos_seed: u64) -> &'static str {
    GOLDEN_CHAOS
        .iter()
        .find(|(t, seed, _)| *t == transport && *seed == chaos_seed)
        .map(|(_, _, digest)| *digest)
        .unwrap_or_else(|| panic!("no golden for {transport:?} seed {chaos_seed:#x}"))
}

struct Schemes {
    cbs: CbsScheme,
    ni: NiCbsScheme,
    naive: NaiveScheme,
    ringer: RingerScheme,
    double_check: DoubleCheckScheme,
}

impl Schemes {
    fn new(seed: u64) -> Self {
        Schemes {
            cbs: CbsScheme {
                samples: 16,
                seed: seed ^ 11,
                report_audit: 2,
            },
            ni: NiCbsScheme {
                samples: 16,
                g_iterations: 2,
                report_audit: 0,
                audit_seed: seed ^ 13,
            },
            naive: NaiveScheme {
                samples: 16,
                seed: seed ^ 14,
            },
            ringer: RingerScheme {
                ringers: 6,
                seed: seed ^ 15,
            },
            double_check: DoubleCheckScheme,
        }
    }
}

/// One member per scheme plus a cheating CBS member: 7 participant slots
/// covering every scheme's dialogue shape, honest and dishonest.
fn members<'a>(
    schemes: &'a Schemes,
    honest: &'a HonestWorker,
    lazy: &'a SemiHonestCheater<ZeroGuesser>,
    malicious: &'a MaliciousWorker,
) -> Vec<MemberSpec<'a, Sha256>> {
    vec![
        MemberSpec {
            scheme: &schemes.cbs,
            behaviours: vec![honest as &dyn WorkerBehaviour],
        },
        MemberSpec {
            scheme: &schemes.ni,
            behaviours: vec![honest],
        },
        MemberSpec {
            scheme: &schemes.naive,
            behaviours: vec![honest],
        },
        MemberSpec {
            scheme: &schemes.ringer,
            behaviours: vec![honest],
        },
        MemberSpec {
            scheme: &schemes.double_check,
            behaviours: vec![honest, honest],
        },
        MemberSpec {
            scheme: &schemes.cbs,
            behaviours: vec![lazy],
        },
        // The report audit (report_audit: 2 on the CBS scheme) is what
        // catches a malicious worker that computes f honestly but
        // corrupts what it screens.
        MemberSpec {
            scheme: &schemes.cbs,
            behaviours: vec![malicious],
        },
    ]
}

fn campaign(chaos_seed: u64, transport: FleetTransport, workers: Option<usize>) -> FleetSummary {
    campaign_stealing(chaos_seed, transport, workers, 0)
}

fn campaign_stealing(
    chaos_seed: u64,
    transport: FleetTransport,
    workers: Option<usize>,
    steal_seed: u64,
) -> FleetSummary {
    let task = PasswordSearch::with_hidden_password(7, 3);
    let screener = AcceptAllScreener;
    let honest = HonestWorker;
    let lazy = SemiHonestCheater::new(0.2, CheatSelection::Scattered, ZeroGuesser::new(4), 9);
    let malicious = MaliciousWorker::new(1.0, 5);
    let schemes = Schemes::new(chaos_seed);
    let specs = members(&schemes, &honest, &lazy, &malicious);
    let slots: usize = specs.iter().map(|m| m.behaviours.len()).sum();
    assert_eq!(slots, 8);
    run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, specs.len() as u64 * 64),
        &specs,
        &MixedFleetConfig {
            transport,
            chaos: Some(FaultPlan::chaos(chaos_seed).with_churn(150)),
            deadline: Some(Duration::from_secs(20)),
            retries: 8,
            workers,
            steal_seed,
            ..MixedFleetConfig::default()
        },
    )
    .expect("the campaign must converge within the retry budget")
}

/// The tentpole property, brokered: the scheduler at
/// `workers ∈ {1, 4, 8}` reproduces the thread-per-participant
/// runtime's fault log, verdicts and ledgers — across several chaos
/// seeds.
#[test]
fn brokered_scheduler_matches_thread_per_participant_at_any_pool_size() {
    for chaos_seed in [0xC4A05, 0x5EED5, 42] {
        let reference = golden(FleetTransport::Brokered, chaos_seed);
        for workers in [1, 4, 8] {
            let scheduled = summary_digest(&campaign(
                chaos_seed,
                FleetTransport::Brokered,
                Some(workers),
            ));
            assert_eq!(
                reference, scheduled,
                "seed {chaos_seed:#x}: {workers}-worker scheduler diverged from the \
                 thread-per-participant golden"
            );
        }
    }
}

/// The same property over direct per-participant links (no broker):
/// the engine's transport must not matter to the equivalence.
#[test]
fn direct_scheduler_matches_thread_per_participant() {
    let chaos_seed = 0xD12EC7;
    let reference = golden(FleetTransport::Direct, chaos_seed);
    for workers in [1, 4, 8] {
        let scheduled =
            summary_digest(&campaign(chaos_seed, FleetTransport::Direct, Some(workers)));
        assert_eq!(
            reference, scheduled,
            "{workers}-worker scheduler diverged over direct links"
        );
    }
}

/// The PR 8 property: the work-stealing victim order is scheduling-only.
/// Sweeping the steal seed at several pool sizes — over both transports —
/// permutes which worker polls which session (and which stolen batches
/// land where) without moving a digest bit relative to the
/// thread-per-participant golden.
#[test]
fn steal_seed_never_reaches_digests() {
    for (chaos_seed, transport) in [
        (0xC4A05u64, FleetTransport::Brokered),
        (0xD12EC7, FleetTransport::Direct),
    ] {
        let reference = golden(transport, chaos_seed);
        for workers in [1, 4, 8] {
            for steal_seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
                let stolen = summary_digest(&campaign_stealing(
                    chaos_seed,
                    transport,
                    Some(workers),
                    steal_seed,
                ));
                assert_eq!(
                    reference, stolen,
                    "{transport:?} seed {chaos_seed:#x}: {workers} workers with steal \
                     seed {steal_seed:#x} diverged from the thread-per-participant golden"
                );
            }
        }
    }
}

/// Expected verdicts survive the scheduler: honest members accepted,
/// cheaters rejected, exactly as the thread-per-participant runtime
/// decided.
#[test]
fn scheduler_verdicts_are_correct_under_chaos() {
    let summary = campaign(0xC4A05, FleetTransport::Brokered, Some(4));
    let expected = [true, true, true, true, true, false, false];
    assert_eq!(summary.members.len(), expected.len());
    for (member, expected) in summary.members.iter().zip(expected) {
        assert_eq!(
            member.outcome.accepted, expected,
            "member {} ({}): {} after {} attempts",
            member.participant, member.share, member.outcome.verdict, member.attempts
        );
    }
    assert!(
        !summary.fault_events.is_empty(),
        "a nonzero chaos seed must inject faults"
    );
}

/// A clean (chaos-free) fleet also reproduces its thread-per-participant
/// golden — the scheduler is not only for storms.
#[test]
fn quiet_fleet_identical_across_execution_models() {
    let task = PasswordSearch::with_hidden_password(3, 100);
    let screener = task.match_screener();
    let honest = HonestWorker;
    let schemes = Schemes::new(1);
    let run = |workers: Option<usize>| {
        let specs = vec![
            MemberSpec::<'_, Sha256> {
                scheme: &schemes.cbs,
                behaviours: vec![&honest as &dyn WorkerBehaviour],
            },
            MemberSpec {
                scheme: &schemes.ni,
                behaviours: vec![&honest],
            },
            MemberSpec {
                scheme: &schemes.double_check,
                behaviours: vec![&honest, &honest],
            },
        ];
        summary_digest(
            &run_mixed_fleet(
                &task,
                &screener,
                Domain::new(0, 192),
                &specs,
                &MixedFleetConfig {
                    transport: FleetTransport::Brokered,
                    workers,
                    ..MixedFleetConfig::default()
                },
            )
            .unwrap(),
        )
    };
    let reference = GOLDEN_QUIET;
    assert_eq!(reference, run(None));
    assert_eq!(reference, run(Some(1)));
    assert_eq!(reference, run(Some(4)));
}
