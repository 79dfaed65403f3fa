//! Cross-scheme invariants: identical verdicts and reports where theory
//! says so, the cost ordering the paper claims, and a golden table that
//! pins every scheme's single-session round bit for bit (verdict,
//! supervisor link stats, both `CostLedger`s and the reports) over both
//! the direct and the brokered transport.

use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    run_scheme, FleetTransport, MixedFleetConfig, ParticipantStorage, RoundOutcome,
    VerificationScheme,
};
use uncheatable_grid::grid::{
    CheatSelection, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use uncheatable_grid::hash::{hex, HashFunction, Sha256};
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, Screener, ZeroGuesser};

const N: u64 = 1 << 14;
const M: usize = 20;

/// One honest round of `scheme` over direct links.
fn honest_round(
    task: &PasswordSearch,
    scheme: &dyn VerificationScheme<Sha256>,
    storage: ParticipantStorage,
) -> RoundOutcome {
    let screener = task.match_screener();
    let config = MixedFleetConfig {
        storage,
        ..MixedFleetConfig::default()
    };
    run_scheme(
        task,
        &screener,
        Domain::new(0, N),
        scheme,
        &[&HonestWorker],
        &config,
    )
    .unwrap()
}

fn all_outcomes() -> Vec<(&'static str, RoundOutcome)> {
    let task = PasswordSearch::with_hidden_password(2, 77);
    let cbs = CbsScheme {
        samples: M,
        seed: 3,
        report_audit: 0,
    };
    vec![
        (
            "naive",
            honest_round(
                &task,
                &NaiveScheme {
                    samples: M,
                    seed: 3,
                },
                ParticipantStorage::Full,
            ),
        ),
        ("cbs", honest_round(&task, &cbs, ParticipantStorage::Full)),
        (
            "cbs-partial",
            honest_round(
                &task,
                &cbs,
                ParticipantStorage::Partial { subtree_height: 4 },
            ),
        ),
        (
            "ni-cbs",
            honest_round(
                &task,
                &NiCbsScheme {
                    samples: M,
                    g_iterations: 1,
                    report_audit: 0,
                    audit_seed: 0,
                },
                ParticipantStorage::Full,
            ),
        ),
    ]
}

#[test]
fn every_scheme_accepts_and_finds_the_password() {
    for (name, outcome) in all_outcomes() {
        assert!(outcome.accepted, "{name} rejected an honest worker");
        assert_eq!(
            outcome.reports.iter().map(|r| r.input).collect::<Vec<_>>(),
            vec![77],
            "{name} lost the interesting result"
        );
    }
}

#[test]
fn full_and_partial_cbs_send_identical_bytes() {
    let outcomes = all_outcomes();
    let cbs = &outcomes[1].1;
    let partial = &outcomes[2].1;
    // Same commitment, same proofs, same reports — the storage mode is
    // invisible on the wire.
    assert_eq!(
        cbs.supervisor_link.bytes_received,
        partial.supervisor_link.bytes_received
    );
    assert_eq!(
        cbs.supervisor_link.bytes_sent,
        partial.supervisor_link.bytes_sent
    );
}

#[test]
fn cbs_upload_beats_naive_by_an_order_of_magnitude() {
    let outcomes = all_outcomes();
    let naive = outcomes[0].1.supervisor_link.bytes_received;
    let cbs = outcomes[1].1.supervisor_link.bytes_received;
    assert!(
        naive > 10 * cbs,
        "expected ≥10× gap at n = 2^14: naive {naive} vs CBS {cbs}"
    );
}

#[test]
fn ni_cbs_halves_the_round_trips() {
    let outcomes = all_outcomes();
    let cbs = &outcomes[1].1;
    let ni = &outcomes[3].1;
    assert_eq!(cbs.supervisor_link.messages_sent, 3); // Assign, Challenge, Verdict
    assert_eq!(ni.supervisor_link.messages_sent, 2); // Assign, Verdict
    assert!(ni.supervisor_link.bytes_sent < cbs.supervisor_link.bytes_sent);
}

#[test]
fn supervisor_compute_is_sampled_not_linear() {
    for (name, outcome) in all_outcomes() {
        assert!(
            outcome.supervisor_costs.f_evals <= (M as u64) + 5,
            "{name}: supervisor recomputed {} times",
            outcome.supervisor_costs.f_evals
        );
    }
}

#[test]
fn participant_baseline_work_is_the_task_itself() {
    for (name, outcome) in all_outcomes() {
        assert!(
            outcome.participant_costs.f_evals >= N,
            "{name}: participant skipped work while honest"
        );
        // Partial storage rebuilds add at most m × 2^ℓ evaluations.
        assert!(
            outcome.participant_costs.f_evals <= N + (M as u64) * 16,
            "{name}: unexpected participant workload {}",
            outcome.participant_costs.f_evals
        );
    }
}

// ---------------------------------------------------------------------------
// Golden table: every scheme's single-session round, pinned bit for bit.
// ---------------------------------------------------------------------------

/// SHA-256 (hex) over everything a round measures. The digests were
/// recorded from the per-scheme blocking drivers (one participant thread
/// per slot over a private duplex link) before they were removed, so
/// `run_scheme` must reproduce those rounds exactly, over either
/// transport.
const GOLDEN: [(&str, &str); 10] = [
    (
        "naive-honest",
        "2e627214a19390bbcffca8d7364e6a1d1d889d6ab54d91bf3018fdbd4e9011eb",
    ),
    (
        "naive-cheater",
        "b8a428e5d725c276009472baa10734ebc5fed92c3856371f328f156c75a5f22c",
    ),
    (
        "cbs-full",
        "e3bdba659a4e782957c32590d6e13159fd625337dbca7a87c975d36d8d1171fd",
    ),
    (
        "cbs-partial-3",
        "dc2805015629cda39f15a82f57d44524d6abcc207da1a0006b0631be1a113607",
    ),
    (
        "cbs-cheater",
        "7decaa290f3966e27d949a148f30431efe68fcfe186b35593778c9e08b78f5a5",
    ),
    (
        "cbs-malicious-audit-4",
        "41081c3c7a0bc37d2db6847941b117a0e788d6dddeab21b96506fed5605c9d06",
    ),
    (
        "ni-cbs",
        "f033e20d80bcd844f487bd5abe142a7394419355d7c426cb17b32f0f5d0ab39e",
    ),
    (
        "ringer",
        "b927e15d27e378272bdd28338ed480d539bc727a11996afa370cacf79aa6f586",
    ),
    (
        "double-check-honest",
        "0ce1a32441de8a10829fe2044b341072ab631eb04252108a3bd946e8f0b78edf",
    ),
    (
        "double-check-cheater",
        "598e6419868f398346922f8c985fa3d13a8f90a7c56ba5ea8bb94bc0631f1cbb",
    ),
];

fn outcome_digest(outcome: &RoundOutcome) -> String {
    let text = format!(
        "verdict {:?}\nlink {:?}\nsup {:?}\npart {:?}\nreports {:?}\n",
        outcome.verdict,
        outcome.supervisor_link,
        outcome.supervisor_costs,
        outcome.participant_costs,
        outcome.reports
    );
    hex::encode(&Sha256::digest(text.as_bytes()))
}

/// Runs golden case `name` over direct links and through the broker,
/// on the default worker pool and on pools of 1 and 4 workers, asserts
/// every run reproduces the recorded digest, and returns the outcome.
fn assert_golden<S: Screener>(
    name: &str,
    task: &PasswordSearch,
    screener: &S,
    domain: Domain,
    scheme: &dyn VerificationScheme<Sha256>,
    behaviours: &[&dyn WorkerBehaviour],
    storage: ParticipantStorage,
) -> RoundOutcome {
    let (_, golden) = GOLDEN
        .iter()
        .find(|(case, _)| *case == name)
        .unwrap_or_else(|| panic!("no golden digest for {name}"));
    let mut last = None;
    for transport in [FleetTransport::Direct, FleetTransport::Brokered] {
        for workers in [None, Some(1), Some(4)] {
            let config = MixedFleetConfig {
                storage,
                transport,
                workers,
                ..MixedFleetConfig::default()
            };
            let outcome = run_scheme(task, screener, domain, scheme, behaviours, &config).unwrap();
            assert_eq!(
                outcome_digest(&outcome),
                *golden,
                "{name} over {transport:?} with {workers:?} workers diverged from its golden round"
            );
            last = Some(outcome);
        }
    }
    last.expect("at least one run")
}

#[test]
fn engine_matches_legacy_cbs() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let domain = Domain::new(0, 128);
    let scheme = CbsScheme {
        samples: 16,
        seed: 9,
        report_audit: 2,
    };
    for (name, storage) in [
        ("cbs-full", ParticipantStorage::Full),
        (
            "cbs-partial-3",
            ParticipantStorage::Partial { subtree_height: 3 },
        ),
    ] {
        assert_golden(
            name,
            &task,
            &screener,
            domain,
            &scheme,
            &[&HonestWorker],
            storage,
        );
    }
}

#[test]
fn engine_matches_legacy_cbs_on_a_cheater() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let cheater = SemiHonestCheater::new(0.3, CheatSelection::Scattered, ZeroGuesser::new(5), 11);
    let scheme = CbsScheme {
        samples: 20,
        seed: 4,
        report_audit: 0,
    };
    let outcome = assert_golden(
        "cbs-cheater",
        &task,
        &screener,
        Domain::new(0, 256),
        &scheme,
        &[&cheater],
        ParticipantStorage::Full,
    );
    assert!(!outcome.accepted);
}

#[test]
fn engine_matches_legacy_ni_cbs() {
    let task = PasswordSearch::with_hidden_password(5, 9);
    let screener = task.match_screener();
    let scheme = NiCbsScheme {
        samples: 10,
        g_iterations: 3,
        report_audit: 1,
        audit_seed: 6,
    };
    assert_golden(
        "ni-cbs",
        &task,
        &screener,
        Domain::new(0, 128),
        &scheme,
        &[&HonestWorker],
        ParticipantStorage::Full,
    );
}

#[test]
fn engine_matches_legacy_naive() {
    let task = PasswordSearch::with_hidden_password(3, 40);
    let screener = task.match_screener();
    let cheater = SemiHonestCheater::new(0.4, CheatSelection::Scattered, ZeroGuesser::new(7), 5);
    let scheme = NaiveScheme {
        samples: 12,
        seed: 2,
    };
    for (name, behaviour) in [
        ("naive-honest", &HonestWorker as &dyn WorkerBehaviour),
        ("naive-cheater", &cheater),
    ] {
        assert_golden(
            name,
            &task,
            &screener,
            Domain::new(0, 128),
            &scheme,
            &[behaviour],
            ParticipantStorage::Full,
        );
    }
}

#[test]
fn engine_matches_legacy_ringer() {
    let task = PasswordSearch::with_hidden_password(1, 10);
    let screener = task.match_screener();
    let scheme = RingerScheme {
        ringers: 6,
        seed: 3,
    };
    assert_golden(
        "ringer",
        &task,
        &screener,
        Domain::new(0, 128),
        &scheme,
        &[&HonestWorker],
        ParticipantStorage::Full,
    );
}

#[test]
fn engine_matches_legacy_double_check() {
    let task = PasswordSearch::with_hidden_password(1, 20);
    let screener = task.match_screener();
    let cheater = SemiHonestCheater::new(0.9, CheatSelection::Scattered, ZeroGuesser::new(2), 3);
    for (name, replica_b) in [
        ("double-check-honest", &HonestWorker as &dyn WorkerBehaviour),
        ("double-check-cheater", &cheater),
    ] {
        assert_golden(
            name,
            &task,
            &screener,
            Domain::new(0, 64),
            &DoubleCheckScheme,
            &[&HonestWorker, replica_b],
            ParticipantStorage::Full,
        );
    }
}

#[test]
fn engine_matches_legacy_with_a_corrupting_malicious_worker() {
    // The malicious model needs the report-audit extension; the golden
    // round pins the rejection it earns.
    let task = PasswordSearch::with_hidden_password(3, 10);
    let screener = uncheatable_grid::task::AcceptAllScreener;
    let malicious = MaliciousWorker::new(1.0, 8);
    let scheme = CbsScheme {
        samples: 10,
        seed: 6,
        report_audit: 4,
    };
    let outcome = assert_golden(
        "cbs-malicious-audit-4",
        &task,
        &screener,
        Domain::new(0, 64),
        &scheme,
        &[&malicious],
        ParticipantStorage::Full,
    );
    assert!(!outcome.accepted);
}
