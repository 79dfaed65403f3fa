//! Golden digests for the participant commitment path.
//!
//! CBS and NI-CBS fleets over 2^12-leaf shares — above the scheme
//! layer's parallel-build threshold, so the multi-threaded Merkle build
//! runs — each with one planted semi-honest cheater, under full and
//! partial participant storage and at every digest lane width. The
//! expected `summary_digest` and per-member cost ledgers were recorded
//! from the per-leaf commitment path before the batched one replaced
//! it; any change to leaf evaluation, row layout, tree hashing or cost
//! accounting moves them.

use uncheatable_grid::core::{
    run_mixed_fleet, summary_digest, FleetScheme, FleetTransport, MemberSpec, MixedFleetConfig,
    ParticipantStorage, VerificationScheme,
};
use uncheatable_grid::grid::{CheatSelection, HonestWorker, SemiHonestCheater, WorkerBehaviour};
use uncheatable_grid::hash::{LaneWidth, Sha256};
use uncheatable_grid::merkle::Parallelism;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, ZeroGuesser};

/// Leaves per member share: 2^12.
const SHARE: u64 = 1 << 12;

/// One fleet: an honest member and a planted cheater on `scheme`.
/// Returns the summary digest and one ledger line per member.
fn fleet(scheme: FleetScheme, storage: ParticipantStorage, lanes: LaneWidth) -> (String, String) {
    let task = PasswordSearch::with_hidden_password(19, 3 * SHARE / 2);
    let screener = task.match_screener();
    let cheater = SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(5), 23);
    let schemes: Vec<Box<dyn VerificationScheme<Sha256>>> =
        vec![scheme.instantiate(101), scheme.instantiate(202)];
    let behaviours: [&dyn WorkerBehaviour; 2] = [&HonestWorker, &cheater];
    let members: Vec<MemberSpec<'_, Sha256>> = schemes
        .iter()
        .zip(behaviours)
        .map(|(scheme, behaviour)| MemberSpec {
            scheme: scheme.as_ref(),
            behaviours: vec![behaviour],
        })
        .collect();
    let config = MixedFleetConfig {
        storage,
        parallelism: Parallelism::threads(4),
        lanes,
        transport: FleetTransport::Direct,
        ..MixedFleetConfig::default()
    };
    let summary = run_mixed_fleet(
        &task,
        &screener,
        Domain::new(0, 2 * SHARE),
        &members,
        &config,
    )
    .expect("fleet runs");
    let ledgers = summary
        .members
        .iter()
        .map(|m| {
            let (p, s) = (m.outcome.participant_costs, m.outcome.supervisor_costs);
            format!(
                "{} p(f {} h {} hw {} g {}) s(f {} h {} v {})",
                m.outcome.accepted,
                p.f_evals,
                p.hash_ops,
                p.hash_wall_ops,
                p.g_evals,
                s.f_evals,
                s.hash_ops,
                s.verify_ops
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    (summary_digest(&summary), ledgers)
}

fn check(scheme: FleetScheme, storage: ParticipantStorage, digest: &str, ledgers: &str) {
    for lanes in LaneWidth::ALL {
        let (got_digest, got_ledgers) = fleet(scheme, storage, lanes);
        assert_eq!(got_ledgers, ledgers, "{scheme:?} {storage:?} lanes {lanes}");
        assert_eq!(got_digest, digest, "{scheme:?} {storage:?} lanes {lanes}");
    }
}

const CBS: FleetScheme = FleetScheme::Cbs {
    samples: 12,
    report_audit: 2,
};

const NI_CBS: FleetScheme = FleetScheme::NiCbs {
    samples: 12,
    g_iterations: 3,
    report_audit: 2,
};

const PARTIAL: ParticipantStorage = ParticipantStorage::Partial { subtree_height: 4 };

#[test]
fn cbs_full_storage_golden() {
    check(
        CBS,
        ParticipantStorage::Full,
        "44f6b70799f148153381a428a792c873416cd603f323d07b6cd9b33c62522243",
        "true p(f 4096 h 4095 hw 1026 g 0) s(f 12 h 144 v 12); \
         false p(f 2005 h 4095 hw 1026 g 0) s(f 2 h 12 v 2)",
    );
}

#[test]
fn cbs_partial_storage_golden() {
    check(
        CBS,
        PARTIAL,
        "7681b294b38dc6823d48cedbe0bc1f3dd3431a1ce1594674ce948e768a9ff135",
        "true p(f 4288 h 4275 hw 4275 g 0) s(f 12 h 144 v 12); \
         false p(f 2100 h 4275 hw 4275 g 0) s(f 2 h 12 v 2)",
    );
}

#[test]
fn ni_cbs_full_storage_golden() {
    check(
        NI_CBS,
        ParticipantStorage::Full,
        "449cd2e48658b1b83cc4656c3e480f46db2441e6638d5bc7ebb5f41d8b383079",
        "true p(f 4096 h 4095 hw 1026 g 36) s(f 12 h 144 v 12); \
         false p(f 2005 h 4095 hw 1026 g 36) s(f 1 h 0 v 1)",
    );
}

#[test]
fn ni_cbs_partial_storage_golden() {
    check(
        NI_CBS,
        PARTIAL,
        "5438df43edddf118cdfb0ae43ec2dbf73c12a03ccdd7f763fd333d2df97488d7",
        "true p(f 4288 h 4275 hw 4275 g 36) s(f 12 h 144 v 12); \
         false p(f 2102 h 4275 hw 4275 g 36) s(f 1 h 0 v 1)",
    );
}
