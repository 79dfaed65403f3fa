//! **Theorem 1 (Soundness)** across every scheme: an honest participant is
//! always accepted, for arbitrary domains, sample counts, storage modes
//! and hash functions.

use proptest::prelude::*;
use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::scheme::double_check::DoubleCheckScheme;
use uncheatable_grid::core::scheme::naive::NaiveScheme;
use uncheatable_grid::core::scheme::ni_cbs::NiCbsScheme;
use uncheatable_grid::core::scheme::ringer::RingerScheme;
use uncheatable_grid::core::{
    run_scheme, MixedFleetConfig, ParticipantStorage, RoundOutcome, SchemeError, VerificationScheme,
};
use uncheatable_grid::grid::{HonestWorker, WorkerBehaviour};
use uncheatable_grid::hash::{HashFunction, Md5, Sha1, Sha256};
use uncheatable_grid::merkle::tree_height;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::Domain;

/// One round of `scheme` over `domain` with an honest participant in
/// every slot, participants keeping `storage`.
fn honest_round<H: HashFunction>(
    task: &PasswordSearch,
    domain: Domain,
    scheme: &dyn VerificationScheme<H>,
    storage: ParticipantStorage,
) -> Result<RoundOutcome, SchemeError> {
    let screener = task.match_screener();
    let honest: Vec<&dyn WorkerBehaviour> = vec![&HonestWorker; scheme.participant_slots()];
    let config = MixedFleetConfig {
        storage,
        ..MixedFleetConfig::default()
    };
    run_scheme(task, &screener, domain, scheme, &honest, &config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cbs_accepts_honest(n in 1u64..300, m in 1usize..40, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, n / 2);
        let scheme = CbsScheme { samples: m, seed, report_audit: 2 };
        let outcome = honest_round::<Sha256>(
            &task,
            Domain::new(0, n),
            &scheme,
            ParticipantStorage::Full,
        ).unwrap();
        prop_assert!(outcome.accepted);
    }

    #[test]
    fn cbs_partial_accepts_honest(n in 2u64..300, m in 1usize..20,
                                  ell_seed in any::<u32>(), seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let height = tree_height(n);
        let ell = 1 + ell_seed % height;
        let scheme = CbsScheme { samples: m, seed, report_audit: 0 };
        let outcome = honest_round::<Sha256>(
            &task,
            Domain::new(0, n),
            &scheme,
            ParticipantStorage::Partial { subtree_height: ell },
        ).unwrap();
        prop_assert!(outcome.accepted);
    }

    #[test]
    fn ni_cbs_accepts_honest(n in 1u64..300, m in 1usize..40,
                             k in 1u64..8, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let scheme = NiCbsScheme {
            samples: m,
            g_iterations: k,
            report_audit: 1,
            audit_seed: seed,
        };
        let outcome = honest_round::<Md5>(
            &task,
            Domain::new(0, n),
            &scheme,
            ParticipantStorage::Full,
        ).unwrap();
        prop_assert!(outcome.accepted);
    }

    #[test]
    fn naive_accepts_honest(n in 1u64..300, m in 1usize..40, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let scheme = NaiveScheme { samples: m, seed };
        let outcome = honest_round::<Sha256>(
            &task,
            Domain::new(0, n),
            &scheme,
            ParticipantStorage::Full,
        ).unwrap();
        prop_assert!(outcome.accepted);
    }

    #[test]
    fn ringer_accepts_honest(n in 8u64..300, d in 1usize..8, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 1);
        let scheme = RingerScheme { ringers: d, seed };
        let outcome = honest_round::<Sha256>(
            &task,
            Domain::new(0, n),
            &scheme,
            ParticipantStorage::Full,
        ).unwrap();
        prop_assert!(outcome.accepted);
    }

    #[test]
    fn double_check_accepts_honest_pair(n in 1u64..200, seed in any::<u64>()) {
        let task = PasswordSearch::with_hidden_password(seed, 0);
        let outcome = honest_round::<Sha256>(
            &task,
            Domain::new(0, n),
            &DoubleCheckScheme,
            ParticipantStorage::Full,
        ).unwrap();
        prop_assert!(outcome.accepted);
    }
}

#[test]
fn soundness_holds_for_every_hash_function() {
    let task = PasswordSearch::with_hidden_password(4, 8);
    let domain = Domain::new(0, 100);
    let scheme = CbsScheme {
        samples: 12,
        seed: 9,
        report_audit: 0,
    };
    assert!(
        honest_round::<Md5>(&task, domain, &scheme, ParticipantStorage::Full)
            .unwrap()
            .accepted
    );
    assert!(
        honest_round::<Sha1>(&task, domain, &scheme, ParticipantStorage::Full)
            .unwrap()
            .accepted
    );
    assert!(
        honest_round::<Sha256>(&task, domain, &scheme, ParticipantStorage::Full)
            .unwrap()
            .accepted
    );
}

#[test]
fn soundness_holds_for_offset_domains() {
    // Domains need not start at zero (participants get sub-ranges).
    let task = PasswordSearch::with_hidden_password(4, 5_000_010);
    let scheme = CbsScheme {
        samples: 10,
        seed: 3,
        report_audit: 0,
    };
    let outcome = honest_round::<Sha256>(
        &task,
        Domain::new(5_000_000, 64),
        &scheme,
        ParticipantStorage::Full,
    )
    .unwrap();
    assert!(outcome.accepted);
    assert_eq!(outcome.reports[0].input, 5_000_010);
}
