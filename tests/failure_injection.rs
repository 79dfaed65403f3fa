//! Failure injection: protocols must fail *cleanly* (typed errors, no
//! hangs, no panics) when peers die, lie structurally, or reorder
//! messages. Distributed-systems hygiene for the scheme layer.

use uncheatable_grid::core::scheme::cbs::CbsScheme;
use uncheatable_grid::core::session::{drive_participant, drive_supervisor};
use uncheatable_grid::core::{
    LaneWidth, Parallelism, ParticipantContext, ParticipantStorage, SchemeError, SessionOutcome,
    SupervisorContext, VerificationScheme,
};
use uncheatable_grid::grid::{
    duplex, Assignment, CostLedger, Endpoint, GridError, HonestWorker, Message,
};
use uncheatable_grid::hash::Sha256;
use uncheatable_grid::task::workloads::PasswordSearch;
use uncheatable_grid::task::{Domain, MatchScreener};

fn task() -> PasswordSearch {
    PasswordSearch::with_hidden_password(1, 2)
}

/// Drives the CBS supervisor session for wire task `task_id` over one
/// blocking endpoint: unlike the session engine, which drops mail for
/// unknown task ids, every message reaches the session.
fn supervise(
    endpoint: &Endpoint,
    task: &PasswordSearch,
    screener: &MatchScreener,
    domain: Domain,
    task_id: u64,
    scheme: &CbsScheme,
    ledger: &CostLedger,
) -> Result<SessionOutcome, SchemeError> {
    let mut session = VerificationScheme::<Sha256>::supervisor_session(
        scheme,
        SupervisorContext {
            task,
            screener,
            domain,
            task_ids: vec![task_id],
            ledger: ledger.clone(),
        },
    );
    drive_supervisor(endpoint, session.as_mut())
}

#[test]
fn supervisor_reports_disconnect_if_participant_dies_before_commit() {
    let t = task();
    let screener = t.match_screener();
    let (sup_ep, part_ep) = duplex();
    drop(part_ep); // participant never shows up
    let ledger = CostLedger::new();
    let err = supervise(
        &sup_ep,
        &t,
        &screener,
        Domain::new(0, 16),
        1,
        &CbsScheme {
            samples: 2,
            seed: 1,
            report_audit: 0,
        },
        &ledger,
    )
    .unwrap_err();
    assert_eq!(err, SchemeError::Grid(GridError::Disconnected));
}

#[test]
fn participant_reports_disconnect_if_supervisor_dies_after_commit() {
    let t = task();
    let (sup_ep, part_ep) = duplex();
    let ledger = CostLedger::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let screener = t.match_screener();
            let scheme = CbsScheme {
                samples: 2,
                seed: 1,
                report_audit: 0,
            };
            let mut session = VerificationScheme::<Sha256>::participant_session(
                &scheme,
                ParticipantContext {
                    task: &t,
                    screener: &screener,
                    behaviour: &HonestWorker,
                    storage: ParticipantStorage::Full,
                    parallelism: Parallelism::default(),
                    lanes: LaneWidth::default(),
                    ledger: ledger.clone(),
                },
            );
            drive_participant(&part_ep, session.as_mut())
        });
        sup_ep
            .send(&Message::Assign(Assignment {
                task_id: 1,
                domain: Domain::new(0, 16),
            }))
            .unwrap();
        let _commit = sup_ep.recv().unwrap();
        drop(sup_ep); // supervisor vanishes before challenging
        let err = handle.join().unwrap().unwrap_err();
        assert_eq!(err, SchemeError::Grid(GridError::Disconnected));
    });
}

#[test]
fn supervisor_rejects_out_of_order_messages() {
    let t = task();
    let screener = t.match_screener();
    let (sup_ep, part_ep) = duplex();
    let ledger = CostLedger::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            // Sends Reports where a Commit is expected.
            part_ep
                .send(&Message::Reports {
                    task_id: 1,
                    reports: vec![],
                })
                .unwrap();
        });
        let err = supervise(
            &sup_ep,
            &t,
            &screener,
            Domain::new(0, 16),
            1,
            &CbsScheme {
                samples: 2,
                seed: 1,
                report_audit: 0,
            },
            &ledger,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchemeError::UnexpectedMessage {
                expected: "Commit",
                got: "Reports"
            }
        );
    });
}

#[test]
fn supervisor_rejects_wrong_task_id() {
    let t = task();
    let screener = t.match_screener();
    let (sup_ep, part_ep) = duplex();
    let ledger = CostLedger::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: 999,
                    root: vec![0u8; 32],
                })
                .unwrap();
        });
        let err = supervise(
            &sup_ep,
            &t,
            &screener,
            Domain::new(0, 16),
            1,
            &CbsScheme {
                samples: 2,
                seed: 1,
                report_audit: 0,
            },
            &ledger,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchemeError::TaskMismatch {
                expected: 1,
                got: 999
            }
        );
    });
}

#[test]
fn supervisor_rejects_malformed_commitment() {
    let t = task();
    let screener = t.match_screener();
    let (sup_ep, part_ep) = duplex();
    let ledger = CostLedger::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: 1,
                    root: vec![0u8; 31], // not a SHA-256 digest
                })
                .unwrap();
        });
        let err = supervise(
            &sup_ep,
            &t,
            &screener,
            Domain::new(0, 16),
            1,
            &CbsScheme {
                samples: 2,
                seed: 1,
                report_audit: 0,
            },
            &ledger,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchemeError::MalformedPayload {
                what: "commitment root"
            }
        );
    });
}

#[test]
fn supervisor_rejects_short_proof_list() {
    let t = task();
    let screener = t.match_screener();
    let (sup_ep, part_ep) = duplex();
    let ledger = CostLedger::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _assign = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Commit {
                    task_id: 1,
                    root: vec![0u8; 32],
                })
                .unwrap();
            let _challenge = part_ep.recv().unwrap();
            part_ep
                .send(&Message::Proofs {
                    task_id: 1,
                    proofs: vec![], // challenged 3, answered 0
                })
                .unwrap();
            part_ep
                .send(&Message::Reports {
                    task_id: 1,
                    reports: vec![],
                })
                .unwrap();
        });
        let err = supervise(
            &sup_ep,
            &t,
            &screener,
            Domain::new(0, 16),
            1,
            &CbsScheme {
                samples: 3,
                seed: 1,
                report_audit: 0,
            },
            &ledger,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SchemeError::ProofCountMismatch {
                expected: 3,
                got: 0
            }
        );
    });
}
