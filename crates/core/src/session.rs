//! Message-driven protocol sessions: the engine-facing face of every
//! verification scheme.
//!
//! Each scheme in this crate is defined by two explicit state machines —
//! one per side of the wire — that consume and produce
//! [`Message`]s:
//!
//! ```text
//!               supervisor session            participant session
//!  start() ──▶  Assign ────────────────────▶  evaluate f, build tree
//!               AwaitCommit  ◀── Commit ────  AwaitChallenge
//!               Challenge ─────────────────▶  prove samples
//!               AwaitProofs ◀─── Proofs ────  AwaitVerdict
//!               AwaitReports ◀── Reports ───
//!               verify, Verdict ───────────▶  Done(accepted)
//!               Done(verdict, reports)
//! ```
//!
//! A session never blocks: it is handed one inbound message at a time and
//! answers with the messages to send, so hundreds of sessions — different
//! schemes, different behaviours — interleave over one transport. The
//! [`SessionEngine`](crate::engine::SessionEngine) multiplexes supervisor
//! sessions over direct links or a [`Broker`](ugc_grid::Broker); the
//! participant side is symmetric: [`step_participant`] advances one
//! session by one message without blocking (what the grid scheduler's
//! worker pool calls). [`run_scheme`](crate::run_scheme) runs one
//! complete round of any scheme that way. [`drive_participant`] and
//! [`drive_supervisor`] are thin blocking loops that run a single
//! session to completion over one endpoint — the face to reach for when
//! a test plays a hostile peer by hand.
//!
//! # Example: one CBS round, session by session
//!
//! ```
//! use ugc_core::scheme::cbs::CbsScheme;
//! use ugc_core::session::{
//!     drive_participant, drive_supervisor, ParticipantContext, SupervisorContext,
//!     VerificationScheme,
//! };
//! use ugc_core::{LaneWidth, ParticipantStorage, Parallelism};
//! use ugc_grid::{duplex, CostLedger, HonestWorker};
//! use ugc_hash::Sha256;
//! use ugc_task::{workloads::PasswordSearch, Domain};
//!
//! let task = PasswordSearch::with_hidden_password(1, 42);
//! let screener = task.match_screener();
//! let scheme = CbsScheme { samples: 12, seed: 7, report_audit: 0 };
//! let (sup_ep, part_ep) = duplex();
//!
//! let outcome = std::thread::scope(|scope| {
//!     scope.spawn(|| {
//!         let mut session =
//!             VerificationScheme::<Sha256>::participant_session(&scheme, ParticipantContext {
//!                 task: &task,
//!                 screener: &screener,
//!                 behaviour: &HonestWorker,
//!                 storage: ParticipantStorage::Full,
//!                 parallelism: Parallelism::serial(),
//!                 lanes: LaneWidth::default(),
//!                 ledger: CostLedger::new(),
//!             });
//!         drive_participant(&part_ep, session.as_mut())
//!     });
//!     let mut session =
//!         VerificationScheme::<Sha256>::supervisor_session(&scheme, SupervisorContext {
//!             task: &task,
//!             screener: &screener,
//!             domain: Domain::new(0, 128),
//!             task_ids: vec![1],
//!             ledger: CostLedger::new(),
//!         });
//!     drive_supervisor(&sup_ep, session.as_mut())
//! })?;
//! assert!(outcome.verdict.is_accepted());
//! assert_eq!(outcome.reports[0].input, 42); // the password surfaced
//! # Ok::<(), ugc_core::SchemeError>(())
//! ```

use crate::error::message_kind;
use crate::{SchemeError, Verdict};
use ugc_grid::{CostLedger, Endpoint, GridError, GridLink, Message, WorkerBehaviour};
use ugc_hash::HashFunction;
use ugc_merkle::{LaneWidth, Parallelism};
use ugc_task::{ComputeTask, Domain, ScreenReport, Screener};

use crate::ParticipantStorage;

/// What a completed supervisor session decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The accept/reject decision.
    pub verdict: Verdict,
    /// The screened reports received during the session.
    pub reports: Vec<ScreenReport>,
}

/// A message to send, addressed to one of the session's participant slots
/// (slot 0 for every single-participant scheme; double-check uses 0 and 1).
pub type Outbound = (usize, Message);

/// The supervisor side of one verification session, as a state machine.
///
/// The driver (engine or blocking loop) calls [`start`](Self::start) once,
/// then feeds every inbound message to [`on_message`](Self::on_message) and
/// transmits whatever comes back, until [`take_outcome`](Self::take_outcome)
/// yields the verdict. Errors are protocol failures (cheating is a verdict,
/// never an error).
pub trait SupervisorSession: Send {
    /// Messages to send when the session opens (e.g. the assignment).
    ///
    /// # Errors
    ///
    /// Invalid configuration (the session never starts).
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError>;

    /// Feeds one inbound message from participant slot `slot`; returns the
    /// messages to send in response.
    ///
    /// # Errors
    ///
    /// Unexpected message kinds, task-id mismatches, malformed payloads.
    fn on_message(&mut self, slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError>;

    /// Whether `msg` from slot `slot` is a redundant redelivery the
    /// session neither needs nor charges — e.g. a fault-injected
    /// duplicate of an upload this session already holds. Stale mail is
    /// dropped by the drivers *before* byte accounting, so whether the
    /// duplicate lands before or after the session completes (a
    /// cross-link race for multi-peer sessions) cannot change the
    /// session's attributed traffic. The default treats nothing as
    /// stale.
    fn is_stale(&self, slot: usize, msg: &Message) -> bool {
        let _ = (slot, msg);
        false
    }

    /// Notifies the session that participant slot `slot` is gone (its
    /// link closed, or the broker NACKed its task): nothing more will
    /// ever arrive from it. Return `Ok(())` if the session can still
    /// complete without that peer — a multi-peer session whose dead slot
    /// had already delivered everything it owed must say so here, or the
    /// verdict would depend on whether the death notice raced the other
    /// slots' messages across links.
    ///
    /// # Errors
    ///
    /// The default fails the session with
    /// [`GridError::Disconnected`](ugc_grid::GridError), which is right
    /// for every single-peer session: it cannot finish without its peer.
    fn on_peer_gone(&mut self, slot: usize) -> Result<(), SchemeError> {
        let _ = slot;
        Err(SchemeError::Grid(GridError::Disconnected))
    }

    /// The verdict and collected reports, once the session has finished.
    /// Returns `None` while the session still awaits messages.
    fn take_outcome(&mut self) -> Option<SessionOutcome>;
}

/// The participant side of one verification session, as a state machine.
pub trait ParticipantSession: Send {
    /// Feeds one inbound message; returns the replies to send.
    ///
    /// # Errors
    ///
    /// Unexpected message kinds, task-id mismatches, Merkle failures.
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError>;

    /// `Some(accepted)` once the supervisor's verdict has arrived.
    fn finished(&self) -> Option<bool>;
}

/// Everything a supervisor session needs from its environment.
pub struct SupervisorContext<'a> {
    /// The compute task being verified.
    pub task: &'a dyn ComputeTask,
    /// The screener that defines "results of interest".
    pub screener: &'a dyn Screener,
    /// The sub-domain assigned to this session's participant(s).
    pub domain: Domain,
    /// One wire task id per participant slot
    /// ([`VerificationScheme::participant_slots`] entries).
    pub task_ids: Vec<u64>,
    /// Supervisor-side cost accounting (clones share counters).
    pub ledger: CostLedger,
}

/// Everything a participant session needs from its environment.
pub struct ParticipantContext<'a> {
    /// The compute task being evaluated.
    pub task: &'a dyn ComputeTask,
    /// The screener that defines "results of interest".
    pub screener: &'a dyn Screener,
    /// How this participant actually behaves (honest, cheating, malicious).
    pub behaviour: &'a dyn WorkerBehaviour,
    /// Merkle-tree storage mode (Section 3.3).
    pub storage: ParticipantStorage,
    /// Tree-build parallelism (bit-identical results at any setting).
    pub parallelism: Parallelism,
    /// Message-parallel digest lane width for tree builds and sample
    /// hashing (bit-identical results at any setting).
    pub lanes: LaneWidth,
    /// Participant-side cost accounting (clones share counters).
    pub ledger: CostLedger,
}

/// One verification scheme, defined by the pair of session state machines
/// it installs on each side of the grid transport.
///
/// All five schemes of the evaluation — naive sampling, double-check,
/// ringers, CBS and NI-CBS — implement this trait, so one
/// [`SessionEngine`](crate::engine::SessionEngine) event loop drives any
/// mix of them over any transport, and one generic
/// [`run_scheme`](crate::run_scheme) runs a single round of any of them.
pub trait VerificationScheme<H: HashFunction>: Send + Sync {
    /// Scheme name for reports and tables.
    fn name(&self) -> &'static str;

    /// How many participants one session of this scheme occupies
    /// (2 for double-check, 1 for everything else).
    fn participant_slots(&self) -> usize {
        1
    }

    /// Builds the supervisor-side state machine for one session.
    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a>;

    /// Builds the participant-side state machine for one session slot.
    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a>;
}

/// Fails with the uniform "expected X, got Y" error the schemes raise on
/// out-of-order messages.
pub(crate) fn unexpected<T>(expected: &'static str, got: &Message) -> Result<T, SchemeError> {
    Err(SchemeError::UnexpectedMessage {
        expected,
        got: message_kind(got),
    })
}

/// What one non-blocking [`step_participant`] call accomplished.
///
/// This is the participant-side mirror of the engine's event-loop
/// verdicts: `Progress` means "poll me again soon", `Idle` means "park
/// me until traffic may have arrived", `Complete` carries the session's
/// final result. The grid scheduler
/// ([`GridScheduler`](ugc_grid::runtime::GridScheduler)) maps these
/// one-to-one onto its
/// [`TaskPoll`](ugc_grid::runtime::TaskPoll) run-queue verdicts.
#[derive(Debug)]
pub enum SessionPoll {
    /// An inbound message was consumed (and any replies sent); the
    /// session may have more mail queued, so poll again soon.
    Progress,
    /// No inbound message is waiting; nothing to do until the peer
    /// speaks.
    Idle,
    /// The session ended: `Ok(accepted)` once the verdict arrived, or
    /// the transport/protocol error that killed it (including this
    /// participant's own injected crash).
    Complete(Result<bool, SchemeError>),
}

/// Feeds one raw inbound message to a participant session and sends the
/// replies, handling [`Message::Session`] envelopes transparently: an
/// enveloped message has its payload fed to the session and the replies
/// are wrapped under the same session id, so enveloped and bare
/// transports drive the identical state machine.
fn pump_participant<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
    raw: Message,
) -> Result<(), SchemeError> {
    let (envelope, msg) = raw.into_payload();
    let mut failure: Option<SchemeError> = None;
    for out in session.on_message(msg)? {
        let out = match envelope {
            Some(id) => Message::in_session(id, out),
            None => out,
        };
        // Attempt the whole burst even once a send has failed: each
        // outbound message consumes a fault-schedule sequence number
        // (logged before the wire is touched), so the replay log must
        // not depend on *when* the peer disappeared — that is a
        // wall-clock race against the round's teardown, and it would
        // otherwise make the fault log vary with worker count. The
        // first error still fails the session.
        if let Err(e) = endpoint.send(&out) {
            failure.get_or_insert(e.into());
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Advances a participant session by (at most) one inbound message,
/// without ever blocking — the poll-driven face of the participant side,
/// scheduled by the grid runtime's worker pool exactly as the
/// [`SessionEngine`](crate::engine::SessionEngine) multiplexes the
/// supervisor side.
///
/// Each call either consumes one queued message (sending any replies and
/// returning [`SessionPoll::Progress`]), finds the queue empty
/// ([`SessionPoll::Idle`] — park the session), or finishes
/// ([`SessionPoll::Complete`] with the verdict or the error). The
/// blocking [`drive_participant`] loop and this function drive the
/// identical state machine over the identical link-operation sequence,
/// so fault schedules, ledgers and verdicts are bit-identical between
/// them.
pub fn step_participant<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
) -> SessionPoll {
    if let Some(accepted) = session.finished() {
        return SessionPoll::Complete(Ok(accepted));
    }
    let raw = match endpoint.try_recv() {
        Ok(raw) => raw,
        Err(GridError::Empty) => return SessionPoll::Idle,
        Err(e) => return SessionPoll::Complete(Err(e.into())),
    };
    match pump_participant(endpoint, session, raw) {
        Ok(()) => match session.finished() {
            Some(accepted) => SessionPoll::Complete(Ok(accepted)),
            None => SessionPoll::Progress,
        },
        Err(e) => SessionPoll::Complete(Err(e)),
    }
}

/// Advances a participant session by up to `budget` inbound messages in
/// one call — the batched face of [`step_participant`], so one scheduler
/// dispatch (and one trip through the link's lock and fault decorator
/// per message, but only one run-queue round trip) drains a whole burst
/// of queued mail instead of bouncing the task through the run queue
/// once per message.
///
/// The batch is a plain loop over [`step_participant`]: each message is
/// received, fed to the session and answered in exactly the order the
/// single-step driver would use, so fault-schedule draws, ledgers and
/// verdicts are bit-identical to `budget == 1` (property-tested in this
/// module and in `tests/scheduler_equivalence.rs`). The call returns
/// early on [`SessionPoll::Idle`] (queue drained; `Progress` instead if
/// the batch consumed at least one message first, so the scheduler
/// re-polls before parking) or [`SessionPoll::Complete`].
///
/// # Panics
///
/// Panics if `budget` is zero — a zero-message step could neither make
/// progress nor legitimately report `Idle`.
pub fn step_participant_batch<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
    budget: usize,
) -> SessionPoll {
    assert!(budget > 0, "batched step needs a non-zero message budget");
    for consumed in 0..budget {
        match step_participant(endpoint, session) {
            SessionPoll::Progress => {}
            SessionPoll::Idle if consumed > 0 => return SessionPoll::Progress,
            terminal => return terminal,
        }
    }
    SessionPoll::Progress
}

/// Runs a participant session to completion over a blocking link — a raw
/// [`Endpoint`] or any [`GridLink`] decorator (e.g. the fault-injecting
/// [`FaultyEndpoint`](ugc_grid::FaultyEndpoint) of the chaos runtime).
/// A thin blocking wrapper over the same message pump that powers the
/// non-blocking [`step_participant`].
///
/// Session envelopes are handled transparently: an enveloped inbound
/// message has its payload fed to the session and the replies are wrapped
/// under the same session id, so enveloped and bare transports drive the
/// identical state machine.
///
/// # Errors
///
/// Transport failures (including the peer disconnecting mid-protocol, or
/// this participant's own injected crash) and any protocol error the
/// session raises.
pub fn drive_participant<L: GridLink + ?Sized>(
    endpoint: &L,
    session: &mut (dyn ParticipantSession + '_),
) -> Result<bool, SchemeError> {
    loop {
        if let Some(accepted) = session.finished() {
            return Ok(accepted);
        }
        let raw = endpoint.recv()?;
        pump_participant(endpoint, session, raw)?;
    }
}

/// Runs a single-participant supervisor session to completion over one
/// blocking endpoint.
///
/// Unlike the [`SessionEngine`](crate::engine::SessionEngine), which
/// drops mail whose task id it never registered, this loop hands every
/// inbound message to the session — the face hostile-peer tests use to
/// check how a session answers forged or misaddressed frames.
///
/// # Errors
///
/// Transport failures and any protocol error the session raises, plus
/// [`SchemeError::InvalidConfig`] if the session addresses a slot other
/// than 0 (multi-participant sessions run on the engine).
pub fn drive_supervisor(
    endpoint: &Endpoint,
    session: &mut (dyn SupervisorSession + '_),
) -> Result<SessionOutcome, SchemeError> {
    let send_all = |outs: Vec<Outbound>| -> Result<(), SchemeError> {
        for (slot, msg) in outs {
            if slot != 0 {
                return Err(SchemeError::InvalidConfig {
                    reason: "session addressed a slot with no endpoint",
                });
            }
            endpoint.send(&msg)?;
        }
        Ok(())
    };
    send_all(session.start()?)?;
    loop {
        if let Some(outcome) = session.take_outcome() {
            return Ok(outcome);
        }
        let msg = endpoint.recv()?;
        if session.is_stale(0, &msg) {
            continue; // redundant redelivery: dropped, as the engine does
        }
        send_all(session.on_message(0, msg)?)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::cbs::CbsScheme;
    use ugc_grid::{duplex, HonestWorker, LinkStats};
    use ugc_hash::Sha256;
    use ugc_task::workloads::PasswordSearch;

    /// Runs one honest CBS round with the participant advanced by
    /// `step`, returning the supervisor's outcome and the participant
    /// link's traffic counters.
    fn cbs_round_with_stepper(
        step: &dyn Fn(&Endpoint, &mut (dyn ParticipantSession + '_)) -> SessionPoll,
    ) -> (SessionOutcome, LinkStats) {
        let task = PasswordSearch::with_hidden_password(1, 42);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 12,
            seed: 7,
            report_audit: 0,
        };
        let (sup_ep, part_ep) = duplex();
        std::thread::scope(|scope| {
            let supervisor = scope.spawn(|| {
                let mut session = VerificationScheme::<Sha256>::supervisor_session(
                    &scheme,
                    SupervisorContext {
                        task: &task,
                        screener: &screener,
                        domain: ugc_task::Domain::new(0, 128),
                        task_ids: vec![1],
                        ledger: CostLedger::new(),
                    },
                );
                drive_supervisor(&sup_ep, session.as_mut()).unwrap()
            });
            let mut session = VerificationScheme::<Sha256>::participant_session(
                &scheme,
                ParticipantContext {
                    task: &task,
                    screener: &screener,
                    behaviour: &HonestWorker,
                    storage: crate::ParticipantStorage::Full,
                    parallelism: Parallelism::serial(),
                    lanes: LaneWidth::default(),
                    ledger: CostLedger::new(),
                },
            );
            loop {
                match step(&part_ep, session.as_mut()) {
                    SessionPoll::Complete(result) => {
                        assert!(result.unwrap(), "honest participant must be accepted");
                        break;
                    }
                    SessionPoll::Progress => {}
                    SessionPoll::Idle => std::thread::yield_now(),
                }
            }
            let stats = part_ep.stats();
            (supervisor.join().unwrap(), stats)
        })
    }

    #[test]
    fn batched_step_matches_single_step_exactly() {
        let (single_outcome, single_stats) =
            cbs_round_with_stepper(&|ep, session| step_participant(ep, session));
        assert!(single_outcome.verdict.is_accepted());
        assert_eq!(single_outcome.reports.len(), 1);
        for budget in [1usize, 2, 4, 64] {
            let (outcome, stats) = cbs_round_with_stepper(&move |ep, session| {
                step_participant_batch(ep, session, budget)
            });
            assert_eq!(outcome, single_outcome, "budget {budget}");
            assert_eq!(stats, single_stats, "budget {budget}");
        }
    }

    #[test]
    fn batch_budget_one_is_single_step() {
        // With budget 1 the batch wrapper must be *literally* the single
        // stepper: an empty queue reports Idle, never Progress.
        let (_sup, part_ep) = duplex();
        let task = PasswordSearch::with_hidden_password(1, 3);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 4,
            seed: 1,
            report_audit: 0,
        };
        let mut session = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &HonestWorker,
                storage: crate::ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            },
        );
        assert!(matches!(
            step_participant_batch(&part_ep, session.as_mut(), 1),
            SessionPoll::Idle
        ));
        assert!(matches!(
            step_participant_batch(&part_ep, session.as_mut(), 8),
            SessionPoll::Idle
        ));
    }

    #[test]
    #[should_panic(expected = "non-zero message budget")]
    fn zero_budget_batch_panics() {
        let (_sup, part_ep) = duplex();
        let task = PasswordSearch::with_hidden_password(1, 3);
        let screener = task.match_screener();
        let scheme = CbsScheme {
            samples: 4,
            seed: 1,
            report_audit: 0,
        };
        let mut session = VerificationScheme::<Sha256>::participant_session(
            &scheme,
            ParticipantContext {
                task: &task,
                screener: &screener,
                behaviour: &HonestWorker,
                storage: crate::ParticipantStorage::Full,
                parallelism: Parallelism::serial(),
                lanes: LaneWidth::default(),
                ledger: CostLedger::new(),
            },
        );
        let _ = step_participant_batch(&part_ep, session.as_mut(), 0);
    }
}
