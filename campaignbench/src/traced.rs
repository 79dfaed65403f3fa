//! Transparent wrappers around every trait seam the public API exposes.
//!
//! Each wrapper forwards to the real implementation inside a span of its
//! layer and bumps that layer's call counters. They change nothing the
//! campaign can observe: the traced run's summary digest must equal the
//! untraced run's, and the benchmark fails if it does not.

use crate::clock;
use crate::trace::{self, Counter, Layer};
use std::time::Instant;
use ugc_core::engine::{EngineEvent, EngineTransport};
use ugc_core::session::Outbound;
use ugc_core::{
    EngineSide, InProcessBackend, OpenRound, ParticipantContext, ParticipantSession, RoundSpec,
    SchemeError, SessionOutcome, SlotReport, SupervisorContext, SupervisorSession,
    TransportBackend, TransportKind, VerificationScheme,
};
use ugc_grid::{GridError, Message};
use ugc_hash::{HashFunction, Sha256};
use ugc_task::ComputeTask;

/// SHA-256, counted and timed: the protocol hash of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct TracedSha256;

fn hashed(counter: Counter, messages: u64) {
    trace::count(counter, 1);
    trace::count(Counter::HashMessages, messages);
}

impl HashFunction for TracedSha256 {
    type Digest = <Sha256 as HashFunction>::Digest;
    type State = <Sha256 as HashFunction>::State;
    const DIGEST_LEN: usize = Sha256::DIGEST_LEN;
    const BLOCK_LEN: usize = Sha256::BLOCK_LEN;
    const NAME: &'static str = Sha256::NAME;

    fn new_state() -> Self::State {
        Sha256::new_state()
    }

    fn digest_from_bytes(bytes: &[u8]) -> Option<Self::Digest> {
        Sha256::digest_from_bytes(bytes)
    }

    fn update(state: &mut Self::State, data: &[u8]) {
        trace::span(Layer::Hash, || Sha256::update(state, data));
    }

    fn finalize(state: Self::State) -> Self::Digest {
        hashed(Counter::HashDigest, 1);
        trace::span(Layer::Hash, || Sha256::finalize(state))
    }

    fn digest(data: &[u8]) -> Self::Digest {
        hashed(Counter::HashDigest, 1);
        trace::span(Layer::Hash, || Sha256::digest(data))
    }

    fn digest_pair(a: &[u8], b: &[u8]) -> Self::Digest {
        hashed(Counter::HashPair, 1);
        trace::span(Layer::Hash, || Sha256::digest_pair(a, b))
    }

    fn digest_iterated(input: &[u8], iterations: u64) -> Self::Digest {
        hashed(Counter::HashIterated, iterations);
        trace::span(Layer::Hash, || Sha256::digest_iterated(input, iterations))
    }

    fn digest_lanes_4(msgs: &[(&[u8], &[u8]); 4]) -> [Self::Digest; 4] {
        hashed(Counter::HashLanes4, 4);
        trace::count(Counter::HashLaneMessages, 4);
        trace::span(Layer::Hash, || Sha256::digest_lanes_4(msgs))
    }

    fn digest_lanes_8(msgs: &[(&[u8], &[u8]); 8]) -> [Self::Digest; 8] {
        hashed(Counter::HashLanes8, 8);
        trace::count(Counter::HashLaneMessages, 8);
        trace::span(Layer::Hash, || Sha256::digest_lanes_8(msgs))
    }

    fn digest_to_u64(digest: &Self::Digest) -> u64 {
        Sha256::digest_to_u64(digest)
    }
}

/// A compute task, counted and timed.
pub struct TracedTask<'a>(pub &'a dyn ComputeTask);

impl ComputeTask for TracedTask<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn output_width(&self) -> usize {
        self.0.output_width()
    }

    fn compute(&self, x: u64) -> Vec<u8> {
        trace::count(Counter::TaskCompute, 1);
        trace::span(Layer::Task, || self.0.compute(x))
    }

    fn compute_batch(&self, xs: &[u64]) -> Vec<Vec<u8>> {
        trace::count(Counter::TaskBatch, 1);
        trace::span(Layer::Task, || self.0.compute_batch(xs))
    }

    fn verify(&self, x: u64, claimed: &[u8]) -> bool {
        trace::count(Counter::TaskVerify, 1);
        trace::span(Layer::Task, || self.0.verify(x, claimed))
    }

    fn cheap_verification(&self) -> bool {
        self.0.cheap_verification()
    }

    fn unit_cost(&self) -> u64 {
        self.0.unit_cost()
    }
}

/// A verification scheme whose sessions are counted and timed.
pub struct TracedScheme<H: HashFunction>(pub Box<dyn VerificationScheme<H>>);

impl<H: HashFunction> VerificationScheme<H> for TracedScheme<H> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn participant_slots(&self) -> usize {
        self.0.participant_slots()
    }

    fn supervisor_session<'a>(
        &'a self,
        ctx: SupervisorContext<'a>,
    ) -> Box<dyn SupervisorSession + 'a> {
        Box::new(TracedSupervisor {
            inner: self.0.supervisor_session(ctx),
            started: None,
        })
    }

    fn participant_session<'a>(
        &'a self,
        ctx: ParticipantContext<'a>,
    ) -> Box<dyn ParticipantSession + 'a> {
        Box::new(TracedParticipant(self.0.participant_session(ctx)))
    }
}

struct TracedSupervisor<'a> {
    inner: Box<dyn SupervisorSession + 'a>,
    /// When `start` ran; cleared once the verdict latency is recorded.
    started: Option<Instant>,
}

impl SupervisorSession for TracedSupervisor<'_> {
    fn start(&mut self) -> Result<Vec<Outbound>, SchemeError> {
        trace::count(Counter::SupervisorCalls, 1);
        self.started = Some(clock::now());
        trace::span(Layer::Supervisor, || self.inner.start())
    }

    fn on_message(&mut self, slot: usize, msg: Message) -> Result<Vec<Outbound>, SchemeError> {
        trace::count(Counter::SupervisorCalls, 1);
        trace::span(Layer::Supervisor, || self.inner.on_message(slot, msg))
    }

    fn is_stale(&self, slot: usize, msg: &Message) -> bool {
        trace::count(Counter::SupervisorCalls, 1);
        trace::span(Layer::Supervisor, || self.inner.is_stale(slot, msg))
    }

    fn on_peer_gone(&mut self, slot: usize) -> Result<(), SchemeError> {
        trace::count(Counter::SupervisorCalls, 1);
        trace::span(Layer::Supervisor, || self.inner.on_peer_gone(slot))
    }

    fn take_outcome(&mut self) -> Option<SessionOutcome> {
        trace::count(Counter::SupervisorCalls, 1);
        let outcome = trace::span(Layer::Supervisor, || self.inner.take_outcome());
        if outcome.is_some() {
            if let Some(started) = self.started.take() {
                trace::verdict_latency(clock::ms(clock::now().duration_since(started)));
            }
        }
        outcome
    }
}

struct TracedParticipant<'a>(Box<dyn ParticipantSession + 'a>);

impl ParticipantSession for TracedParticipant<'_> {
    fn on_message(&mut self, msg: Message) -> Result<Vec<Message>, SchemeError> {
        trace::count(Counter::ParticipantCalls, 1);
        trace::span(Layer::Participant, || self.0.on_message(msg))
    }

    fn finished(&self) -> Option<bool> {
        self.0.finished()
    }
}

/// The in-process backend, with its engine side traced and its broker
/// pump's relay counters collected.
pub struct TracedBackend(pub InProcessBackend);

impl TransportBackend for TracedBackend {
    fn kind(&self) -> TransportKind {
        self.0.kind()
    }

    fn open_round(&mut self, spec: &RoundSpec<'_>) -> Result<OpenRound, SchemeError> {
        let round = self.0.open_round(spec)?;
        let pump = round.pump.map(|pump| {
            trace::count(Counter::BrokerRounds, 1);
            // Joined by the orchestrator exactly where it joins the pump;
            // a pump panic is re-raised so it surfaces unchanged.
            std::thread::spawn(move || match pump.join() {
                Ok(stats) => {
                    trace::count(Counter::RelayedOutward, stats.outward);
                    trace::count(Counter::RelayedInward, stats.inward);
                    stats
                }
                Err(panic) => std::panic::resume_unwind(panic),
            })
        });
        Ok(OpenRound {
            engine_side: EngineSide::Shared(Box::new(TracedTransport(round.engine_side))),
            local_links: round.local_links,
            fault_logs: round.fault_logs,
            pump,
        })
    }

    fn close_round(&mut self, slots: usize) -> Result<Vec<SlotReport>, SchemeError> {
        self.0.close_round(slots)
    }
}

/// The engine's side of the transport, counted, timed and captured.
struct TracedTransport(EngineSide);

fn captured(event: &EngineEvent) {
    if let EngineEvent::Message(msg, _) = event {
        trace::capture(msg);
    }
}

impl EngineTransport for TracedTransport {
    fn send(&mut self, routing_id: u64, msg: &Message) -> Result<u64, GridError> {
        trace::count(Counter::EngineSend, 1);
        trace::capture(msg);
        trace::span(Layer::Transport, || self.0.send(routing_id, msg))
    }

    fn recv(&mut self) -> Result<EngineEvent, GridError> {
        trace::count(Counter::EngineRecv, 1);
        let event = trace::span(Layer::TransportRecv, || self.0.recv());
        if let Ok(event) = &event {
            captured(event);
        }
        event
    }

    fn try_recv(&mut self) -> Result<Option<EngineEvent>, GridError> {
        trace::count(Counter::EngineTryRecv, 1);
        let event = trace::span(Layer::Transport, || self.0.try_recv());
        match &event {
            Ok(Some(event)) => captured(event),
            Ok(None) => trace::count(Counter::EngineIdle, 1),
            Err(_) => {}
        }
        event
    }
}
