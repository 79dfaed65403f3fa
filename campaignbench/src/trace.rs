//! The span recorder behind the traced run.
//!
//! Every wrapper in [`crate::traced`] opens a span around the call it
//! forwards. Open spans live on a per-thread stack; when one closes, its
//! duration is added to its parent's child time, and its *self* time —
//! duration minus the child spans it covered on the same thread — is
//! added to its layer's totals. Totals and call counters are atomics in
//! per-thread shards (so hashing threads do not contend on one cache
//! line), summed when read once the traced phase ends; nothing depends on
//! thread exit order. Nothing here is read by the campaigns themselves.

use crate::clock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use ugc_grid::Message;

/// A layer the benchmark can reach from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ComputeTask` calls (including PasswordSearch's own MD5).
    Task,
    /// The protocol `HashFunction`.
    Hash,
    /// Supervisor session state machines.
    Supervisor,
    /// Participant session state machines.
    Participant,
    /// The engine's transport: `send` and `try_recv`.
    Transport,
    /// The engine's blocking `recv`: mostly time spent waiting for
    /// participants, so it is not counted as attributed CPU.
    TransportRecv,
    /// Journal read-back: resume and verify.
    Journal,
}

const LAYER_COUNT: usize = 7;

/// The layers whose self time counts as attributed CPU: every layer but
/// the blocking receive.
pub const BUSY_LAYERS: [Layer; 6] = [
    Layer::Task,
    Layer::Hash,
    Layer::Supervisor,
    Layer::Participant,
    Layer::Transport,
    Layer::Journal,
];

/// Call counters at the wrapped seams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    TaskCompute,
    TaskBatch,
    TaskVerify,
    HashDigest,
    HashPair,
    HashLanes4,
    HashLanes8,
    HashIterated,
    /// Messages hashed through any entry point.
    HashMessages,
    /// Messages hashed through the 4- and 8-lane kernels.
    HashLaneMessages,
    SupervisorCalls,
    ParticipantCalls,
    EngineSend,
    EngineRecv,
    EngineTryRecv,
    /// `try_recv` calls that returned nothing.
    EngineIdle,
    /// Rounds that ran a broker pump.
    BrokerRounds,
    RelayedOutward,
    RelayedInward,
}

const COUNTERS: usize = 19;

/// One thread's share of the totals. Statistics only (`Relaxed`): they
/// publish no other data.
#[repr(align(64))]
struct Shard {
    spans: [AtomicU64; LAYER_COUNT],
    self_ns: [AtomicU64; LAYER_COUNT],
    counts: [AtomicU64; COUNTERS],
}

const SHARDS: usize = 16;

static SHARD_TABLE: [Shard; SHARDS] = [const {
    Shard {
        spans: [const { AtomicU64::new(0) }; LAYER_COUNT],
        self_ns: [const { AtomicU64::new(0) }; LAYER_COUNT],
        counts: [const { AtomicU64::new(0) }; COUNTERS],
    }
}; SHARDS];

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

struct Open {
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard() -> &'static Shard {
    &SHARD_TABLE[SHARD.with(|s| *s)]
}

/// Whether spans are being recorded: only during the traced phase, so
/// layer totals and the phase's CPU time cover the same campaigns.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Starts recording spans.
pub fn enable() {
    TRACING.store(true, Ordering::SeqCst);
}

/// Runs `f`, inside a span of `layer` while tracing is enabled.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !TRACING.load(Ordering::Relaxed) {
        return f();
    }
    STACK.with(|s| {
        s.borrow_mut().push(Open {
            start: clock::now(),
            child_ns: 0,
        });
    });
    let result = f();
    let end = clock::now();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let open = stack.pop().expect("span stack is balanced");
        let total = u64::try_from(end.duration_since(open.start).as_nanos()).unwrap_or(u64::MAX);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += total;
        }
        let shard = shard();
        shard.spans[layer as usize].fetch_add(1, Ordering::Relaxed);
        shard.self_ns[layer as usize]
            .fetch_add(total.saturating_sub(open.child_ns), Ordering::Relaxed);
    });
    result
}

/// Adds `n` to `counter`.
pub fn count(counter: Counter, n: u64) {
    shard().counts[counter as usize].fetch_add(n, Ordering::Relaxed);
}

fn sum(field: impl Fn(&Shard) -> &AtomicU64) -> u64 {
    SHARD_TABLE
        .iter()
        .map(|s| field(s).load(Ordering::Relaxed))
        .sum()
}

/// Every counter's value at one moment.
#[derive(Debug, Clone, Copy)]
pub struct Counts([u64; COUNTERS]);

impl Counts {
    /// The counters now.
    pub fn now() -> Self {
        Counts(std::array::from_fn(|i| sum(|s| &s.counts[i])))
    }

    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }
}

/// Self time of `layer` so far, in milliseconds.
pub fn self_ms(layer: Layer) -> f64 {
    sum(|s| &s.self_ns[layer as usize]) as f64 / 1e6
}

/// Spans closed in `layer` so far.
pub fn spans(layer: Layer) -> u64 {
    sum(|s| &s.spans[layer as usize])
}

/// Per-session verdict latencies (ms), from `start` to the first
/// `take_outcome` that returned a verdict.
static VERDICT_MS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Records one session's verdict latency.
pub fn verdict_latency(ms: f64) {
    VERDICT_MS
        .lock()
        .expect("verdict latency list poisoned by a panicking session")
        .push(ms);
}

/// Every verdict latency recorded so far.
pub fn verdict_latencies() -> Vec<f64> {
    VERDICT_MS
        .lock()
        .expect("verdict latency list poisoned by a panicking session")
        .clone()
}

/// Messages the engine sent and received while capture was on: the
/// corpus the codec layer is replayed from.
static CAPTURE: Mutex<Vec<Message>> = Mutex::new(Vec::new());
static CAPTURING: AtomicBool = AtomicBool::new(false);

/// Starts capturing engine traffic.
pub fn start_capture() {
    CAPTURING.store(true, Ordering::SeqCst);
}

/// Stops capturing and returns what was captured.
pub fn take_capture() -> Vec<Message> {
    CAPTURING.store(false, Ordering::SeqCst);
    std::mem::take(&mut *CAPTURE.lock().expect("capture poisoned"))
}

/// Captures `msg` if capture is on.
pub fn capture(msg: &Message) {
    if CAPTURING.load(Ordering::SeqCst) {
        CAPTURE.lock().expect("capture poisoned").push(msg.clone());
    }
}
