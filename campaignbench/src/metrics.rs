//! Figures gathered over a phase, the metrics derived from them, and the
//! result line.

use crate::clock;
use crate::host;
use crate::trace::{self, Counter, Layer, BUSY_LAYERS};
use crate::workload::{self, Campaign, Inputs};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use ugc_core::analysis::cbs_traffic_bytes;
use ugc_core::FleetSummary;
use ugc_grid::runtime::FaultEvent;
use ugc_grid::{Message, FRAME_HEADER_BYTES};
use ugc_hash::{HashFunction, Sha256};
use ugc_journal::{read_journal, JournalWriter};
use ugc_task::ComputeTask;

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank) of `values`; 0 when empty.
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Campaigns per tail window: ten beyond the tail puts it at p90.9.
const TAIL_WINDOW: usize = 110;

/// The highest percentile with at least ten campaigns beyond it, taken in
/// consecutive windows of [`TAIL_WINDOW`] campaigns and reported as the
/// median over windows, so one host stall cannot set a whole run's tail.
/// A run too short for two windows is one window; a remainder shorter
/// than a window is left out. Returns the tail, its percentile, the
/// window size and the window count.
fn tail(walls: &[f64]) -> (f64, f64, usize, usize) {
    let windows: Vec<&[f64]> = if walls.len() < 2 * TAIL_WINDOW {
        vec![walls]
    } else {
        walls.chunks_exact(TAIL_WINDOW).collect()
    };
    let mut tails: Vec<f64> = windows
        .iter()
        .map(|window| {
            let mut sorted = window.to_vec();
            sorted.sort_by(f64::total_cmp);
            sorted[sorted.len().saturating_sub(11)]
        })
        .collect();
    let n = windows[0].len();
    let pct = 100.0 * n.saturating_sub(10) as f64 / n as f64;
    (median(&mut tails), pct, n, windows.len())
}

/// Exact counts over one campaign per fault schedule: the first
/// campaigns of a phase, one per schedule. Counted that way they repeat
/// bit-for-bit at a seed however many campaigns the phase fits in.
#[derive(Default)]
struct Ops {
    campaigns: u64,
    sessions: u64,
    settled: u64,
    supervisor_hash_ops: u64,
    supervisor_f_evals: u64,
    participant_hash_ops: u64,
    bytes: u64,
    messages: u64,
    /// Dropped, duplicated, reordered, delayed, crashed.
    faults: [u64; 5],
    delay_us: u64,
    retry_rounds: u64,
}

impl Ops {
    fn add(&mut self, summary: &FleetSummary) {
        self.campaigns += 1;
        self.sessions += summary.throughput.sessions;
        self.settled += summary.members.len() as u64;
        self.bytes += summary.throughput.bytes;
        for member in &summary.members {
            let outcome = &member.outcome;
            self.supervisor_hash_ops += outcome.supervisor_costs.hash_ops;
            self.supervisor_f_evals += outcome.supervisor_costs.f_evals;
            self.participant_hash_ops += outcome.participant_costs.hash_ops;
            self.messages +=
                outcome.supervisor_link.messages_sent + outcome.supervisor_link.messages_received;
        }
        for event in &summary.fault_events {
            let kind = match event {
                FaultEvent::Dropped { .. } => 0,
                FaultEvent::Duplicated { .. } => 1,
                FaultEvent::Reordered { .. } => 2,
                FaultEvent::Delayed { micros, .. } => {
                    self.delay_us += u64::from(*micros);
                    3
                }
                FaultEvent::Crashed { .. } => 4,
            };
            self.faults[kind] += 1;
        }
        let rounds = summary
            .members
            .iter()
            .map(|m| m.attempts)
            .max()
            .unwrap_or(1);
        self.retry_rounds += u64::from(rounds.saturating_sub(1));
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Figures {
    walls_ms: Vec<f64>,
    /// Sessions over every campaign of the phase (for rates).
    sessions: u64,
    ops: Ops,
    resume_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    /// Engine traffic of the phase's first campaign (traced phase only)
    /// and that campaign's session count.
    pub capture: Vec<Message>,
    pub capture_sessions: u64,
    /// Trace counters once every fault schedule ran once (traced phase).
    pub counts: Option<trace::Counts>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Figures {
    pub fn campaigns(&self) -> usize {
        self.walls_ms.len()
    }

    /// Whether every fault schedule has run once in this phase.
    pub fn covered(&self, inputs: &Inputs) -> bool {
        self.campaigns() >= inputs.plans()
    }

    /// Checks `campaign` — the phase's next, run with
    /// `inputs.config(self.campaigns())` — and adds it. `digests` holds
    /// each fault schedule's digest, shared by every phase of the run.
    pub fn add(
        &mut self,
        inputs: &Inputs,
        campaign: &Campaign,
        digests: &mut [Option<String>],
    ) -> Result<(), String> {
        workload::check_verdicts(inputs, &campaign.summary)?;
        let index = self.campaigns();
        match &digests[index % digests.len()] {
            Some(digest) if *digest != campaign.digest => {
                return Err(format!(
                    "campaign {} digest {} differs from its schedule's {digest}",
                    index + 1,
                    campaign.digest
                ));
            }
            Some(_) => {}
            None => digests[index % digests.len()] = Some(campaign.digest.clone()),
        }
        let summary = &campaign.summary;
        self.walls_ms.push(campaign.wall_ms);
        self.sessions += summary.throughput.sessions;
        if index < inputs.plans() {
            self.ops.add(summary);
        }
        if let Some(journal) = &campaign.journal {
            self.resume_ms.push(journal.resume_ms);
            self.verify_ms.push(journal.verify_ms);
        }
        Ok(())
    }

    fn p50_ms(&self) -> f64 {
        median(&mut self.walls_ms.clone())
    }
}

/// The result of a run: metrics in report order plus the counts the
/// result line carries.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn print_human(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.4} {unit}");
        }
    }

    /// The result line. Non-finite values cannot occur ([`ratio`] guards
    /// every division) but would be written as 0 rather than break JSON.
    pub fn json(&self, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(report: &mut Report, plain: &Figures, setup_s: f64) {
    let campaign_s: f64 = plain.walls_ms.iter().sum::<f64>() / 1e3;
    let ops = &plain.ops;
    let sessions = ops.sessions as f64;
    let settled = ops.settled as f64;
    let (tail_ms, tail_pct, n, windows) = tail(&plain.walls_ms);
    report.note(format!(
        "campaign_ms_tail is p{tail_pct:.1} of {n} campaigns, median over {windows} window(s) \
         of {} campaigns; failed_attempt_share {}",
        plain.campaigns(),
        1.0 - ratio(settled, sessions)
    ));
    report.push(
        "sessions_per_s",
        ratio(plain.sessions as f64, campaign_s),
        "1/s",
    );
    report.push("campaign_ms_p50", plain.p50_ms(), "ms");
    report.push("campaign_ms_tail", tail_ms, "ms");
    report.push(
        "cpu_ms_per_session",
        ratio(plain.cpu_s * 1e3, plain.sessions as f64),
        "ms",
    );
    report.push("setup_s", setup_s, "s");
    report.push("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB");
    report.push(
        "supervisor_hash_ops_per_session",
        ratio(ops.supervisor_hash_ops as f64, sessions),
        "count",
    );
    report.push(
        "supervisor_f_evals_per_session",
        ratio(ops.supervisor_f_evals as f64, sessions),
        "count",
    );
    report.push(
        "participant_hash_ops_per_session",
        ratio(ops.participant_hash_ops as f64, sessions),
        "count",
    );
    report.push("bytes_per_session", ratio(ops.bytes as f64, settled), "B");
    report.push(
        "messages_per_session",
        ratio(ops.messages as f64, settled),
        "count",
    );
    report.push("settled_attempt_share", ratio(settled, sessions), "ratio");
}

/// Message kinds in tag order, as the codec layer reports them.
const KINDS: [&str; 12] = [
    "codec.messages_by_kind.assign",
    "codec.messages_by_kind.commit",
    "codec.messages_by_kind.challenge",
    "codec.messages_by_kind.proofs",
    "codec.messages_by_kind.commit_and_proofs",
    "codec.messages_by_kind.all_results",
    "codec.messages_by_kind.reports",
    "codec.messages_by_kind.ringer_challenge",
    "codec.messages_by_kind.ringer_found",
    "codec.messages_by_kind.verdict",
    "codec.messages_by_kind.session",
    "codec.messages_by_kind.gone",
];

fn kind_index(msg: &Message) -> usize {
    match msg {
        Message::Assign(_) => 0,
        Message::Commit { .. } => 1,
        Message::Challenge { .. } => 2,
        Message::Proofs { .. } => 3,
        Message::CommitAndProofs { .. } => 4,
        Message::AllResults { .. } => 5,
        Message::Reports { .. } => 6,
        Message::RingerChallenge { .. } => 7,
        Message::RingerFound { .. } => 8,
        Message::Verdict { .. } => 9,
        Message::Session { .. } => 10,
        Message::Gone { .. } => 11,
    }
}

/// Repeats `pass` until at least 20 ms and three passes have run;
/// returns nanoseconds per item.
fn ns_per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    let start = clock::now();
    let mut passes = 0u32;
    while passes < 3 || start.elapsed().as_millis() < 20 {
        pass();
        passes += 1;
    }
    ratio(
        start.elapsed().as_nanos() as f64,
        f64::from(passes) * items as f64,
    )
}

/// Replays the captured traffic through the codec: checks every
/// message round-trips, then times encode and decode.
fn codec(
    report: &mut Report,
    capture: &[Message],
    sessions_per_campaign: f64,
) -> Result<(), String> {
    let mut by_kind = [0u64; KINDS.len()];
    let mut frames = Vec::with_capacity(capture.len());
    for msg in capture {
        by_kind[kind_index(msg)] += 1;
        let frame = msg.encode();
        let back = Message::decode(&frame).map_err(|e| format!("codec replay: {e}"))?;
        if &back != msg {
            return Err("codec replay: a captured message did not round-trip".to_string());
        }
        frames.push(frame);
    }
    for (name, count) in KINDS.iter().zip(by_kind) {
        report.push(name, ratio(count as f64, sessions_per_campaign), "count");
    }
    let bytes: usize = frames.iter().map(Vec::len).sum();
    report.push(
        "codec.bytes_per_message",
        ratio(bytes as f64, capture.len() as f64),
        "B",
    );
    let mut buf = Vec::new();
    let encode = ns_per_item(capture.len().max(1), || {
        for msg in capture {
            buf.clear();
            msg.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let decode = ns_per_item(capture.len().max(1), || {
        for frame in &frames {
            black_box(Message::decode(black_box(frame)).is_ok());
        }
    });
    report.push("codec.encode_ns_per_message", encode, "ns");
    report.push("codec.decode_ns_per_message", decode, "ns");
    Ok(())
}

const JOURNAL_METRICS: [(&str, &str); 5] = [
    ("journal.records_per_session", "count"),
    ("journal.bytes_per_session", "B"),
    ("journal.append_us_per_record", "us"),
    ("journal.resume_ms", "ms"),
    ("journal.verify_ms", "ms"),
];

/// Journal figures of a durable run: the last campaign's journal read
/// back, its record payloads replayed through a fresh writer.
fn journal(
    report: &mut Report,
    traced: &Figures,
    scratch: &Path,
    path: Option<&Path>,
) -> Result<(), String> {
    let Some(path) = path else {
        for (name, unit) in JOURNAL_METRICS {
            report.push(name, 0.0, unit);
        }
        return Ok(());
    };
    let read = read_journal(path).map_err(|e| format!("journal read: {e}"))?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("journal size: {e}"))?
        .len();
    let replay = scratch.join("replay.wal");
    let _ = std::fs::remove_file(&replay);
    let mut writer = JournalWriter::create(&replay).map_err(|e| format!("journal replay: {e}"))?;
    let start = clock::now();
    for record in &read.records {
        writer
            .append(&record.payload)
            .map_err(|e| format!("journal replay: {e}"))?;
    }
    let append_us = clock::ms(start.elapsed()) * 1e3;
    let sealed = writer.seal().map_err(|e| format!("journal replay: {e}"))?;
    if sealed != read.digest {
        return Err("journal replay sealed a different chain digest".to_string());
    }
    drop(writer);
    let _ = std::fs::remove_file(&replay);
    // The journal on disk is the phase's last campaign's.
    let sessions = ratio(traced.sessions as f64, traced.campaigns() as f64);
    let records = read.records.len() as f64;
    let values = [
        ratio(records, sessions),
        ratio(bytes as f64, sessions),
        ratio(append_us, records),
        median(&mut traced.resume_ms.clone()),
        median(&mut traced.verify_ms.clone()),
    ];
    for ((name, unit), value) in JOURNAL_METRICS.into_iter().zip(values) {
        report.push(name, value, unit);
    }
    Ok(())
}

/// The per-layer metrics of a traced run. Call counts come from the
/// counters once every fault schedule ran once, so they are exact at a
/// seed; times are over every traced campaign.
pub fn per_layer(
    report: &mut Report,
    plain: &Figures,
    traced: &Figures,
    scratch: &Path,
    journal_path: Option<&Path>,
) -> Result<(), String> {
    let counts = traced.counts.unwrap_or_else(trace::Counts::now);
    let sessions = traced.ops.sessions as f64;
    let campaigns = traced.campaigns() as f64;
    let count = |c: Counter| counts.get(c) as f64;
    let per_session = |c: Counter| ratio(count(c), sessions);
    let per_campaign_ms = |l: Layer| ratio(trace::self_ms(l), campaigns);

    report.push(
        "task.compute_calls_per_session",
        per_session(Counter::TaskCompute),
        "count",
    );
    report.push(
        "task.batch_calls_per_session",
        per_session(Counter::TaskBatch),
        "count",
    );
    report.push(
        "task.verify_calls_per_session",
        per_session(Counter::TaskVerify),
        "count",
    );
    report.push(
        "task.self_ms_per_campaign",
        per_campaign_ms(Layer::Task),
        "ms",
    );

    report.push(
        "hash.digest_calls_per_session",
        per_session(Counter::HashDigest),
        "count",
    );
    report.push(
        "hash.pair_calls_per_session",
        per_session(Counter::HashPair),
        "count",
    );
    report.push(
        "hash.lanes4_calls_per_session",
        per_session(Counter::HashLanes4),
        "count",
    );
    report.push(
        "hash.lanes8_calls_per_session",
        per_session(Counter::HashLanes8),
        "count",
    );
    report.push(
        "hash.iterated_calls_per_session",
        per_session(Counter::HashIterated),
        "count",
    );
    report.push(
        "hash.lane_fill",
        ratio(
            count(Counter::HashLaneMessages),
            count(Counter::HashMessages),
        ),
        "ratio",
    );
    report.push(
        "hash.self_ms_per_campaign",
        per_campaign_ms(Layer::Hash),
        "ms",
    );

    report.push(
        "session.supervisor_self_ms_per_campaign",
        per_campaign_ms(Layer::Supervisor),
        "ms",
    );
    report.push(
        "session.participant_self_ms_per_campaign",
        per_campaign_ms(Layer::Participant),
        "ms",
    );
    report.push(
        "session.supervisor_calls_per_session",
        per_session(Counter::SupervisorCalls),
        "count",
    );
    report.push(
        "session.participant_calls_per_session",
        per_session(Counter::ParticipantCalls),
        "count",
    );
    let mut verdicts = trace::verdict_latencies();
    report.push(
        "session.verdict_ms_p50",
        percentile(&mut verdicts, 50.0),
        "ms",
    );
    report.push(
        "session.verdict_ms_p99",
        percentile(&mut verdicts, 99.0),
        "ms",
    );

    let idle = count(Counter::EngineIdle);
    let polls = count(Counter::EngineRecv) + count(Counter::EngineTryRecv);
    report.push(
        "engine.send_calls_per_session",
        per_session(Counter::EngineSend),
        "count",
    );
    report.push(
        "engine.recv_calls_per_session",
        ratio(polls, sessions),
        "count",
    );
    report.push(
        "engine.idle_polls_per_session",
        ratio(idle, sessions),
        "count",
    );
    report.push(
        "engine.idle_to_useful_ratio",
        ratio(idle, polls - idle),
        "ratio",
    );
    report.push(
        "engine.transport_self_ms_per_campaign",
        per_campaign_ms(Layer::Transport) + per_campaign_ms(Layer::TransportRecv),
        "ms",
    );
    report.push(
        "engine.recv_blocked_ms_per_campaign",
        per_campaign_ms(Layer::TransportRecv),
        "ms",
    );

    report.push(
        "broker.relayed_messages_per_session",
        ratio(
            count(Counter::RelayedOutward) + count(Counter::RelayedInward),
            sessions,
        ),
        "count",
    );
    report.push(
        "broker.rounds_per_campaign",
        ratio(count(Counter::BrokerRounds), traced.ops.campaigns as f64),
        "count",
    );

    faults(report, &traced.ops, plain.p50_ms());
    codec(report, &traced.capture, traced.capture_sessions as f64)?;
    journal(report, traced, scratch, journal_path)?;

    report.push(
        "failed_attempt_share",
        1.0 - ratio(traced.ops.settled as f64, sessions),
        "ratio",
    );
    let cpu_ms = traced.cpu_s * 1e3;
    let attributed: f64 = BUSY_LAYERS.iter().map(|&l| trace::self_ms(l)).sum();
    report.push(
        "unattributed_cpu_share",
        ratio(cpu_ms - attributed, cpu_ms),
        "ratio",
    );
    report.push(
        "tracing_overhead",
        ratio(traced.p50_ms(), plain.p50_ms()),
        "ratio",
    );
    report.note(format!(
        "traced: {} campaigns, {} sessions, {cpu_ms:.1} ms CPU, {attributed:.1} ms attributed \
         over {} spans",
        traced.campaigns(),
        traced.sessions,
        BUSY_LAYERS
            .iter()
            .chain([&Layer::TransportRecv])
            .map(|&l| trace::spans(l))
            .sum::<u64>()
    ));
    Ok(())
}

/// Fault counts per campaign, exact from the campaigns' fault logs, and
/// the injected sleep against the untraced median campaign time.
fn faults(report: &mut Report, ops: &Ops, campaign_ms_p50: f64) {
    let campaigns = ops.campaigns as f64;
    let names = [
        "fault.dropped_per_campaign",
        "fault.duplicated_per_campaign",
        "fault.reordered_per_campaign",
        "fault.delayed_per_campaign",
        "fault.crashed_per_campaign",
    ];
    for (name, count) in names.iter().zip(ops.faults) {
        report.push(name, ratio(count as f64, campaigns), "count");
    }
    let delay_ms = ratio(ops.delay_us as f64 / 1e3, campaigns);
    report.push("fault.injected_delay_ms_per_campaign", delay_ms, "ms");
    report.push(
        "fault.injected_delay_share",
        ratio(delay_ms, campaign_ms_p50),
        "ratio",
    );
    report.push(
        "fault.retry_rounds_per_campaign",
        ratio(ops.retry_rounds as f64, campaigns),
        "count",
    );
}

/// The paper's cost model on `cbs_paper`: per session the supervisor
/// re-evaluates `f` once per sample and hashes `log2(share)` times per
/// sample, and the bytes on the wire are the paper's closed-form CBS
/// payload plus the codec's tags and length prefixes plus one frame
/// header per message.
pub fn check_cbs_cost_model(inputs: &Inputs, summary: &FleetSummary) -> Result<(), String> {
    let m = workload::CBS_SAMPLES as u64;
    let leaf = inputs.task.output_width() as u64;
    let digest = Sha256::DIGEST_LEN as u64;
    for member in &summary.members {
        let share = member.share.len();
        if !share.is_power_of_two() {
            return Err(format!("cbs_paper share {share} is not a power of two"));
        }
        let log2 = u64::from(share.trailing_zeros());
        let height = ugc_merkle::tree_height(share);
        let costs = &member.outcome.supervisor_costs;
        let link = &member.outcome.supervisor_link;
        // Participant → supervisor: Commit, Proofs, Reports.
        let paper = cbs_traffic_bytes(m, height, leaf, digest);
        let commit_framing = 1 + 8 + 8;
        let proof_framing = 1 + 8 + 8 + m * (8 + 8 + 8 + 8 + 8 * u64::from(height - 1));
        let reports: u64 = 1
            + 8
            + 8
            + member
                .outcome
                .reports
                .iter()
                .map(|r| 8 + 8 + r.payload.len() as u64)
                .sum::<u64>();
        let received = paper + commit_framing + proof_framing + reports + 3 * FRAME_HEADER_BYTES;
        // Supervisor → participant: Assign, Challenge, Verdict.
        let sent = (1 + 24) + (1 + 8 + 8 + 8 * m) + (1 + 8 + 1) + 3 * FRAME_HEADER_BYTES;
        let expected = [
            ("supervisor hash ops", costs.hash_ops, m * log2),
            ("supervisor f evaluations", costs.f_evals, m),
            ("bytes received", link.bytes_received, received),
            ("bytes sent", link.bytes_sent, sent),
        ];
        for (what, got, want) in expected {
            if got != want {
                return Err(format!(
                    "cbs_paper member {}: {what} {got}, cost model says {want} \
                     (m {m}, share {share}, height {height})",
                    member.participant
                ));
            }
        }
    }
    println!(
        "cost model: every cbs_paper session matches m*log2(share) supervisor hashes, m f-evals \
         and cbs_traffic_bytes plus framing, exactly"
    );
    Ok(())
}
