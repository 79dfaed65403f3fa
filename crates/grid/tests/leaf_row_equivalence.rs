//! The batched commitment path must be invisible: for every behaviour,
//! and behind every wrapper, `leaf_values_into` writes exactly the
//! concatenated per-index `leaf_value`s, charges the same `f`
//! evaluations and induces the same screened reports — and the honest
//! behaviours' batched override must survive the `&`, `Box` and `Arc`
//! indirections instead of falling back to per-leaf evaluation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ugc_grid::{
    CheatSelection, CostLedger, HonestWorker, MaliciousWorker, SemiHonestCheater, WorkerBehaviour,
};
use ugc_task::workloads::PasswordSearch;
use ugc_task::{AcceptAllScreener, ComputeTask, Domain, ScreenReport, ZeroGuesser};

/// Around the 1024-leaf batch boundary, plus a ragged multi-batch tail.
const SIZES: [u64; 5] = [1, 1023, 1024, 1025, 3 * 1024 + 5];

/// The behaviour behind each of its wrappers: bare, `&B`, `Box<B>`,
/// `Box<dyn WorkerBehaviour>` and `Arc<B>`.
fn wrapped<'a, B: WorkerBehaviour + Clone + 'a>(
    b: &'a B,
) -> Vec<(&'static str, Box<dyn WorkerBehaviour + 'a>)> {
    vec![
        ("bare", Box::new(b.clone())),
        ("&", Box::new(b)),
        ("Box", Box::new(Box::new(b.clone()))),
        (
            "Box<dyn>",
            Box::new(Box::new(b.clone()) as Box<dyn WorkerBehaviour + 'a>),
        ),
        ("Arc", Box::new(Arc::new(b.clone()))),
    ]
}

/// The cheating models besides the honest worker: a prefix and a
/// scattered semi-honest cheater, and a malicious worker.
fn cheaters() -> (
    SemiHonestCheater<ZeroGuesser>,
    SemiHonestCheater<ZeroGuesser>,
    MaliciousWorker,
) {
    (
        SemiHonestCheater::new(0.6, CheatSelection::Prefix, ZeroGuesser::new(3), 5),
        SemiHonestCheater::new(0.4, CheatSelection::Scattered, ZeroGuesser::new(8), 13),
        MaliciousWorker::new(0.3, 21),
    )
}

/// Reports screened from `width`-byte leaves laid out in `row`.
fn reports(
    behaviour: &dyn WorkerBehaviour,
    domain: Domain,
    row: &[u8],
    width: usize,
) -> Vec<ScreenReport> {
    (0..)
        .zip(row.chunks_exact(width))
        .filter_map(|(i, value)| behaviour.report_for(&AcceptAllScreener, domain, i, value))
        .collect()
}

#[test]
fn flat_row_equals_per_leaf_values() {
    let task = PasswordSearch::with_hidden_password(17, 40);
    let width = task.output_width();
    let (prefix, scattered, malicious) = cheaters();
    let all = [
        wrapped(&HonestWorker),
        wrapped(&prefix),
        wrapped(&scattered),
        wrapped(&malicious),
    ];
    for (wrapper, behaviour) in all.iter().flatten() {
        let behaviour = behaviour.as_ref();
        let name = format!("{} behind {wrapper}", behaviour.name());
        for n in SIZES {
            let domain = Domain::new(1000, n);
            let per_leaf_ledger = CostLedger::new();
            let per_leaf: Vec<u8> = (0..n)
                .flat_map(|i| behaviour.leaf_value(&task, domain, i, &per_leaf_ledger))
                .collect();
            let row_ledger = CostLedger::new();
            let mut row = Vec::new();
            behaviour.leaf_values_into(&task, domain, 0..n, &row_ledger, &mut row);
            assert_eq!(row, per_leaf, "{name} n={n}");
            assert_eq!(
                row_ledger.report(),
                per_leaf_ledger.report(),
                "{name} n={n}"
            );
            assert_eq!(
                reports(behaviour, domain, &row, width),
                reports(behaviour, domain, &per_leaf, width),
                "{name} n={n}"
            );
        }
    }
}

#[test]
fn sub_range_appends_to_existing_row() {
    let task = PasswordSearch::with_hidden_password(2, 9);
    let n = 3 * 1024 + 5;
    let domain = Domain::new(77, n);
    let (prefix, scattered, malicious) = cheaters();
    let all = [
        wrapped(&HonestWorker),
        wrapped(&prefix),
        wrapped(&scattered),
        wrapped(&malicious),
    ];
    for (wrapper, behaviour) in all.iter().flatten() {
        let behaviour = behaviour.as_ref();
        let ledger = CostLedger::new();
        let mut row = vec![0xAB; 3];
        behaviour.leaf_values_into(&task, domain, 100..n - 3, &ledger, &mut row);
        let mut expected = vec![0xAB; 3];
        for i in 100..n - 3 {
            expected.extend(behaviour.leaf_value(&task, domain, i, &CostLedger::new()));
        }
        assert_eq!(row, expected, "{} behind {wrapper}", behaviour.name());
    }
}

/// Counts which evaluation entry point a behaviour used.
struct Probe {
    inner: PasswordSearch,
    computes: AtomicU64,
    batches: AtomicU64,
}

impl ComputeTask for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn output_width(&self) -> usize {
        self.inner.output_width()
    }
    fn compute(&self, x: u64) -> Vec<u8> {
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.inner.compute(x)
    }
    fn compute_batch(&self, xs: &[u64]) -> Vec<Vec<u8>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.compute_batch(xs)
    }
}

#[test]
fn batched_override_survives_indirection() {
    // The wrappers must forward leaf_values_into, or a wrapped honest
    // worker silently falls back to one compute call per leaf.
    fn check<B: WorkerBehaviour + Clone>(behaviour: &B) {
        for (wrapper, w) in wrapped(behaviour) {
            let probe = Probe {
                inner: PasswordSearch::with_hidden_password(4, 9),
                computes: AtomicU64::new(0),
                batches: AtomicU64::new(0),
            };
            let mut row = Vec::new();
            let ledger = CostLedger::new();
            w.as_ref()
                .leaf_values_into(&probe, Domain::new(0, 2048), 0..2048, &ledger, &mut row);
            assert_eq!(
                probe.computes.load(Ordering::Relaxed),
                0,
                "{} behind {wrapper}",
                behaviour.name()
            );
            assert_eq!(
                probe.batches.load(Ordering::Relaxed),
                2,
                "{} behind {wrapper}",
                behaviour.name()
            );
            assert_eq!(ledger.report().f_evals, 2048);
        }
    }
    check(&HonestWorker);
    check(&MaliciousWorker::new(1.0, 3));
}
