//! Participant behaviours: the cheating models of Section 2.2.
//!
//! A behaviour decides what a participant *commits* for each leaf and what
//! it *reports* as interesting results:
//!
//! * [`HonestWorker`] — evaluates `f` everywhere and screens truthfully.
//! * [`SemiHonestCheater`] — the paper's rational cheater: evaluates `f` on
//!   a fraction `r` of the domain (`D′`) and substitutes the cheap guess
//!   `f̌` elsewhere, to save work.
//! * [`MaliciousWorker`] — evaluates `f` everywhere (so commitment checks
//!   pass!) but corrupts the screener output `S(x, z)` with random `z`, to
//!   disrupt the computation. Detecting it requires the screened-report
//!   cross-check, not just CBS path verification.

use crate::CostLedger;
use std::ops::Range;
use ugc_task::{ComputeTask, Domain, Guesser, ScreenReport, Screener, SplitMix64};

/// How a participant produces commitments and reports for an assignment.
///
/// The `ledger` is charged for real `f` evaluations only — guesses are the
/// whole point of cheating and cost (approximately) nothing.
pub trait WorkerBehaviour: Send + Sync {
    /// Behaviour name for experiment tables.
    fn name(&self) -> &str;

    /// The honesty ratio `r = |D′|/|D|` this behaviour realises.
    fn honesty_ratio(&self) -> f64 {
        1.0
    }

    /// The leaf value committed for leaf `index` of `domain`
    /// (`Φ(L_i)` in the paper: `f(x_i)` if honest, `f̌(x_i)` if not).
    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8>;

    /// Appends the committed values of leaves `indices` of `domain` to
    /// `row`, back to back — the flat leaf row a Merkle commitment hashes.
    ///
    /// Must equal the concatenated [`leaf_value`](Self::leaf_value)s and
    /// charge the same `f` evaluations. The default loops `leaf_value`;
    /// behaviours that evaluate `f` on every leaf override it to batch
    /// through [`ComputeTask::compute_batch`].
    fn leaf_values_into(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        indices: Range<u64>,
        ledger: &CostLedger,
        row: &mut Vec<u8>,
    ) {
        for index in indices {
            row.extend_from_slice(&self.leaf_value(task, domain, index, ledger));
        }
    }

    /// The report (if any) for leaf `index` whose committed value is
    /// `committed`. Default: truthful screening of the committed value.
    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        let x = domain.input(index).expect("index within domain");
        screener.screen(x, committed)
    }
}

/// Leaves per [`ComputeTask::compute_batch`] call on the batched
/// commitment path: large enough to fill every lane kernel, small enough
/// that the per-chunk input and output vectors stay cache-resident.
const BATCH_LEAVES: u64 = 1024;

/// Evaluates `f` honestly on leaves `indices` in fixed-size chunks
/// through [`ComputeTask::compute_batch`], appending the results to `row`
/// and charging one `f` evaluation per leaf.
fn honest_leaf_values_into(
    task: &dyn ComputeTask,
    domain: Domain,
    indices: Range<u64>,
    ledger: &CostLedger,
    row: &mut Vec<u8>,
) {
    let len = indices.end.saturating_sub(indices.start);
    let mut xs = Vec::with_capacity(len.min(BATCH_LEAVES) as usize);
    let mut start = indices.start;
    while start < indices.end {
        let end = indices.end.min(start + BATCH_LEAVES);
        xs.clear();
        xs.extend((start..end).map(|i| domain.input(i).expect("index within domain")));
        ledger.charge_f(task.unit_cost() * (end - start));
        for value in task.compute_batch(&xs) {
            row.extend_from_slice(&value);
        }
        start = end;
    }
}

impl<B: WorkerBehaviour + ?Sized> WorkerBehaviour for &B {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn honesty_ratio(&self) -> f64 {
        (**self).honesty_ratio()
    }
    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        (**self).leaf_value(task, domain, index, ledger)
    }
    fn leaf_values_into(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        indices: Range<u64>,
        ledger: &CostLedger,
        row: &mut Vec<u8>,
    ) {
        (**self).leaf_values_into(task, domain, indices, ledger, row);
    }
    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        (**self).report_for(screener, domain, index, committed)
    }
}

impl<B: WorkerBehaviour + ?Sized> WorkerBehaviour for std::sync::Arc<B> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn honesty_ratio(&self) -> f64 {
        (**self).honesty_ratio()
    }
    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        (**self).leaf_value(task, domain, index, ledger)
    }
    fn leaf_values_into(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        indices: Range<u64>,
        ledger: &CostLedger,
        row: &mut Vec<u8>,
    ) {
        (**self).leaf_values_into(task, domain, indices, ledger, row);
    }
    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        (**self).report_for(screener, domain, index, committed)
    }
}

impl<B: WorkerBehaviour + ?Sized> WorkerBehaviour for Box<B> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn honesty_ratio(&self) -> f64 {
        (**self).honesty_ratio()
    }
    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        (**self).leaf_value(task, domain, index, ledger)
    }
    fn leaf_values_into(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        indices: Range<u64>,
        ledger: &CostLedger,
        row: &mut Vec<u8>,
    ) {
        (**self).leaf_values_into(task, domain, indices, ledger, row);
    }
    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        (**self).report_for(screener, domain, index, committed)
    }
}

/// The fully honest participant: `Φ(L_i) = f(x_i)` for every `i`.
///
/// # Examples
///
/// ```
/// use ugc_grid::{CostLedger, HonestWorker, WorkerBehaviour};
/// use ugc_task::{ComputeTask, Domain};
/// use ugc_task::workloads::PasswordSearch;
///
/// let task = PasswordSearch::with_hidden_password(1, 2);
/// let ledger = CostLedger::new();
/// let worker = HonestWorker;
/// let leaf = worker.leaf_value(&task, Domain::new(0, 8), 3, &ledger);
/// assert_eq!(leaf, task.compute(3));
/// assert_eq!(ledger.report().f_evals, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HonestWorker;

impl WorkerBehaviour for HonestWorker {
    fn name(&self) -> &str {
        "honest"
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        let x = domain.input(index).expect("index within domain");
        ledger.charge_f(task.unit_cost());
        task.compute(x)
    }

    fn leaf_values_into(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        indices: Range<u64>,
        ledger: &CostLedger,
        row: &mut Vec<u8>,
    ) {
        honest_leaf_values_into(task, domain, indices, ledger, row);
    }
}

/// Which subset `D′` the semi-honest cheater computes honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheatSelection {
    /// The first `⌊r·n⌋` indices — `|D′|` is exact, matching the
    /// `r = |D′|/|D|` of Definition 2.1 precisely.
    Prefix,
    /// Each index is honest independently with probability `r` —
    /// `|D′|` is Binomial(n, r); more naturalistic for a lazy worker.
    Scattered,
}

/// The semi-honest cheater of Section 2.2: computes `f` on `D′`, guesses
/// elsewhere with a [`Guesser`] realising the paper's `q`.
///
/// # Examples
///
/// ```
/// use ugc_grid::{CheatSelection, CostLedger, SemiHonestCheater, WorkerBehaviour};
/// use ugc_task::{ComputeTask, Domain, ZeroGuesser};
/// use ugc_task::workloads::PasswordSearch;
///
/// let task = PasswordSearch::with_hidden_password(1, 2);
/// let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(9), 7);
/// let ledger = CostLedger::new();
/// let domain = Domain::new(0, 8);
/// // First half honest, second half guessed:
/// assert_eq!(cheater.leaf_value(&task, domain, 0, &ledger), task.compute(0));
/// assert_ne!(cheater.leaf_value(&task, domain, 7, &ledger), task.compute(7));
/// assert_eq!(ledger.report().f_evals, 1); // only the honest leaf was paid for
/// ```
#[derive(Debug, Clone)]
pub struct SemiHonestCheater<G> {
    honesty_ratio: f64,
    selection: CheatSelection,
    guesser: G,
    seed: u64,
}

impl<G: Guesser> SemiHonestCheater<G> {
    /// Creates a cheater with honesty ratio `r ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a probability.
    #[must_use]
    pub fn new(honesty_ratio: f64, selection: CheatSelection, guesser: G, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&honesty_ratio) && honesty_ratio.is_finite(),
            "honesty ratio must be in [0,1]"
        );
        SemiHonestCheater {
            honesty_ratio,
            selection,
            guesser,
            seed,
        }
    }

    /// Whether leaf `index` (of `n`) belongs to the honestly-computed `D′`.
    #[must_use]
    pub fn is_honest_index(&self, n: u64, index: u64) -> bool {
        match self.selection {
            CheatSelection::Prefix => {
                // ⌊r·n⌋ computed exactly; f64 is exact for n < 2^53.
                let honest_count = (self.honesty_ratio * n as f64).floor() as u64;
                index < honest_count
            }
            CheatSelection::Scattered => {
                SplitMix64::for_stream(self.seed, index).next_f64() < self.honesty_ratio
            }
        }
    }

    /// Leaf value for a given retry-attack `salt` (Section 4.2): honest
    /// leaves are stable across salts, guessed leaves re-roll.
    #[must_use]
    pub fn leaf_value_salted(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        salt: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        if self.is_honest_index(domain.len(), index) {
            let x = domain.input(index).expect("index within domain");
            ledger.charge_f(task.unit_cost());
            task.compute(x)
        } else {
            let x = domain.input(index).expect("index within domain");
            self.guesser.guess_salted(x, task.output_width(), salt)
        }
    }
}

impl<G: Guesser> WorkerBehaviour for SemiHonestCheater<G> {
    fn name(&self) -> &str {
        "semi-honest"
    }

    fn honesty_ratio(&self) -> f64 {
        self.honesty_ratio
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        self.leaf_value_salted(task, domain, index, 0, ledger)
    }
}

/// The malicious participant of Section 2.2: does all the work but feeds
/// the screener random values to sabotage the reported results.
#[derive(Debug, Clone, Copy)]
pub struct MaliciousWorker {
    corrupt_rate: f64,
    seed: u64,
}

impl MaliciousWorker {
    /// Corrupts the screener input for a `corrupt_rate` fraction of inputs.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_rate` is not a probability.
    #[must_use]
    pub fn new(corrupt_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt_rate) && corrupt_rate.is_finite(),
            "corrupt rate must be in [0,1]"
        );
        MaliciousWorker { corrupt_rate, seed }
    }

    /// Whether input `index` gets a corrupted screener evaluation.
    #[must_use]
    pub fn corrupts(&self, index: u64) -> bool {
        SplitMix64::for_stream(self.seed ^ 0x6d61_6c76, index).next_f64() < self.corrupt_rate
    }
}

impl WorkerBehaviour for MaliciousWorker {
    fn name(&self) -> &str {
        "malicious"
    }

    fn leaf_value(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        index: u64,
        ledger: &CostLedger,
    ) -> Vec<u8> {
        // Malicious ≠ lazy: the work is done (and paid for) in full.
        let x = domain.input(index).expect("index within domain");
        ledger.charge_f(task.unit_cost());
        task.compute(x)
    }

    fn leaf_values_into(
        &self,
        task: &dyn ComputeTask,
        domain: Domain,
        indices: Range<u64>,
        ledger: &CostLedger,
        row: &mut Vec<u8>,
    ) {
        honest_leaf_values_into(task, domain, indices, ledger, row);
    }

    fn report_for(
        &self,
        screener: &dyn Screener,
        domain: Domain,
        index: u64,
        committed: &[u8],
    ) -> Option<ScreenReport> {
        let x = domain.input(index).expect("index within domain");
        if self.corrupts(index) {
            // S(x, z) with random z, per the paper's malicious model.
            let mut rng = SplitMix64::for_stream(self.seed ^ 0x7a7a, index);
            let mut z = vec![0u8; committed.len()];
            for chunk in z.chunks_mut(8) {
                let bytes = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            screener.screen(x, &z)
        } else {
            screener.screen(x, committed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugc_task::workloads::PasswordSearch;
    use ugc_task::{AcceptAllScreener, ZeroGuesser};

    fn task() -> PasswordSearch {
        PasswordSearch::with_hidden_password(5, 3)
    }

    #[test]
    fn honest_worker_charges_every_eval() {
        let t = task();
        let ledger = CostLedger::new();
        let d = Domain::new(0, 16);
        for i in 0..16 {
            assert_eq!(HonestWorker.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
        assert_eq!(ledger.report().f_evals, 16);
        assert!((HonestWorker.honesty_ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn prefix_cheater_splits_domain_exactly() {
        let cheater = SemiHonestCheater::new(0.25, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let honest = (0..100)
            .filter(|&i| cheater.is_honest_index(100, i))
            .count();
        assert_eq!(honest, 25);
        // And the honest part is the prefix.
        assert!(cheater.is_honest_index(100, 24));
        assert!(!cheater.is_honest_index(100, 25));
    }

    #[test]
    fn scattered_cheater_hits_ratio_statistically() {
        let cheater =
            SemiHonestCheater::new(0.5, CheatSelection::Scattered, ZeroGuesser::new(1), 42);
        let honest = (0..10_000)
            .filter(|&i| cheater.is_honest_index(10_000, i))
            .count() as f64;
        assert!((honest / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn cheater_charges_only_honest_leaves() {
        let t = task();
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 32);
        for i in 0..32 {
            let _ = cheater.leaf_value(&t, d, i, &ledger);
        }
        assert_eq!(ledger.report().f_evals, 16);
    }

    #[test]
    fn cheater_guessed_leaves_are_wrong_honest_are_right() {
        let t = task();
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 32);
        for i in 0..16 {
            assert_eq!(cheater.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
        for i in 16..32 {
            assert_ne!(cheater.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
    }

    #[test]
    fn salt_rerolls_guesses_but_not_honest_values() {
        let t = task();
        let cheater = SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 8);
        assert_eq!(
            cheater.leaf_value_salted(&t, d, 0, 0, &ledger),
            cheater.leaf_value_salted(&t, d, 0, 1, &ledger),
        );
        assert_ne!(
            cheater.leaf_value_salted(&t, d, 7, 0, &ledger),
            cheater.leaf_value_salted(&t, d, 7, 1, &ledger),
        );
    }

    #[test]
    fn zero_and_one_ratios_are_extremes() {
        let t = task();
        let ledger = CostLedger::new();
        let d = Domain::new(0, 8);
        let all = SemiHonestCheater::new(1.0, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        let none = SemiHonestCheater::new(0.0, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
        for i in 0..8 {
            assert_eq!(all.leaf_value(&t, d, i, &ledger), t.compute(i));
            assert_ne!(none.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
    }

    #[test]
    fn malicious_leaves_are_honest() {
        let t = task();
        let m = MaliciousWorker::new(1.0, 3);
        let ledger = CostLedger::new();
        let d = Domain::new(0, 8);
        for i in 0..8 {
            assert_eq!(m.leaf_value(&t, d, i, &ledger), t.compute(i));
        }
        assert_eq!(ledger.report().f_evals, 8);
    }

    #[test]
    fn malicious_reports_are_corrupted() {
        let t = task();
        let m = MaliciousWorker::new(1.0, 3);
        let d = Domain::new(0, 8);
        let screener = AcceptAllScreener;
        let mut corrupted = 0;
        for i in 0..8 {
            let committed = t.compute(i);
            let report = m.report_for(&screener, d, i, &committed).unwrap();
            if report.payload != committed {
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 8);
    }

    #[test]
    fn honest_default_report_is_truthful() {
        let t = task();
        let d = Domain::new(0, 8);
        let screener = AcceptAllScreener;
        let committed = t.compute(2);
        let report = HonestWorker
            .report_for(&screener, d, 2, &committed)
            .unwrap();
        assert_eq!(report.input, 2);
        assert_eq!(report.payload, committed);
    }

    #[test]
    #[should_panic(expected = "honesty ratio must be in [0,1]")]
    fn invalid_ratio_rejected() {
        let _ = SemiHonestCheater::new(-0.1, CheatSelection::Prefix, ZeroGuesser::new(1), 0);
    }

    #[test]
    fn behaviour_names() {
        assert_eq!(HonestWorker.name(), "honest");
        assert_eq!(
            SemiHonestCheater::new(0.5, CheatSelection::Prefix, ZeroGuesser::new(1), 0).name(),
            "semi-honest"
        );
        assert_eq!(MaliciousWorker::new(0.5, 0).name(), "malicious");
    }
}
