//! Demonstrates the paper's **Section 5 open problem**: CBS degrades as
//! `|D|` shrinks. "When |D| = 1 … the cost of verifying a sample is as
//! expensive as conducting the task. Therefore, the scheme is no better
//! than the naive double-check-every-result scheme."
//!
//! We sweep the per-participant domain size downward at fixed sample count
//! and report the supervisor's verification work as a fraction of the
//! task — the quantity that explodes to ≥ 1 at tiny domains — plus the
//! commitment overhead per useful result.
//!
//! Run: `cargo run --release -p ugc-bench --bin small_domain`

#![forbid(unsafe_code)]

use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::{run_scheme, MixedFleetConfig};
use ugc_grid::HonestWorker;
use ugc_hash::Sha256;
use ugc_sim::Table;
use ugc_task::workloads::PasswordSearch;
use ugc_task::{ComputeTask, Domain};

fn main() {
    println!("Section 5 — CBS efficiency collapses on small per-participant domains\n");
    let task = PasswordSearch::with_hidden_password(11, 0);
    let screener = task.match_screener();

    let mut table = Table::new([
        "n per task",
        "m used",
        "sup f-evals",
        "sup/task ratio",
        "commit hashes",
        "bytes moved",
        "bytes/task-byte",
    ]);
    for bits in [14u32, 10, 6, 3, 1, 0] {
        let n = 1u64 << bits;
        // The supervisor cannot sample more than is useful; m caps at n.
        let m = 20usize.min(n as usize);
        let scheme = CbsScheme {
            samples: m,
            seed: 5,
            report_audit: 0,
        };
        let outcome = run_scheme::<Sha256, _, _>(
            &task,
            &screener,
            Domain::new(0, n),
            &scheme,
            &[&HonestWorker],
            &MixedFleetConfig::default(),
        )
        .expect("round runs");
        assert!(outcome.accepted);
        let task_cost = n * task.unit_cost();
        let ratio = outcome.supervisor_costs.f_evals as f64 / task_cost as f64;
        let moved = outcome.supervisor_link.bytes_received + outcome.supervisor_link.bytes_sent;
        table.push([
            n.to_string(),
            m.to_string(),
            outcome.supervisor_costs.f_evals.to_string(),
            format!("{ratio:.2}"),
            outcome.participant_costs.hash_ops.to_string(),
            moved.to_string(),
            format!("{:.1}", moved as f64 / (n * 16) as f64),
        ]);
    }
    print!("{table}");
    println!(
        "\nShape reproduced: at n = 2^14 the supervisor re-does ~0.1% of the task;\n\
         at n = 1 it re-does 100% — exactly the naive double-check, as §5 observes.\n\
         Efficient verification for tiny |D| is the paper's stated open problem."
    );
}
