//! End-to-end rounds: naive sampling vs CBS vs NI-CBS on the same
//! workload — the protocol-level cost comparison behind the paper's
//! headline claim.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ugc_core::scheme::cbs::CbsScheme;
use ugc_core::scheme::naive::NaiveScheme;
use ugc_core::scheme::ni_cbs::NiCbsScheme;
use ugc_core::{run_scheme, MixedFleetConfig, ParticipantStorage, VerificationScheme};
use ugc_grid::HonestWorker;
use ugc_hash::Sha256;
use ugc_task::workloads::PasswordSearch;
use ugc_task::Domain;

const N: u64 = 1 << 12;
const M: usize = 32;

fn bench_schemes(c: &mut Criterion) {
    let task = PasswordSearch::with_hidden_password(1, 7);
    let screener = task.match_screener();
    let domain = Domain::new(0, N);
    let cbs = CbsScheme {
        samples: M,
        seed: 2,
        report_audit: 0,
    };
    let cases: [(&str, &dyn VerificationScheme<Sha256>, ParticipantStorage); 4] = [
        (
            "naive",
            &NaiveScheme {
                samples: M,
                seed: 2,
            },
            ParticipantStorage::Full,
        ),
        ("cbs_full", &cbs, ParticipantStorage::Full),
        (
            "cbs_partial_l6",
            &cbs,
            ParticipantStorage::Partial { subtree_height: 6 },
        ),
        (
            "ni_cbs",
            &NiCbsScheme {
                samples: M,
                g_iterations: 1,
                report_audit: 0,
                audit_seed: 0,
            },
            ParticipantStorage::Full,
        ),
    ];
    let mut group = c.benchmark_group("scheme_e2e");
    group.sample_size(10);
    for (name, scheme, storage) in cases {
        let config = MixedFleetConfig {
            storage,
            ..MixedFleetConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    run_scheme(&task, &screener, domain, scheme, &[&HonestWorker], &config)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
