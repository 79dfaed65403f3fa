//! The benchmark's single clock read.
//!
//! Every timing in the benchmark — campaign wall time, set-up, spans,
//! the calibration loop — starts from [`now`]. Timings are report-only:
//! they never feed a campaign's inputs, verdicts, ledgers or digests.

use std::time::{Duration, Instant};

/// The current monotonic instant.
pub fn now() -> Instant {
    // ugc-lint: allow(wall-clock): benchmark timing is report-only; it never reaches a campaign input, verdict or digest
    Instant::now()
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
