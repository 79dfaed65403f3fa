//! The grid runtime: participants multiplexed over a worker pool.
//!
//! Everything below the verification schemes' session state machines is
//! assembled here. Participants are poll-driven [`GridTask`]s that a
//! [`GridScheduler`] multiplexes over a fixed pool of OS threads, and
//! every participant link can sit behind a deterministic fault-injection
//! decorator ([`FaultyEndpoint`]) whose [`FaultLog`] lets callers verify
//! bit-identical replays.
//!
//! The scheme-aware wiring (which session runs on which participant, the
//! broker pump, the supervisor engine) lives in `ugc-core`'s
//! orchestrator; this module is deliberately ignorant of sessions — it
//! only knows how to decorate links and schedule tasks.
//!
//! ```
//! use ugc_grid::runtime::{FaultPlan, FaultyEndpoint, GridScheduler, GridTask, TaskPoll};
//! use ugc_grid::{duplex, GridError, GridLink, Message};
//!
//! /// A participant that answers one message with a commitment.
//! struct Echo(FaultyEndpoint);
//!
//! impl GridTask for Echo {
//!     fn poll(&mut self) -> TaskPoll {
//!         match self.0.try_recv() {
//!             Ok(msg) => {
//!                 let root = vec![0xAB; 16];
//!                 let _ = self.0.send(&Message::Commit { task_id: msg.task_id(), root });
//!                 TaskPoll::Complete
//!             }
//!             Err(GridError::Empty) => TaskPoll::Idle,
//!             Err(_) => TaskPoll::Complete,
//!         }
//!     }
//! }
//!
//! let (supervisor, participant) = duplex();
//! let link = FaultyEndpoint::new(participant, FaultPlan::quiet(0).link(7));
//! let log = link.log();
//! supervisor.send(&Message::Challenge { task_id: 3, samples: vec![1] })?;
//! let done = GridScheduler::new(2).run(vec![Echo(link)]);
//! assert_eq!(done.len(), 1);
//! assert_eq!(supervisor.recv()?.task_id(), 3);
//! assert!(log.snapshot().is_empty()); // a quiet plan injects nothing
//! # Ok::<(), GridError>(())
//! ```

mod fault;
pub mod scheduler;

pub use fault::{
    FaultDecision, FaultEvent, FaultLog, FaultPlan, FaultyEndpoint, LinkDirection, LinkFaults,
};
pub use scheduler::{GridScheduler, GridTask, TaskPoll};
