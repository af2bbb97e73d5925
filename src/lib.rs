//! # noisy-oracle — facade crate
//!
//! A production-quality Rust reproduction of *How to Design Robust Algorithms
//! using Noisy Comparison Oracle* (Addanki, Galhotra, Saha — PVLDB 14(9),
//! 2021), behind one dependency and one front door.
//!
//! ## The `Session` front door
//!
//! [`Session`] is the typed, budgeted entry point: a [`SessionBuilder`]
//! captures the data source, noise model, confidence, caching, seed and
//! query budget once; [`Session::run`] executes any [`Task`]
//! through the matching theorem-backed engine and returns an [`Outcome`]
//! (answer + [`RunReport`] cost accounting) or a typed [`NcoError`].
//!
//! ```
//! use noisy_oracle::{Noise, NcoError, Session, Task};
//!
//! // Hidden values; the algorithms only see noisy comparisons.
//! let values: Vec<f64> = (1..=100).map(f64::from).collect();
//!
//! let session = Session::builder()
//!     .values(values)
//!     .noise(Noise::Adversarial { mu: 0.5 }) // worst-case liar in the band
//!     .confidence(0.05)                      // Theorem 3.6 parameters
//!     .seed(7)
//!     .build()?;
//!
//! // Theorem 3.6: within (1 + mu)^3 of the true maximum w.p. 0.95.
//! let outcome = session.run(Task::Max)?;
//! let best = outcome.answer.item().unwrap();
//! assert!(best as f64 + 1.0 >= 100.0 / 1.5f64.powi(3));
//! println!("{} oracle queries", outcome.report.queries);
//!
//! // A hard query budget fails typed — no panic, no overspend.
//! let capped = Session::builder()
//!     .values((1..=100).map(f64::from).collect())
//!     .budget(50)
//!     .build()?;
//! assert!(matches!(
//!     capped.run(Task::Max),
//!     Err(NcoError::BudgetExceeded { budget: 50, .. })
//! ));
//! # Ok::<(), NcoError>(())
//! ```
//!
//! Value sessions also answer the ordering tasks —
//! `Task::Sort` (the full descending ranking), `Task::Select { k }`
//! (the k-th largest) and `Task::Partition { k }` (the top-k / rest
//! split). Metric-space tasks run the same way over points, a metric,
//! or a generated [`data`] set —
//! `Task::{Nearest, Farthest, KCenter, Hierarchy}` — and one immutable
//! [`Engine`] can serve many concurrent sessions over the same corpus,
//! sharing its distance cache ([`SessionBuilder::engine`]).
//!
//! ## The workspace underneath
//!
//! The low-level crates stay fully public for callers that need to wire
//! their own pipelines (every engine, oracle and comparator the session
//! layer dispatches to):
//!
//! * [`oracle`] — comparison/quadruplet oracles; adversarial,
//!   probabilistic (persistent) and crowd noise models; counting, budget
//!   and memoisation wrappers;
//! * [`metric`] — the hidden metric spaces the oracles compare over,
//!   including the shared lock-free distance cache;
//! * [`data`] — seeded synthetic analogues of the paper's five datasets;
//! * [`core`] — the paper's algorithms: robust maximum/minimum, top-k,
//!   noisy sort/select/partition, farthest and nearest neighbour,
//!   k-center clustering, agglomerative hierarchical clustering, and all
//!   evaluation baselines;
//! * [`eval`] — pair-counting F-score, k-center objective, rank metrics
//!   and the experiment harness used by the benchmark suite.

#![deny(missing_docs)]

pub use nco_core as core;
pub use nco_data as data;
pub use nco_eval as eval;
pub use nco_metric as metric;
pub use nco_oracle as oracle;

mod error;
mod report;
mod serve;
mod session;
mod task;

pub use error::NcoError;
pub use nco_oracle::fault::{FaultPlan, FaultStats, QueryFault, RetryPolicy};
pub use nco_oracle::{NoiseEstimate, ProbeStats};
pub use report::{Outcome, RunReport};
pub use serve::{Request, ServeStats, Server, ServerBuilder, TaskHandle};
pub use session::{AdaptPolicy, CancelToken, Engine, Noise, Session, SessionBuilder};
pub use task::{Answer, PartialOutcome, Task};
