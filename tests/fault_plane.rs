//! Chaos suite for the fault plane.
//!
//! The central guarantee under test: **a fault plan fully masked by the
//! retry policy is answer-invariant**. Noise persistence means a
//! re-asked query re-reads the same noisy belief, so retries return the
//! exact bits the fault swallowed — the faulty run must produce answers
//! bit-identical to the fault-free run, across every task and noise
//! model, with only the bill (queries spent) allowed to grow. The suite
//! pins this over tasks × noise models × 20 plan seeds, then exercises
//! the failure edges: unmasked faults failing typed, deadlines and
//! cancellation killing runs with partial accounting, and the serving
//! plane masking fault storms and containing worker panics.

use std::time::Duration;

use nco_core::hier::Linkage;
use noisy_oracle::oracle::crowd::AccuracyProfile;
use noisy_oracle::{FaultPlan, NcoError, Noise, Request, RetryPolicy, Server, Session, Task};

fn grid_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 7) as f64 * 1.9, (i / 7) as f64 * 2.1])
        .collect()
}

/// A storm the 12-attempt policy always absorbs: ~8% transient drops,
/// ~5% stalls, a 3-attempt outage burst every 512 attempts, and one
/// dead worker in a pool of 16 (~6% stuck answers). Worst-case per-ask
/// fault probability is ~0.2, so twelve attempts leave no realistic
/// chance of exhaustion — and the suite asserts none occurs.
fn masked_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .transient(0.08)
        .stalls(0.05, 500)
        .outages(512, 3)
        .dead_workers(16, 1)
}

fn noise_models() -> Vec<Noise> {
    vec![
        Noise::Exact,
        Noise::Adversarial { mu: 0.3 },
        Noise::Probabilistic { p: 0.15, seed: 11 },
        Noise::Crowd {
            profile: AccuracyProfile::amazon_like(),
            workers: 3,
            seed: 11,
        },
    ]
}

// ---------------------------------------------------------------------
// The tentpole: masked-fault bit-identity, tasks × noise × 20 seeds.
// ---------------------------------------------------------------------

#[test]
fn masked_faults_are_answer_identical_across_tasks_noise_and_seeds() {
    let points = grid_points(24);
    let tasks = [
        Task::KCenter { k: 3 },
        Task::Hierarchy {
            linkage: Linkage::Single,
        },
    ];
    let mut faults_survived = 0u64;
    for task in tasks {
        for (ni, noise) in noise_models().into_iter().enumerate() {
            for seed in 0..20u64 {
                let build = |plan: Option<FaultPlan>| {
                    let mut b = Session::builder().points(&points).noise(noise).seed(seed);
                    if let Some(plan) = plan {
                        b = b.fault_plan(plan).retry_policy(RetryPolicy::new(12));
                    }
                    b.build().unwrap()
                };
                let clean = build(None).run(task).unwrap();
                let plan = masked_plan(seed * 101 + ni as u64);
                let faulty = build(Some(plan)).run(task).unwrap_or_else(|e| {
                    panic!("fault outlived the policy for {task:?} / {noise:?} / seed {seed}: {e}")
                });
                assert_eq!(
                    clean.answer, faulty.answer,
                    "masked faults changed the answer: {task:?} / {noise:?} / seed {seed}"
                );
                assert!(
                    faulty.report.queries >= clean.report.queries,
                    "retries must only add to the bill: {task:?} / {noise:?} / seed {seed}"
                );
                faults_survived += faulty.report.queries - clean.report.queries;
            }
        }
    }
    // If the plans never injected anything, the suite proved nothing.
    assert!(
        faults_survived > 0,
        "no retries billed across the whole sweep — faults were never injected"
    );
}

#[test]
fn faulty_runs_are_deterministic() {
    let points = grid_points(24);
    let run = || {
        Session::builder()
            .points(&points)
            .noise(Noise::Probabilistic { p: 0.2, seed: 3 })
            .seed(8)
            .fault_plan(masked_plan(99))
            .retry_policy(RetryPolicy::new(12))
            .build()
            .unwrap()
            .run(Task::KCenter { k: 4 })
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.answer, b.answer);
    assert_eq!(a.report.queries, b.report.queries);
    assert_eq!(a.report.rounds, b.report.rounds);
}

#[test]
fn unmasked_outage_fails_typed_and_preserves_the_bill() {
    // A 6-attempt outage burst cannot be outlived by a 3-attempt policy.
    let s = Session::builder()
        .points(&grid_points(24))
        .fault_plan(FaultPlan::new(5).outages(8, 6))
        .retry_policy(RetryPolicy::new(3))
        .build()
        .unwrap();
    match s.run(Task::Hierarchy {
        linkage: Linkage::Single,
    }) {
        Err(NcoError::OracleFailed {
            queries_spent,
            attempts,
        }) => {
            assert!(queries_spent > 0, "the failed attempts were still billed");
            assert_eq!(attempts, 3);
        }
        other => panic!("expected OracleFailed, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Deadlines and cancellation.
// ---------------------------------------------------------------------

#[test]
fn deadlines_kill_or_are_invisible() {
    let points = grid_points(24);
    let task = Task::KCenter { k: 3 };
    let base = || {
        Session::builder()
            .points(&points)
            .noise(Noise::Probabilistic { p: 0.1, seed: 2 })
            .seed(4)
    };
    let clean = base().build().unwrap().run(task).unwrap();
    // A generous deadline changes nothing, bit for bit.
    let timed = base()
        .deadline(Duration::from_secs(3600))
        .build()
        .unwrap()
        .run(task)
        .unwrap();
    assert_eq!(clean.answer, timed.answer);
    assert_eq!(clean.report.queries, timed.report.queries);
    // An expired one kills at the first boundary, accounting preserved.
    match base().deadline(Duration::ZERO).build().unwrap().run(task) {
        Err(NcoError::DeadlineExceeded { report, .. }) => {
            assert_eq!(report.queries, 0);
            assert_eq!(report.rounds, 0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn cancellation_composes_with_fault_masking() {
    // A cancelled run under an (otherwise masked) fault plan still dies
    // by the token — and the kill wins over further retry spending.
    let token = noisy_oracle::CancelToken::new();
    let s = Session::builder()
        .points(&grid_points(24))
        .fault_plan(masked_plan(7))
        .retry_policy(RetryPolicy::new(12))
        .cancel_token(token.clone())
        .build()
        .unwrap();
    token.cancel();
    match s.run(Task::KCenter { k: 3 }) {
        Err(NcoError::DeadlineExceeded { report, .. }) => assert_eq!(report.queries, 0),
        other => panic!("expected a cancel kill, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The serving plane under a fault storm.
// ---------------------------------------------------------------------

#[test]
fn served_fault_storm_is_masked_with_identical_answers() {
    let points = grid_points(32);
    let noise = Noise::Probabilistic { p: 0.1, seed: 6 };
    // Solo reference answers, no faults anywhere.
    let solo: Vec<_> = (0..6u64)
        .map(|seed| {
            Session::builder()
                .points(&points)
                .noise(noise)
                .seed(seed)
                .build()
                .unwrap()
                .run(Task::KCenter { k: 3 })
                .unwrap()
                .answer
        })
        .collect();
    // The same requests through a server whose shared backend rides a
    // fault storm behind a retry layer, served by three workers and by
    // one.
    let storm = |workers: usize| {
        let template = Session::builder()
            .points(&points)
            .noise(noise)
            .fault_plan(masked_plan(13))
            .retry_policy(RetryPolicy::new(12))
            .build()
            .unwrap();
        let server = Server::builder(template).workers(workers).build().unwrap();
        let handles: Vec<_> = (0..6u64)
            .map(|seed| {
                server
                    .submit(Request {
                        task: Task::KCenter { k: 3 },
                        seed,
                    })
                    .unwrap()
            })
            .collect();
        for (seed, h) in handles.into_iter().enumerate() {
            let outcome = h
                .join()
                .unwrap_or_else(|e| panic!("served request {seed} was not masked: {e}"));
            assert_eq!(
                outcome.answer, solo[seed],
                "served answer diverged under masked faults (seed {seed}, {workers} workers)"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6);
        assert!(stats.retries > 0, "the storm never forced a retry");
        assert!(stats.faults_masked > 0);
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.deadline_kills, 0);
        // Pinned from the build whose memo sat behind one backend lock:
        // striping the memo by cell moves no server tally.
        assert_eq!(
            [
                stats.backend_queries,
                stats.memo_hits,
                stats.backend_rounds,
                stats.retries
            ],
            [12_141, 3_594, 79, 2_250],
            "server tallies with {workers} workers"
        );
        stats
    };
    let (pooled, serial) = (storm(3), storm(1));
    // The fault plan is a function of the global attempt index, and the
    // run ends at the attempt that answers the last distinct memo miss:
    // the retry and backend bills cannot depend on how requests
    // interleave. Which query a faulted attempt hit, and so
    // `faults_masked`, can.
    assert_eq!(pooled.retries, serial.retries);
    assert_eq!(pooled.backend_queries, serial.backend_queries);
}

#[test]
fn served_unmasked_fault_fails_requests_typed() {
    let template = Session::builder()
        .points(&grid_points(24))
        .fault_plan(FaultPlan::new(21).outages(8, 6))
        .retry_policy(RetryPolicy::new(2))
        .build()
        .unwrap();
    // One worker: requests run serially, so the backend's failure latch
    // is set by the first request and seen by every one of them.
    let server = Server::builder(template).workers(1).build().unwrap();
    let handles: Vec<_> = (0..3u64)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::KCenter { k: 3 },
                    seed,
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        match h.join() {
            Err(NcoError::OracleFailed { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected OracleFailed, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
}

#[test]
fn served_deadline_kills_are_counted_and_typed() {
    let template = Session::builder()
        .points(&grid_points(24))
        .noise(Noise::Probabilistic { p: 0.1, seed: 1 })
        .deadline(Duration::ZERO)
        .build()
        .unwrap();
    let server = Server::builder(template).workers(2).build().unwrap();
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::Farthest { q: seed as usize },
                    seed,
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        match h.join() {
            Err(NcoError::DeadlineExceeded { report, .. }) => assert_eq!(report.queries, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.deadline_kills, 4);
    assert_eq!(stats.completed, 4);
}

// ---------------------------------------------------------------------
// Worker panic isolation.
// ---------------------------------------------------------------------

/// Suppresses the expected "injected fault-plan panic" stderr noise so
/// CI logs stay deterministic; every other panic is reported normally.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected fault-plan panic"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected fault-plan panic"))
            })
            .unwrap_or(false);
        if !injected {
            prev(info);
        }
    }));
}

#[test]
fn worker_panic_is_contained_and_the_pool_survives() {
    quiet_injected_panics();
    let points = grid_points(24);
    // Deterministic solo references (no faults).
    let solo: Vec<_> = (0..4u64)
        .map(|seed| {
            Session::builder()
                .points(&points)
                .seed(seed)
                .build()
                .unwrap()
                .run(Task::KCenter { k: 3 })
                .unwrap()
                .answer
        })
        .collect();
    // The plan's only fault is a single panic at backend attempt 50 —
    // deep enough that the doomed request is mid-run when it fires.
    let template = Session::builder()
        .points(&points)
        .fault_plan(FaultPlan::new(0).panic_at(50))
        .build()
        .unwrap();
    let server = Server::builder(template).workers(2).build().unwrap();
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::KCenter { k: 3 },
                    seed,
                })
                .unwrap()
        })
        .collect();
    let mut panicked = 0;
    for (seed, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(outcome) => assert_eq!(
                outcome.answer, solo[seed],
                "a surviving request lost its answer to someone else's panic (seed {seed})"
            ),
            Err(NcoError::Panicked { reason }) => {
                assert!(reason.contains("injected fault-plan panic"));
                panicked += 1;
            }
            Err(other) => panic!("unexpected failure mode: {other:?}"),
        }
    }
    assert_eq!(
        panicked, 1,
        "exactly the request whose ask hit the panic must die"
    );
    // The pool survived: the worker rejoined and serves new requests.
    let late = server
        .submit(Request {
            task: Task::KCenter { k: 3 },
            seed: 1,
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(late.answer, solo[1]);
    let stats = server.shutdown();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.completed, 5);
}
