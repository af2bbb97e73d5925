//! The concurrent serving plane's contract:
//!
//! 1. **Served == solo.** A request through the server returns the same
//!    answer with the same per-request query/round tallies as a solo
//!    `Session::run` of the identical task — the shared backend memo
//!    changes *cost distribution*, never semantics, and the server-level
//!    tallies do not depend on how requests interleave.
//! 2. **Pooled admission never over-admits.** `BudgetPool` reservations
//!    under thread contention are all-or-nothing and their sum never
//!    exceeds the cap.
//! 3. **Shedding, not collapse.** Pool exhaustion fails requests typed
//!    (`BudgetExceeded`) without deadlocking the shared backend; a full
//!    queue rejects with `Overloaded`; shutdown drains what was queued.
//! 4. **Robust lifecycle.** `shutdown` is idempotent and safe to race
//!    with concurrent `submit`s and other shutdowns; the pooled budget
//!    stays consistent even when reservers die mid-round.

use nco_core::hier::Linkage;
use noisy_oracle::{NcoError, Noise, Request, Server, Session, Task};

fn grid_points(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 9) as f64 * 1.7, (i / 9) as f64 * 2.3])
        .collect()
}

fn metric_template(n: usize) -> Session {
    Session::builder()
        .points(&grid_points(n))
        .noise(Noise::Probabilistic { p: 0.1, seed: 77 })
        .cache_distances(true)
        .build()
        .unwrap()
}

#[test]
fn served_metric_requests_match_solo_sessions() {
    let requests = [
        Request {
            task: Task::Nearest { q: 3 },
            seed: 1,
        },
        Request {
            task: Task::Farthest { q: 10 },
            seed: 2,
        },
        Request {
            task: Task::KCenter { k: 4 },
            seed: 3,
        },
        Request {
            task: Task::Hierarchy {
                linkage: Linkage::Single,
            },
            seed: 4,
        },
        // A repeat of an earlier request: its per-request bill must be
        // identical even though the backend memo answers it for free.
        Request {
            task: Task::Nearest { q: 3 },
            seed: 1,
        },
    ];

    // Solo reference runs, each on a fresh identical engine.
    let solo: Vec<_> = requests
        .iter()
        .map(|request| {
            Session::builder()
                .points(&grid_points(45))
                .noise(Noise::Probabilistic { p: 0.1, seed: 77 })
                .cache_distances(true)
                .seed(request.seed)
                .build()
                .unwrap()
                .run(request.task)
                .unwrap()
        })
        .collect();

    // One worker serves the requests strictly one after another; three
    // interleave them. The server-level tallies must not notice.
    let mut runs = Vec::new();
    for workers in [1, 3] {
        let server = Server::builder(metric_template(45))
            .workers(workers)
            .build()
            .unwrap();
        let handles: Vec<_> = requests
            .iter()
            .map(|&r| server.submit(r).unwrap())
            .collect();
        let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = server.shutdown();

        let mut request_query_sum = 0;
        for ((request, outcome), solo) in requests.iter().zip(&served).zip(&solo) {
            assert_eq!(
                solo.answer, outcome.answer,
                "answer differs for {request:?} with {workers} workers"
            );
            assert_eq!(
                solo.report.queries, outcome.report.queries,
                "per-request queries differ for {request:?} with {workers} workers"
            );
            assert_eq!(
                solo.report.rounds, outcome.report.rounds,
                "per-request rounds differ for {request:?} with {workers} workers"
            );
            request_query_sum += outcome.report.queries;
        }

        assert_eq!(stats.submitted, requests.len() as u64);
        assert_eq!(stats.completed, requests.len() as u64);
        assert_eq!(stats.shed, 0);
        // The repeated request (and any cross-request overlap) was
        // answered from the shared memo: the backend issued strictly
        // fewer queries than the requests billed in total.
        assert!(
            stats.backend_queries < request_query_sum,
            "backend {} vs billed {} with {workers} workers",
            stats.backend_queries,
            request_query_sum
        );
        assert!(stats.memo_hits > 0);
        assert!(stats.backend_rounds > 0);
        assert_eq!(stats.coalesced_rounds, 0);
        // Pinned from the build whose memo sat behind one backend lock:
        // striping the memo by cell moves no server tally.
        assert_eq!(
            [
                stats.backend_queries,
                stats.memo_hits,
                stats.backend_rounds,
                stats.retries
            ],
            [21_899, 7_716, 549, 0],
            "server tallies with {workers} workers"
        );
        runs.push(stats);
    }
    let (one, three) = (&runs[0], &runs[1]);
    assert_eq!(one.backend_queries, three.backend_queries);
    assert_eq!(one.memo_hits, three.memo_hits);
    assert_eq!(one.backend_rounds, three.backend_rounds);
}

/// Copies of one request set race through a four-worker server, each
/// request's copies picked up together. Every distinct memo cell still
/// reaches the backend once, and every other lookup is a memo hit. (No
/// hierarchy request: it also asks degenerate queries, a pair against
/// itself, which the memo forwards uncached.)
#[test]
fn racing_copies_of_a_request_set_ask_each_cell_once() {
    let requests = [
        Request {
            task: Task::Nearest { q: 7 },
            seed: 5,
        },
        Request {
            task: Task::Farthest { q: 20 },
            seed: 6,
        },
        Request {
            task: Task::KCenter { k: 3 },
            seed: 7,
        },
        Request {
            task: Task::KCenter { k: 5 },
            seed: 8,
        },
    ];
    let solo: Vec<_> = requests
        .iter()
        .map(|request| {
            Session::builder()
                .points(&grid_points(45))
                .noise(Noise::Probabilistic { p: 0.1, seed: 77 })
                .cache_distances(true)
                .seed(request.seed)
                .build()
                .unwrap()
                .run(request.task)
                .unwrap()
        })
        .collect();
    let billed: u64 = solo.iter().map(|o| o.report.queries).sum();

    // One copy on one worker gives the set's distinct cells and its
    // non-empty rounds.
    let mut one = None;
    for (workers, copies) in [(1, 1u64), (4, 4)] {
        let server = Server::builder(metric_template(45))
            .workers(workers)
            .build()
            .unwrap();
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .flat_map(|(i, &r)| (0..copies).map(move |_| (i, r)))
            .map(|(i, r)| (i, server.submit(r).unwrap()))
            .collect();
        for (i, handle) in handles {
            let outcome = handle.join().unwrap();
            let request = requests[i];
            assert_eq!(
                outcome.answer, solo[i].answer,
                "{request:?}, {copies} copies"
            );
            assert_eq!(
                outcome.report.queries, solo[i].report.queries,
                "{request:?}"
            );
            assert_eq!(outcome.report.rounds, solo[i].report.rounds, "{request:?}");
        }
        let stats = server.shutdown();
        let (distinct, rounds) = *one.get_or_insert((stats.backend_queries, stats.backend_rounds));
        assert!(distinct < billed);
        assert_eq!(stats.backend_queries, distinct, "{copies} copies");
        assert_eq!(
            stats.memo_hits,
            copies * billed - distinct,
            "{copies} copies"
        );
        assert_eq!(stats.backend_rounds, copies * rounds, "{copies} copies");
    }
}

#[test]
fn served_value_requests_match_solo_sessions() {
    let values: Vec<f64> = (0..80).map(|i| ((i * 29) % 83) as f64).collect();
    let template = Session::builder()
        .values(values.clone())
        .noise(Noise::Probabilistic { p: 0.15, seed: 5 })
        .build()
        .unwrap();
    let server = Server::builder(template).workers(2).build().unwrap();
    let requests = [
        Request {
            task: Task::Max,
            seed: 11,
        },
        Request {
            task: Task::TopK { k: 5 },
            seed: 12,
        },
        Request {
            task: Task::Max,
            seed: 13,
        },
    ];
    let handles: Vec<_> = requests
        .iter()
        .map(|&r| server.submit(r).unwrap())
        .collect();
    let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = server.shutdown();

    for (request, outcome) in requests.iter().zip(&served) {
        let solo = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p: 0.15, seed: 5 })
            .seed(request.seed)
            .build()
            .unwrap()
            .run(request.task)
            .unwrap();
        assert_eq!(
            solo.answer, outcome.answer,
            "answer differs for {request:?}"
        );
        assert_eq!(
            solo.report.queries, outcome.report.queries,
            "queries differ for {request:?}"
        );
        assert_eq!(
            solo.report.rounds, outcome.report.rounds,
            "rounds differ for {request:?}"
        );
    }
    assert_eq!(stats.completed, 3);
    assert!(stats.memo_hits > 0, "overlapping max runs share answers");
}

/// The ordering tasks ride the same value-session dispatch, so served
/// Sort/Select/Partition requests must be bit-identical to solo runs
/// without any serve-plane code knowing they exist.
#[test]
fn served_order_requests_match_solo_sessions() {
    let values: Vec<f64> = (0..96).map(|i| ((i * 29) % 97) as f64).collect();
    let template = Session::builder()
        .values(values.clone())
        .noise(Noise::Probabilistic { p: 0.15, seed: 5 })
        .build()
        .unwrap();
    let server = Server::builder(template).workers(2).build().unwrap();
    let requests = [
        Request {
            task: Task::Sort,
            seed: 21,
        },
        Request {
            task: Task::Select { k: 12 },
            seed: 22,
        },
        Request {
            task: Task::Partition { k: 12 },
            seed: 23,
        },
    ];
    let handles: Vec<_> = requests
        .iter()
        .map(|&r| server.submit(r).unwrap())
        .collect();
    let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = server.shutdown();

    for (request, outcome) in requests.iter().zip(&served) {
        let solo = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p: 0.15, seed: 5 })
            .seed(request.seed)
            .build()
            .unwrap()
            .run(request.task)
            .unwrap();
        assert_eq!(
            solo.answer, outcome.answer,
            "answer differs for {request:?}"
        );
        assert_eq!(
            solo.report.queries, outcome.report.queries,
            "queries differ for {request:?}"
        );
        assert_eq!(
            solo.report.rounds, outcome.report.rounds,
            "rounds differ for {request:?}"
        );
    }
    assert_eq!(stats.completed, 3);
}

#[test]
fn budget_pool_concurrent_reservations_never_exceed_cap() {
    use nco_oracle::BudgetPool;
    use std::sync::atomic::{AtomicU64, Ordering};
    let cap = 10_000u64;
    let pool = BudgetPool::new(Some(cap));
    let granted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let pool = &pool;
            let granted = &granted;
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    let k = 1 + (t + i) % 7;
                    if pool.try_reserve(k) {
                        granted.fetch_add(k, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let granted = granted.load(std::sync::atomic::Ordering::Relaxed);
    assert!(granted <= cap, "granted {granted} > cap {cap}");
    assert_eq!(pool.spent(), granted, "spent must equal the granted sum");
    assert!(pool.refused(), "8 x 2000 reservations must exhaust 10k");
    // All-or-nothing: what remains is simply cap - granted, and a
    // reservation of exactly that size still succeeds.
    let left = pool.remaining();
    assert_eq!(left, cap - granted);
    if left > 0 {
        assert!(pool.try_reserve(left));
    }
    assert!(!pool.try_reserve(1));
}

#[test]
fn pool_exhaustion_sheds_requests_without_deadlock() {
    // A pool far too small for four hierarchy runs: some requests must
    // fail with the *pool's* BudgetExceeded while the rest complete —
    // and the shared backend must keep serving the survivors (a starved
    // request stops sending rounds instead of blocking one).
    let template = metric_template(36);
    let server = Server::builder(template)
        .workers(4)
        .pool_budget(4_000)
        .build()
        .unwrap();
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::Hierarchy {
                        linkage: Linkage::Single,
                    },
                    seed,
                })
                .unwrap()
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let stats = server.shutdown();

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(NcoError::BudgetExceeded { budget: 4_000, .. })))
        .count();
    assert_eq!(ok + shed, 4, "unexpected error kind in {results:?}");
    assert!(shed >= 1, "a 4k pool cannot cover four hierarchy runs");
    assert!(stats.pool_spent <= 4_000, "pool over-admitted");
    assert_eq!(stats.completed, 4, "every request finished (ok or typed)");
}

#[test]
fn full_queue_rejects_with_overloaded() {
    // One worker, pinned down by a slow hierarchy run; a queue of 2 then
    // fills after two quick submissions and must shed the rest typed.
    let server = Server::builder(metric_template(64))
        .workers(1)
        .queue(2)
        .build()
        .unwrap();
    let blocker = server
        .submit(Request {
            task: Task::Hierarchy {
                linkage: Linkage::Single,
            },
            seed: 0,
        })
        .unwrap();
    let mut accepted = vec![blocker];
    let mut rejected = 0;
    for seed in 1..=12u64 {
        match server.submit(Request {
            task: Task::Nearest { q: 1 },
            seed,
        }) {
            Ok(h) => accepted.push(h),
            Err(NcoError::Overloaded { .. }) => rejected += 1,
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert!(
        rejected >= 1,
        "12 rapid submissions must overflow a 2-queue"
    );
    for h in accepted {
        h.join().unwrap();
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed, rejected);
    assert_eq!(stats.completed, stats.submitted);
}

#[test]
fn shutdown_drains_queued_requests() {
    let server = Server::builder(metric_template(30))
        .workers(1)
        .queue(16)
        .build()
        .unwrap();
    let handles: Vec<_> = (0..6)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::KCenter { k: 3 },
                    seed,
                })
                .unwrap()
        })
        .collect();
    // Shutdown closes the door but finishes what was already accepted.
    let stats = server.shutdown();
    assert_eq!(stats.completed, 6);
    for h in handles {
        assert!(h.join().is_ok());
    }
}

#[test]
fn per_request_budget_still_fails_typed() {
    let template = Session::builder()
        .points(&grid_points(32))
        .noise(Noise::Probabilistic { p: 0.1, seed: 3 })
        .budget(10)
        .build()
        .unwrap();
    let server = Server::builder(template).workers(1).build().unwrap();
    let h = server
        .submit(Request {
            task: Task::KCenter { k: 4 },
            seed: 0,
        })
        .unwrap();
    match h.join() {
        Err(NcoError::BudgetExceeded { budget, .. }) => assert_eq!(budget, 10),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn server_builder_rejects_unsupported_templates() {
    let memo = Session::builder()
        .points(&grid_points(8))
        .memoize(true)
        .build()
        .unwrap();
    assert!(matches!(
        Server::builder(memo).build(),
        Err(NcoError::InvalidParams { .. })
    ));
    let zero_workers = Server::builder(metric_template(8)).workers(0).build();
    assert!(matches!(zero_workers, Err(NcoError::InvalidParams { .. })));
    let zero_queue = Server::builder(metric_template(8)).queue(0).build();
    assert!(matches!(zero_queue, Err(NcoError::InvalidParams { .. })));
}

#[test]
fn shutdown_is_idempotent_and_race_free_with_submit() {
    let server = Server::builder(metric_template(30))
        .workers(2)
        .build()
        .unwrap();
    // Work accepted before any shutdown must complete.
    let pre: Vec<_> = (0..4)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::KCenter { k: 3 },
                    seed,
                })
                .unwrap()
        })
        .collect();
    // Two concurrent shutdowns race a stream of submissions: every
    // submission either completes normally or sheds typed — none hangs,
    // none panics, and both shutdown calls return settled counters.
    let (stats_a, stats_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| server.shutdown());
        let b = scope.spawn(|| server.shutdown());
        let submitter = scope.spawn(|| {
            for seed in 0..16u64 {
                match server.submit(Request {
                    task: Task::Nearest { q: 1 },
                    seed,
                }) {
                    // Accepted before the door closed: must finish.
                    Ok(h) => assert!(h.join().is_ok()),
                    Err(NcoError::Overloaded { .. }) => {}
                    Err(other) => panic!("expected Overloaded, got {other:?}"),
                }
            }
        });
        submitter.join().unwrap();
        (a.join().unwrap(), b.join().unwrap())
    });
    for h in pre {
        assert!(h.join().is_ok(), "pre-shutdown work was lost");
    }
    // Both calls returned after the pool fully drained, so both report
    // every accepted request as completed.
    assert_eq!(stats_a.completed, stats_a.submitted);
    assert_eq!(stats_b.completed, stats_b.submitted);
    // A third call after the fact is a cheap no-op returning the same
    // settled counters, and submission stays refused.
    let stats_c = server.shutdown();
    assert_eq!(stats_c.completed, stats_c.submitted);
    assert!(matches!(
        server.submit(Request {
            task: Task::Nearest { q: 1 },
            seed: 0,
        }),
        Err(NcoError::Overloaded { .. })
    ));
}

#[test]
fn budget_pool_stays_consistent_when_reservers_die_mid_round() {
    use nco_oracle::BudgetPool;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Keep the simulated crashes out of the test log; report real ones.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let simulated = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("simulated mid-round crash"));
        if !simulated {
            prev(info);
        }
    }));

    let cap = 8_000u64;
    let pool = BudgetPool::new(Some(cap));
    let granted = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let pool = &pool;
            let granted = &granted;
            scope.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    for i in 0..2_000u64 {
                        let k = 1 + (t + i) % 5;
                        if pool.try_reserve(k) {
                            granted.fetch_add(k, Ordering::Relaxed);
                            // Half the reservers die mid-round, *after*
                            // reserving — the quota they took must stay
                            // spent (conservative), never corrupt.
                            if t % 2 == 0 && i == 500 {
                                panic!("simulated mid-round crash");
                            }
                        }
                    }
                }));
            });
        }
    });
    let granted = granted.load(Ordering::Relaxed);
    assert!(granted <= cap, "granted {granted} > cap {cap}");
    assert_eq!(
        pool.spent(),
        granted,
        "crashed reservers must not desync the spent tally"
    );
    // The pool is still fully functional after the crashes: what
    // remains is exactly cap - granted, reservable to the last query.
    let left = pool.remaining();
    assert_eq!(left, cap - granted);
    if left > 0 {
        assert!(pool.try_reserve(left));
    }
    assert!(!pool.try_reserve(1));
    assert_eq!(pool.spent(), cap);
}

#[test]
fn cache_added_reports_per_run_delta() {
    let engine = noisy_oracle::Engine::from_metric(
        nco_data::AnyMetric::Euclidean(nco_metric::EuclideanMetric::from_points(&grid_points(40))),
        true,
    );
    let session = |seed: u64| {
        Session::builder()
            .engine(engine.clone())
            .noise(Noise::Probabilistic { p: 0.1, seed: 21 })
            .seed(seed)
            .build()
            .unwrap()
    };
    let first = session(1).run(Task::Farthest { q: 0 }).unwrap();
    // The first run on a cold cache contributed every entry.
    assert_eq!(first.report.cache_added, first.report.cache_entries);
    assert!(first.report.cache_added.unwrap() > 0);

    let before = engine.cache_entries().unwrap();
    let second = session(2).run(Task::Nearest { q: 5 }).unwrap();
    // The second run's delta excludes the first run's entries.
    assert_eq!(
        second.report.cache_added,
        Some(second.report.cache_entries.unwrap() - before)
    );
    assert!(second.report.cache_added.unwrap() < second.report.cache_entries.unwrap());
}
