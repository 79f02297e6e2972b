//! Differential suite for cross-session single-flight probing (DESIGN.md
//! §14).
//!
//! The contract under test: attaching a [`WaveExchange`] to any set of
//! concurrent sessions changes *which session executes* each probe, but
//! never what any session reports. Every session's canonical
//! report bytes (probe-work counters scrubbed — batching moves work between
//! sessions by design) must be identical to an unbatched run of the same
//! session config. Across every traversal strategy, evaluation cache on and
//! off, budget-cut partial reports, probe faults, and sessions dying
//! mid-wave. Any divergence means a verdict was
//! misrouted, double-charged, or fabricated.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use kwdebug::batch::BatchConfig;
use kwdebug::budget::ProbeBudget;
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::metrics::ProbeCounters;
use kwdebug::report::DebugReport;
use kwdebug::traversal::StrategyKind;
use kwdebug::WaveExchange;
use kwserve::protocol::encode_report;
use kwserve::{DebugClient, ServeConfig, Server, TenantPolicy, TenantRegistry};
use relengine::{DataType, Database, DatabaseBuilder, FaultConfig, Value};

const STRATEGIES: [StrategyKind; 6] = [
    StrategyKind::BottomUp,
    StrategyKind::TopDown,
    StrategyKind::BottomUpWithReuse,
    StrategyKind::TopDownWithReuse,
    StrategyKind::ScoreBasedHeuristic,
    StrategyKind::BruteForce,
];

/// Overlapping workload: every session runs the same sequence, so merged
/// waves are full of cross-session duplicates — the worst case for verdict
/// fan-out bookkeeping.
const QUERIES: [&str; 4] = ["saffron candle", "red candle", "scented oil", "saffron oil"];

/// The saffron-candle store of the paper's Figure 2 (same fixture as the
/// loopback and soak suites).
fn store_db() -> Database {
    let mut b = DatabaseBuilder::new();
    b.table("ptype").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
    b.table("item")
        .column("id", DataType::Int)
        .column("name", DataType::Text)
        .column("ptype_id", DataType::Int)
        .column("color_id", DataType::Int)
        .primary_key("id");
    b.table("color").column("id", DataType::Int).column("name", DataType::Text).primary_key("id");
    b.foreign_key("item", "ptype_id", "ptype", "id").unwrap();
    b.foreign_key("item", "color_id", "color", "id").unwrap();
    let mut db = b.finish().unwrap();
    db.insert_values("ptype", vec![Value::Int(1), Value::text("candle")]).unwrap();
    db.insert_values("ptype", vec![Value::Int(2), Value::text("oil")]).unwrap();
    db.insert_values("color", vec![Value::Int(1), Value::text("saffron")]).unwrap();
    db.insert_values("color", vec![Value::Int(2), Value::text("red")]).unwrap();
    db.insert_values(
        "item",
        vec![Value::Int(1), Value::text("scented pillar"), Value::Int(1), Value::Int(2)],
    )
    .unwrap();
    db.insert_values(
        "item",
        vec![Value::Int(2), Value::text("scented burner"), Value::Int(2), Value::Int(1)],
    )
    .unwrap();
    db
}

/// Canonical bytes with every probe-work counter scrubbed: which session
/// executed a probe versus inherited its verdict (`probes_executed` vs
/// `coalesced_probes`, cache hits, SQL counts) legitimately depends on
/// cross-session timing — the *semantic* sections (keyword tables, answers,
/// non-answers, MPANs, unknown, prune stats) must not.
fn canonical(mut report: DebugReport) -> Vec<u8> {
    for i in &mut report.interpretations {
        i.sql_queries = 0;
        i.probes = ProbeCounters::default();
    }
    encode_report(&report)
}

fn session_config(strategy: StrategyKind, cache: bool) -> DebugConfig {
    DebugConfig { max_joins: 2, strategy, eval_cache: cache, ..DebugConfig::default() }
}

/// Runs `tenants` barrier-aligned sessions over one exchange, asserting each
/// session's every report matches `truth`. Returns nothing on success; the
/// exchange must be fully drained afterwards.
fn run_batched_matrix_cell(
    system: &NonAnswerDebugger,
    config: DebugConfig,
    truth: &[Vec<u8>],
    tenants: usize,
    exchange: &Arc<WaveExchange>,
    ctx: &str,
) {
    let barrier = Barrier::new(tenants);
    std::thread::scope(|s| {
        for t in 0..tenants {
            let exchange = Arc::clone(exchange);
            let barrier = &barrier;
            s.spawn(move || {
                let mut dbg = NonAnswerDebugger::from_shared(system.shared_parts(), config)
                    .expect("session over shared substrate");
                dbg.set_wave_exchange(Some(exchange));
                barrier.wait();
                for (qi, q) in QUERIES.iter().enumerate() {
                    let got = canonical(dbg.debug(q).expect("batched debug runs"));
                    assert_eq!(got, truth[qi], "{ctx}: tenant {t} diverged on {q:?}");
                }
            });
        }
    });
    assert_eq!(exchange.pending_cells(), 0, "{ctx}: leaked probe cell");
}

/// The tentpole invariant: batching is invisible to reports — across every
/// strategy and eval cache on/off. Every batched probe sleeps 1 ms (a
/// latency-only fault schedule), so the aligned tenants' probes are
/// genuinely in flight together and followers really wait.
#[test]
fn batched_reports_match_unbatched_across_the_matrix() {
    let db = store_db();
    let mut merged_total = 0u64;
    let mut coalesced_total = 0u64;
    for strategy in STRATEGIES {
        for cache in [false, true] {
            let config = session_config(strategy, cache);
            let system = NonAnswerDebugger::new(db.clone(), config).unwrap();
            // Unbatched ground truth, one session per query so no
            // intra-session warmth leaks into the reference.
            let truth: Vec<Vec<u8>> = QUERIES
                .iter()
                .map(|q| {
                    let s = NonAnswerDebugger::from_shared(system.shared_parts(), config).unwrap();
                    canonical(s.debug(q).expect("unbatched debug runs"))
                })
                .collect();
            let slow = DebugConfig {
                chaos: Some(FaultConfig {
                    latency_per_mille: 1000,
                    latency: Duration::from_millis(1),
                    ..FaultConfig::quiet(5)
                }),
                ..config
            };
            let exchange = Arc::new(WaveExchange::default());
            let ctx = format!("{} cache={cache}", strategy.name());
            run_batched_matrix_cell(&system, slow, &truth, 3, &exchange, &ctx);
            merged_total += exchange.merged_waves();
            coalesced_total += exchange.coalesced_probes();
        }
    }
    // The suite must actually exercise followers, not just owners everywhere.
    assert!(merged_total > 0, "no lookup ever waited on an in-flight cell across the matrix");
    assert!(coalesced_total > 0, "no probe was ever coalesced across the whole matrix");
}

/// Budget-cut partials: followers reserve their own budget slot at their
/// original dispatch position before looking the probe up, so a
/// `max_probes` cut lands on exactly the same probe batched as unbatched —
/// the `Unknown` frontier of a degraded report is part of the equivalence
/// contract.
#[test]
fn budget_partials_stay_identical_when_batched() {
    let db = store_db();
    for max_probes in [1u64, 3, 7, 15] {
        let config = DebugConfig {
            budget: ProbeBudget::probes(max_probes),
            ..session_config(StrategyKind::BottomUpWithReuse, false)
        };
        let system = NonAnswerDebugger::new(db.clone(), config).unwrap();
        let truth: Vec<Vec<u8>> = QUERIES
            .iter()
            .map(|q| {
                let s = NonAnswerDebugger::from_shared(system.shared_parts(), config).unwrap();
                canonical(s.debug(q).expect("budgeted debug runs"))
            })
            .collect();
        let exchange = Arc::new(WaveExchange::default());
        let ctx = format!("max_probes={max_probes}");
        run_batched_matrix_cell(&system, config, &truth, 3, &exchange, &ctx);
    }
}

/// Transient probe faults recover by retry before any verdict is published,
/// so a fully chaos-faulted batched fleet still reproduces the clean
/// unbatched reference — no faulted execution may leak a verdict to a
/// follower.
#[test]
fn transient_chaos_changes_no_batched_report() {
    let db = store_db();
    let clean = session_config(StrategyKind::ScoreBasedHeuristic, true);
    let system = NonAnswerDebugger::new(db.clone(), clean).unwrap();
    let truth: Vec<Vec<u8>> = QUERIES
        .iter()
        .map(|q| {
            let s = NonAnswerDebugger::from_shared(system.shared_parts(), clean).unwrap();
            canonical(s.debug(q).expect("clean debug runs"))
        })
        .collect();
    for seed in [7u64, 8] {
        let faulted = DebugConfig { chaos: Some(FaultConfig::transient(seed, 250)), ..clean };
        let exchange = Arc::new(WaveExchange::default());
        run_batched_matrix_cell(
            &system,
            faulted,
            &truth,
            3,
            &exchange,
            &format!("transient chaos seed {seed}"),
        );
    }
}

/// A session dying mid-wave (permanent probe faults abort its traversal
/// while it owns in-flight cells) must orphan its cells, not wedge or
/// corrupt its peers: clean sessions re-execute orphaned probes locally and
/// still report the exact unbatched truth, and the exchange drains.
#[test]
fn a_session_dying_mid_wave_never_corrupts_its_peers() {
    let db = store_db();
    let clean = session_config(StrategyKind::BottomUpWithReuse, false);
    let system = NonAnswerDebugger::new(db.clone(), clean).unwrap();
    let truth: Vec<Vec<u8>> = QUERIES
        .iter()
        .map(|q| {
            let s = NonAnswerDebugger::from_shared(system.shared_parts(), clean).unwrap();
            canonical(s.debug(q).expect("clean debug runs"))
        })
        .collect();
    let dying = DebugConfig {
        chaos: Some(FaultConfig {
            seed: 99,
            transient_per_mille: 0,
            permanent_per_mille: 400,
            latency_per_mille: 0,
            latency: Duration::ZERO,
            fail_first_transient: 0,
        }),
        ..clean
    };
    let exchange = Arc::new(WaveExchange::default());
    let barrier = Barrier::new(3);
    let system = &system;
    std::thread::scope(|s| {
        // Two clean survivors...
        for t in 0..2 {
            let exchange = Arc::clone(&exchange);
            let barrier = &barrier;
            let truth = &truth;
            s.spawn(move || {
                let mut dbg =
                    NonAnswerDebugger::from_shared(system.shared_parts(), clean).unwrap();
                dbg.set_wave_exchange(Some(exchange));
                barrier.wait();
                for (qi, q) in QUERIES.iter().enumerate() {
                    let got = canonical(dbg.debug(q).expect("survivor debug runs"));
                    assert_eq!(got, truth[qi], "survivor {t} corrupted by a dying peer on {q:?}");
                }
            });
        }
        // ...and one session whose probes hard-fail mid-traversal. Whatever
        // it reports about itself, it must clean up after itself.
        {
            let exchange = Arc::clone(&exchange);
            let barrier = &barrier;
            s.spawn(move || {
                let mut dbg =
                    NonAnswerDebugger::from_shared(system.shared_parts(), dying).unwrap();
                dbg.set_wave_exchange(Some(exchange));
                barrier.wait();
                for q in QUERIES {
                    let _ = dbg.debug(q);
                }
            });
        }
    });
    assert_eq!(exchange.pending_cells(), 0, "dying session leaked unresolved cells");
}

/// End-to-end over TCP: a batching server's wire reports match an offline
/// unbatched reference for every concurrent tenant, the batch gauges cross
/// the wire, abrupt disconnects (no Bye) leak nothing, and coalescing really
/// happened. Every probe sleeps 1 ms (a latency-only fault schedule), so
/// the aligned tenants' probes are genuinely in flight together.
#[test]
fn server_batched_reports_match_unbatched_reference() {
    let config = session_config(StrategyKind::ScoreBasedHeuristic, false);
    let system = NonAnswerDebugger::new(store_db(), config).unwrap();
    let slow = DebugConfig {
        chaos: Some(FaultConfig {
            latency_per_mille: 1000,
            latency: Duration::from_millis(1),
            ..FaultConfig::quiet(5)
        }),
        ..config
    };
    let truth: Vec<Vec<u8>> = QUERIES
        .iter()
        .map(|q| {
            let s = NonAnswerDebugger::from_shared(system.shared_parts(), config).unwrap();
            canonical(s.debug(q).expect("reference runs"))
        })
        .collect();
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        ServeConfig {
            workers: 4,
            poll_interval: Duration::from_millis(10),
            debug: slow,
            batching: Some(BatchConfig),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let barrier = Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let barrier = &barrier;
            let truth = &truth;
            s.spawn(move || {
                let mut client =
                    DebugClient::connect(addr, &format!("tenant-{t}")).expect("connect");
                for pass in 0..2 {
                    for (qi, q) in QUERIES.iter().enumerate() {
                        // Align all four tenants per query so their probes
                        // genuinely overlap in flight.
                        barrier.wait();
                        let wire = client.debug(q).expect("batched server answers");
                        assert_eq!(
                            canonical(wire.report),
                            truth[qi],
                            "tenant {t} pass {pass} diverged on {q:?} over the wire"
                        );
                    }
                }
                // Abrupt disconnect: no Bye, just drop the socket mid-session.
                drop(client);
            });
        }
    });

    let exchange = server.wave_exchange().expect("batching is configured").clone();
    assert!(exchange.merged_waves() > 0, "concurrent tenants never waited on an in-flight probe");
    assert!(exchange.coalesced_probes() > 0, "identical workloads never coalesced a probe");
    assert_eq!(exchange.pending_cells(), 0, "abrupt disconnects leaked cells");

    // The gauges cross the wire, sorted and non-zero.
    let mut probe = DebugClient::connect(addr, "gauge-reader").unwrap();
    let json = probe.metrics_json().expect("metrics over the wire");
    assert!(!json.contains("\"batch_merged_waves\":0,"), "merged-wave gauge must be live: {json}");
    assert!(json.contains("\"batch_coalesce_ratio\":"), "ratio gauge must be present: {json}");
    probe.bye().unwrap();
    server.shutdown();
}

/// The uncontended path: with batching configured but only one session
/// live, no probe ever waits on another execution — zero in-flight waits,
/// zero coalesced probes. At library level the identity is exact: a session
/// looks every probe up, owns every cell and executes it at once, so every
/// unscrubbed counter (wall-clock `probe_time_ns` aside) and the probe where
/// each tuple cap trips match a session
/// without an exchange — even with a second, idle session attached to the
/// same exchange.
#[test]
fn a_solo_session_never_touches_the_exchange() {
    let config = session_config(StrategyKind::ScoreBasedHeuristic, false);
    let system = NonAnswerDebugger::new(store_db(), config).unwrap();
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        ServeConfig {
            workers: 2,
            poll_interval: Duration::from_millis(10),
            debug: config,
            batching: Some(BatchConfig),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = DebugClient::connect(server.addr(), "solo").unwrap();
    for q in QUERIES {
        let wire = client.debug(q).expect("solo queries run");
        assert!(!wire.canonical.is_empty());
    }
    let json = client.metrics_json().unwrap();
    assert!(json.contains("\"batch_merged_waves\":0"), "solo traffic waited in flight: {json}");
    assert!(json.contains("\"batch_coalesce_ratio\":0"), "solo traffic coalesced: {json}");
    client.bye().unwrap();
    let exchange = server.wave_exchange().unwrap().clone();
    assert!(
        exchange.merged_waves() == 0 && exchange.coalesced_probes() == 0,
        "a solo session waited on an in-flight probe"
    );
    server.shutdown();

    // Library legs: exact counters under every tuple cap, for a session
    // alone on the exchange and for one with an idle peer attached.
    fn exact(mut report: DebugReport) -> (Vec<u8>, Vec<(u64, ProbeCounters)>) {
        for i in &mut report.interpretations {
            i.probes.probe_time_ns = 0;
        }
        let counters = report.interpretations.iter().map(|i| (i.sql_queries, i.probes)).collect();
        (encode_report(&report), counters)
    }
    let queries: Vec<&str> = QUERIES.iter().copied().chain(["saffron scented candle"]).collect();
    for max_tuples in [1u64, 2, 3, 5, 8] {
        for strategy in STRATEGIES {
            let config = DebugConfig {
                sample_limit: 0,
                budget: ProbeBudget::unlimited().with_max_tuples(max_tuples),
                ..session_config(strategy, false)
            };
            let system = NonAnswerDebugger::new(datagen::product_database(), config).unwrap();
            let plain = NonAnswerDebugger::from_shared(system.shared_parts(), config).unwrap();
            for idle_peer in [false, true] {
                let exchange = Arc::new(WaveExchange::default());
                let mut solo =
                    NonAnswerDebugger::from_shared(system.shared_parts(), config).unwrap();
                solo.set_wave_exchange(Some(Arc::clone(&exchange)));
                let mut peer =
                    NonAnswerDebugger::from_shared(system.shared_parts(), config).unwrap();
                if idle_peer {
                    peer.set_wave_exchange(Some(Arc::clone(&exchange)));
                }
                for q in &queries {
                    let want = exact(plain.debug(q).expect("unbatched debug runs"));
                    let got = exact(solo.debug(q).expect("solo batched debug runs"));
                    assert_eq!(
                        got,
                        want,
                        "{} max_tuples={max_tuples} idle_peer={idle_peer} on {q:?}",
                        strategy.name()
                    );
                }
                drop((solo, peer));
                assert!(
                    exchange.merged_waves() == 0 && exchange.coalesced_probes() == 0,
                    "a solo session waited on an in-flight probe"
                );
                assert_eq!(exchange.pending_cells(), 0, "leaked probe cell");
            }
        }
    }
}
