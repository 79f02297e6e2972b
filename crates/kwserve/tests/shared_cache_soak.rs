//! Cross-tenant shared-cache soak: correctness of the process-wide
//! evaluation cache under multi-tenant load, probe faults and a hostile
//! network.
//!
//! Two tenants with overlapping keyword workloads hammer a
//! [`ServeConfig::shared_cache`]-enabled server across seeded chaos
//! schedules and worker counts. The invariants:
//!
//! * the serving layer's books still balance (accepted = shed + admitted +
//!   rejected + failed; no permit or gate-slot leaks) with the shared store
//!   in the probe path,
//! * **zero chaos-polluted entries**: probe faults abort before execution,
//!   so after any amount of chaos the surviving store must reproduce a
//!   clean uncached reference exactly — same answers, non-answers, MPANs,
//!   samples and rendered report, with every skipped probe accounted by the
//!   shortcut identity,
//! * the `shared_cache_*` wire gauges agree with the store itself, and the
//!   `cache_bytes` gauge equals a full recount over every shard,
//! * with the network quiet, a shared-cache server's reports are
//!   observably identical to an uncached server's — warm verdict-cache
//!   responses included.

use std::time::{Duration, Instant};

use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::DebugReport;
use kwserve::{
    ChaosConfig, DebugClient, ReconnectPolicy, ResilientClient, ServeConfig, Server,
    SharedCacheConfig, TenantPolicy, TenantRegistry,
};
use relengine::{DataType, Database, DatabaseBuilder, FaultConfig, Value};

/// The saffron-candle store of the paper's Figure 2 (same fixture as the
/// loopback and chaos suites).
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

fn cached_config() -> DebugConfig {
    DebugConfig { max_joins: 2, eval_cache: true, ..DebugConfig::default() }
}

fn uncached_config() -> DebugConfig {
    DebugConfig { max_joins: 2, ..DebugConfig::default() }
}

/// Per-tenant workloads that overlap on "saffron", "red" and "candle" — the
/// sharing the store exists to exploit.
const WORKLOADS: [(&str, &[&str]); 2] = [
    ("acme", &["saffron candle", "red candle", "scented oil", "saffron candle"]),
    ("nova", &["red candle", "saffron oil", "scented candle", "saffron candle"]),
];

/// Blanks `(12 SQL queries, 1.3ms)` → `(q SQL queries, t)` in rendered
/// reports; cache shortcuts legitimately shrink the executed-query count.
fn scrub(s: &str) -> String {
    s.lines()
        .map(|l| match l.find(" SQL queries, ") {
            Some(i) => match l[..i].rfind('(') {
                Some(j) => format!("{}(q SQL queries, t)", &l[..j]),
                None => l.to_string(),
            },
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A shared-cache report must carry the same answers as the uncached
/// baseline. With `check_identity`, every skipped probe must additionally
/// be accounted by the shortcut identity — only valid when both sides run
/// the same fixed SBH prior (the serving default turns on the shared online
/// `p_a` estimator, which legitimately reorders the frontier and with it
/// the executed-probe count, while answers stay bit-identical).
fn assert_answers_match(off: &DebugReport, on: &DebugReport, ctx: &str, check_identity: bool) {
    assert_eq!(scrub(&on.to_string()), scrub(&off.to_string()), "{ctx}: rendered report");
    for (a, b) in on.interpretations.iter().zip(&off.interpretations) {
        assert_eq!(a.answers, b.answers, "{ctx}: answers");
        assert_eq!(a.non_answers, b.non_answers, "{ctx}: non-answers + MPANs");
        assert_eq!(a.unknown, b.unknown, "{ctx}: unknown");
        if check_identity {
            assert_eq!(
                a.probes.probes_executed + a.probes.verdict_cache_hits,
                b.probes.probes_executed,
                "{ctx}: every skipped probe is a cache shortcut"
            );
        }
    }
}

/// One soak round: a shared-cache server under network chaos *and*
/// probe-level faults, two tenants × two resilient clients each. Returns
/// queries answered over the wire.
fn soak_round(seed: u64, workers: usize) -> u64 {
    let system = NonAnswerDebugger::new(store_db(), cached_config()).unwrap();
    let chaos = ChaosConfig {
        seed,
        read_stall_per_mille: 30,
        stall: Duration::from_millis(1),
        bitflip_per_mille: 10,
        partial_write_per_mille: 150,
        reset_per_mille: 25,
        panic_per_mille: 40,
    };
    let config = ServeConfig {
        workers,
        poll_interval: Duration::from_millis(5),
        max_inflight: 4,
        frame_deadline: Duration::from_millis(300),
        write_deadline: Duration::from_secs(1),
        retry_after: Duration::from_millis(5),
        chaos: Some(chaos),
        // Probe-level faults too: sessions abort ~30% of probes mid-flight,
        // the worst case for a store every tenant reads.
        debug: DebugConfig { chaos: Some(FaultConfig::transient(seed, 300)), ..cached_config() },
        shared_cache: Some(SharedCacheConfig::default()),
        ..ServeConfig::default()
    };
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .unwrap();
    let addr = server.addr();

    let policy = ReconnectPolicy {
        max_retries: 25,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        io_timeout: Some(Duration::from_millis(400)),
    };
    let mut answered = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = WORKLOADS
            .iter()
            .flat_map(|(tenant, queries)| (0..2).map(move |c| (*tenant, *queries, c)))
            .map(|(tenant, queries, c)| {
                s.spawn(move || {
                    let mut ok = 0u64;
                    if let Ok(mut client) = ResilientClient::connect(addr, tenant, policy) {
                        for i in 0..8usize {
                            if let Ok(wire) = client.debug(queries[(i + c) % queries.len()]) {
                                assert!(!wire.canonical.is_empty());
                                ok += 1;
                            }
                        }
                        let _ = client.close();
                    }
                    ok
                })
            })
            .collect();
        for handle in handles {
            answered += handle.join().expect("no panic escapes a client");
        }
    });

    // No gate-slot or permit leaks with the shared store in the probe path.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.inflight() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.inflight(), 0, "gate slots leaked (seed {seed}, workers {workers})");
    for (tenant, _) in WORKLOADS {
        assert_eq!(server.registry().active_sessions(tenant), 0, "leaked session permit");
        assert_eq!(server.registry().active_requests(tenant), 0, "leaked request permit");
    }

    let store = server.shared_cache().expect("shared_cache is configured").clone();
    let m = server.shutdown();
    let accepted = m.connections_accepted.into_inner();
    let shed = m.sessions_shed.into_inner();
    let admitted = m.sessions_admitted.into_inner();
    let rejected = m.sessions_rejected.into_inner();
    let failed = m.conns_failed.into_inner();
    assert_eq!(
        accepted,
        shed + admitted + rejected + failed,
        "accounting must balance (seed {seed}, workers {workers})"
    );
    assert_eq!(admitted, m.sessions_closed.into_inner(), "every admitted session closes");
    // The shutdown snapshot's gauges are the store's own numbers.
    assert_eq!(
        m.shared_cache_bytes.load(std::sync::atomic::Ordering::Relaxed),
        store.bytes(),
        "wire gauge must mirror the store"
    );
    assert_eq!(
        store.bytes(),
        store.accounted_bytes(),
        "cache_bytes accounting identity after chaos churn (seed {seed}, workers {workers})"
    );

    // Zero chaos-polluted entries: a clean session adopting the chaos-warmed
    // store must reproduce a clean uncached reference exactly.
    assert!(store.bytes() > 0, "the chaotic round still cached completed work");
    let mut verify_parts = system.shared_parts();
    verify_parts.adopt_eval_cache(store).expect("same (db_id, epoch) identity");
    let warmed = NonAnswerDebugger::from_shared(verify_parts, cached_config()).unwrap();
    let reference = NonAnswerDebugger::new(store_db(), uncached_config()).unwrap();
    for (_, queries) in WORKLOADS {
        for query in queries {
            let base = reference.debug(query).expect("reference runs");
            let cached = warmed.debug(query).expect("warmed run");
            assert_answers_match(
                &base,
                &cached,
                &format!("{query:?} post-chaos (seed {seed}, workers {workers})"),
                true,
            );
        }
    }
    answered
}

/// The seeded soak: 2 tenants with overlapping keywords, 3 chaos seeds,
/// workers 1 and 4.
#[test]
fn shared_cache_survives_cross_tenant_chaos() {
    let mut total_answered = 0u64;
    for workers in [1usize, 4] {
        for seed in [11u64, 12, 13] {
            total_answered += soak_round(seed, workers);
        }
    }
    assert!(total_answered > 0, "some client exchanges must complete under chaos");
}

/// Network quiet: a shared-cache server's reports are observably identical
/// to an uncached server's for both tenants, including the warm pass where
/// the verdict cache answers without touching the engine — and the live
/// `shared_cache_*` gauges cross the wire.
#[test]
fn shared_reports_match_uncached_server_for_every_tenant() {
    let sys_on = NonAnswerDebugger::new(store_db(), cached_config()).unwrap();
    let on = Server::start(
        sys_on.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        ServeConfig {
            workers: 2,
            poll_interval: Duration::from_millis(10),
            debug: cached_config(),
            shared_cache: Some(SharedCacheConfig::default()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let sys_off = NonAnswerDebugger::new(store_db(), uncached_config()).unwrap();
    let off = Server::start(
        sys_off.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        ServeConfig {
            workers: 2,
            poll_interval: Duration::from_millis(10),
            debug: uncached_config(),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut warm_verdict_hits = 0u64;
    for (tenant, queries) in WORKLOADS {
        let mut client_on = DebugClient::connect(on.addr(), tenant).unwrap();
        let mut client_off = DebugClient::connect(off.addr(), tenant).unwrap();
        for pass in 0..2 {
            for query in queries {
                let wire_on = client_on.debug(query).expect("shared server answers");
                let wire_off = client_off.debug(query).expect("uncached server answers");
                assert_answers_match(
                    &wire_off.report,
                    &wire_on.report,
                    &format!("{tenant}/{query:?} pass {pass}"),
                    false, // serving default enables online p_a (see helper)
                );
                if pass == 1 {
                    warm_verdict_hits += wire_on.report.probes().verdict_cache_hits;
                }
            }
        }
        let json = client_on.metrics_json().expect("metrics over the wire");
        assert!(
            !json.contains("\"shared_cache_hits\":0,"),
            "warm traffic must register shared hits in the wire gauges: {json}"
        );
        client_on.bye().unwrap();
        client_off.bye().unwrap();
    }
    assert!(
        warm_verdict_hits > 0,
        "warm passes must be answered from the shared verdict cache"
    );
    let store = on.shared_cache().expect("configured").clone();
    assert!(store.hits() > 0, "cross-tenant reuse must register on the store");
    assert_eq!(store.bytes(), store.accounted_bytes(), "accounting identity");
    on.shutdown();
    off.shutdown();
}
