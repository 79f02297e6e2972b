//! Interactive keyword-search debugger over the synthetic DBLife database.
//!
//! A small REPL: type keyword queries, get the full answer/non-answer/MPAN
//! report; `:strategy BU|BUWR|TD|TDWR|SBH|BRUTE` switches the traversal,
//! `:metrics` dumps the probe counters and phase timing of the last query
//! (human table plus the stable [`kwdebug::metrics::MetricsSnapshot`] JSON),
//! `:lattice` prints the offline lattice's per-level node counts and the
//! byte breakdown of its resident arena ([`kwdebug::lattice::Lattice::memory_footprint`]),
//! `:budget N [MS]` caps probes (and optionally a deadline in milliseconds)
//! per interpretation, `:chaos SEED T P [L]` turns on deterministic fault
//! injection (per-mille transient/permanent/latency rates), `:budget off` /
//! `:chaos off` restore the defaults, `:cache on|off` toggles the
//! session-scoped cross-probe evaluation cache ([`kwdebug::evalcache`]) and
//! bare `:cache` shows its resident contents plus the last query's hit
//! counters, `:quit` exits. Useful for poking at
//! the system — including its degraded mode — the way the paper's intended
//! developer/SEO user would.
//!
//! The local database is writable through the single-writer coordinator
//! ([`kwdebug::MutableDatabase`]): `:mutate append TABLE v1,v2,...`,
//! `:mutate update TABLE ROW v1,v2,...` and `:mutate delete TABLE ROW`
//! bump the write epoch, incrementally maintain the inverted index, and
//! selectively invalidate the evaluation cache — re-run a query before and
//! after to watch a non-answer become an answer. `:epoch` shows the current
//! `(db_id, epoch)` identity, the index's delta state, and what invalidation
//! has evicted so far.
//!
//! Usage: `kws_repl [--scale S] [--max-level N]` (default small, N=5), then
//! e.g. `DeRose VLDB` at the prompt.
//!
//! The same binary also speaks the `kwserve` wire protocol (SERVING.md):
//!
//! * `kws_repl --listen ADDR [--workers N] [--shared-cache]` builds the
//!   system and serves it over TCP until stdin closes (EOF or a line), then
//!   shuts down gracefully and prints the final server counters;
//!   `--shared-cache` turns on the process-wide evaluation cache
//!   ([`kwserve::SharedCacheConfig::default`]: 64 MiB budget, online `p_a`);
//!   `--batch` turns on cross-session single-flight probing
//!   ([`kwdebug::batch`]): a probe another session is already executing is
//!   waited on instead of executed again.
//! * `kws_repl --connect HOST:PORT [--tenant NAME]` skips the local build
//!   entirely and runs the REPL as one [`ResilientClient`] session against a
//!   running server: queries and `:strategy` work as usual (the strategy
//!   rides along per request), overload refusals and dropped connections are
//!   retried with capped-exponential backoff, `:metrics` fetches the
//!   session's server-side record plus the client-observed reconnect count,
//!   `:cache` renders the server's process-wide shared-cache gauges
//!   (`shared_cache_*`; zeroes when [`kwserve::ServeConfig::shared_cache`]
//!   is off), `:batch` renders the wave-exchange gauges (`batch_*`; zeroes
//!   when [`kwserve::ServeConfig::batching`] is off or traffic never
//!   overlapped), `:epoch` prints the database epoch the server's snapshot
//!   serves (from `Welcome` — the session's local pin; reports from
//!   different epochs are not comparable), and the local-only knobs
//!   (`:lattice`, `:budget`, `:chaos`, `:mutate`) say so.

use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::time::Duration;

use bench::{build_mutable_system, build_system, mutable_session_config, DataScale};
use kwdebug::budget::ProbeBudget;
use kwdebug::debugger::NonAnswerDebugger;
use kwdebug::metrics::MetricsSnapshot;
use kwdebug::mutable::MutableDatabase;
use kwdebug::report::DebugReport;
use kwdebug::traversal::StrategyKind;
use kwdebug::BatchConfig;
use kwserve::{
    ReconnectPolicy, ResilientClient, ServeConfig, Server, SharedCacheConfig, TenantPolicy,
    TenantRegistry,
};
use relengine::{FaultConfig, Value};

/// REPL arguments: the common experiment knobs plus the two wire modes.
struct ReplArgs {
    scale: DataScale,
    max_level: Option<usize>,
    seed: u64,
    connect: Option<SocketAddr>,
    tenant: String,
    listen: Option<SocketAddr>,
    workers: usize,
    shared_cache: bool,
    batch: bool,
}

fn parse_args() -> ReplArgs {
    let mut out = ReplArgs {
        scale: DataScale::Small,
        max_level: None,
        seed: 7,
        connect: None,
        tenant: "repl".to_owned(),
        listen: None,
        workers: 4,
        shared_cache: false,
        batch: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        let addr = |i: usize| -> SocketAddr {
            value(i).parse().unwrap_or_else(|_| {
                eprintln!("{} expects HOST:PORT, got `{}`", args[i], args[i + 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--scale" => {
                out.scale = DataScale::parse(value(i)).unwrap_or_else(|| {
                    eprintln!("unknown scale `{}` (tiny|small|medium|paper)", args[i + 1]);
                    std::process::exit(2);
                });
            }
            "--max-level" => {
                out.max_level = Some(value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--max-level expects a number");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                out.seed = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects a number");
                    std::process::exit(2);
                });
            }
            "--workers" => {
                out.workers = value(i).parse().unwrap_or_else(|_| {
                    eprintln!("--workers expects a number");
                    std::process::exit(2);
                });
            }
            "--connect" => out.connect = Some(addr(i)),
            "--listen" => out.listen = Some(addr(i)),
            "--tenant" => out.tenant = value(i).to_owned(),
            "--shared-cache" => {
                out.shared_cache = true;
                i += 1;
                continue;
            }
            "--batch" => {
                out.batch = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --scale tiny|small|medium|paper  --max-level N  --seed N\n\
                     modes:   --listen HOST:PORT [--workers N] [--shared-cache] [--batch]\n\
                     \x20                                               serve over TCP\n\
                     \x20        --connect HOST:PORT [--tenant NAME]   client session"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    out
}

fn parse_strategy(name: &str) -> Option<StrategyKind> {
    match name.to_ascii_uppercase().as_str() {
        "BU" => Some(StrategyKind::BottomUp),
        "TD" => Some(StrategyKind::TopDown),
        "BUWR" => Some(StrategyKind::BottomUpWithReuse),
        "TDWR" => Some(StrategyKind::TopDownWithReuse),
        "SBH" => Some(StrategyKind::ScoreBasedHeuristic),
        "BRUTE" => Some(StrategyKind::BruteForce),
        _ => None,
    }
}

/// What `:metrics` reports on: the last successful query and its report.
struct LastRun {
    query: String,
    strategy: StrategyKind,
    report: DebugReport,
}

fn handle(system: &NonAnswerDebugger, strategy: StrategyKind, line: &str) -> Option<LastRun> {
    match system.debug_with_strategy(line, strategy) {
        Ok(report) => {
            print!("{report}");
            println!(
                "[{} answers, {} non-answers, {} MPANs; {} SQL queries in {:?}]",
                report.answer_count(),
                report.non_answer_count(),
                report.mpan_count(),
                report.sql_queries(),
                report.sql_time(),
            );
            Some(LastRun { query: line.to_owned(), strategy, report })
        }
        Err(e) => {
            println!("error: {e}");
            None
        }
    }
}

/// `:lattice` — per-level shape and resident-memory breakdown of the shared
/// offline lattice.
fn show_lattice(system: &NonAnswerDebugger) {
    let lattice = system.lattice();
    let fp = lattice.memory_footprint();
    println!(
        "offline lattice: {} nodes, {} levels (maxJoins {})",
        fp.nodes,
        lattice.level_count(),
        lattice.max_joins()
    );
    for level in 1..=lattice.level_count() {
        println!("  level {level:>2}  {:>8} nodes", lattice.level_nodes(level).len());
    }
    let kib = |b: usize| b as f64 / 1024.0;
    println!("resident arena:");
    println!("  networks (JNTS)   {:>10.1} KiB", kib(fp.jnts_bytes));
    println!("  adjacency CSR     {:>10.1} KiB", kib(fp.adjacency_bytes));
    println!("  copy-set index    {:>10.1} KiB", kib(fp.copy_set_bytes));
    println!("  levels/flags      {:>10.1} KiB", kib(fp.index_bytes));
    println!("  total             {:>10.1} KiB", kib(fp.total_bytes()));
}

fn show_metrics(system: &NonAnswerDebugger, last: &LastRun, args: &ReplArgs, max_level: usize) {
    let p = last.report.probes();
    let t = &last.report.timing;
    println!("last query: {:?} under {}", last.query, last.strategy.name());
    println!("  probes executed   {}", p.probes_executed);
    println!("  probe time        {:?}", p.probe_time());
    println!("  tuples scanned    {}", p.tuples_scanned);
    println!("  memo hits         {}", p.memo_hits);
    println!("  R1 inferences     {}", p.r1_inferences);
    println!("  R2 inferences     {}", p.r2_inferences);
    println!("  reuse hits        {}", p.reuse_hits);
    println!(
        "  phases: mapping {:?}, pruning {:?}, traversal {:?} (sql {:?}), reporting {:?}, total {:?}",
        t.mapping, t.pruning, t.traversal, t.sql, t.reporting, t.total
    );
    let mut snap = MetricsSnapshot {
        experiment: "kws_repl".into(),
        query: last.query.clone(),
        strategy: last.strategy.name().into(),
        variant: String::new(),
        scale: format!("{:?}", args.scale).to_ascii_lowercase(),
        max_level: max_level as u64,
        interpretations: last.report.interpretations.len() as u64,
        lattice_bytes: system.lattice().memory_footprint().total_bytes() as u64,
        probes: p,
        phases: *t,
        prune: None,
        levels: Vec::new(),
    };
    if let Some(first) = last.report.interpretations.first() {
        let mut prune = first.prune_stats.clone();
        for i in &last.report.interpretations[1..] {
            let s = &i.prune_stats;
            prune.retained_phase1 += s.retained_phase1;
            prune.total_nodes += s.total_nodes;
            prune.mtn_count += s.mtn_count;
            prune.pruned_nodes += s.pruned_nodes;
            prune.mtn_descendants_total += s.mtn_descendants_total;
            prune.mtn_descendants_unique += s.mtn_descendants_unique;
        }
        snap.prune = Some(prune);
    }
    println!("{}", snap.to_json());
}

/// `:cache` — resident contents of the session evaluation cache and, when a
/// query has run, where its probing work went.
fn show_cache(system: &NonAnswerDebugger, enabled: bool, last: Option<&LastRun>) {
    let cache = system.eval_cache();
    println!(
        "evaluation cache: {} ({} selection entries, {} postings, {} verdicts, {} keywords, {} payload bytes)",
        if enabled { "on" } else { "off" },
        cache.selection_entries(),
        cache.postings_entries(),
        cache.verdict_entries(),
        cache.interned_keywords(),
        cache.bytes()
    );
    if let Some(run) = last {
        let p = run.report.probes();
        println!(
            "last query: {} selection hits, {} verdict hits, {} bytes added",
            p.selection_cache_hits,
            p.verdict_cache_hits,
            p.cache_bytes
        );
    }
    if !enabled {
        println!("(entries stay valid for the session; `:cache on` resumes using them)");
    }
}

/// Parses `:budget N [MS]` / `:budget off` into a probe budget.
fn parse_budget(parts: &mut std::str::SplitWhitespace<'_>) -> Option<ProbeBudget> {
    let first = parts.next()?;
    if first.eq_ignore_ascii_case("off") {
        return Some(ProbeBudget::unlimited());
    }
    let probes: u64 = first.parse().ok()?;
    let mut budget = ProbeBudget::probes(probes);
    if let Some(ms) = parts.next() {
        budget = budget.with_deadline(Duration::from_millis(ms.parse().ok()?));
    }
    Some(budget)
}

/// Parses `:chaos SEED T P [L]` / `:chaos off` into a fault config
/// (`None` = chaos off); per-mille rates as in [`FaultConfig`].
#[allow(clippy::option_option)]
fn parse_chaos(parts: &mut std::str::SplitWhitespace<'_>) -> Option<Option<FaultConfig>> {
    let first = parts.next()?;
    if first.eq_ignore_ascii_case("off") {
        return Some(None);
    }
    let seed: u64 = first.parse().ok()?;
    let transient: u32 = parts.next()?.parse().ok()?;
    let permanent: u32 = parts.next()?.parse().ok()?;
    let latency: u32 = match parts.next() {
        Some(l) => l.parse().ok()?,
        None => 0,
    };
    Some(Some(FaultConfig {
        seed,
        transient_per_mille: transient,
        permanent_per_mille: permanent,
        latency_per_mille: latency,
        latency: Duration::from_micros(100),
        fail_first_transient: 0,
    }))
}

/// `:mutate` value syntax: comma-separated, each item an integer when it
/// parses as one and text otherwise ("5,glow candle,1").
fn parse_values(csv: &str) -> Vec<Value> {
    csv.split(',')
        .map(|s| {
            let s = s.trim();
            match s.parse::<i64>() {
                Ok(i) => Value::Int(i),
                Err(_) => Value::text(s),
            }
        })
        .collect()
}

const MUTATE_USAGE: &str = "usage: :mutate append TABLE v1,v2,...  |  \
                            :mutate update TABLE ROW v1,v2,...  |  \
                            :mutate delete TABLE ROW";

/// `:mutate` — one DML statement through the single-writer write path.
/// The caller has already quiesced (dropped the REPL's session); this
/// returns the human-readable outcome either way.
fn apply_mutation(mdb: &mut MutableDatabase, args: &[String]) -> String {
    let (Some(op), Some(table_name)) = (args.first(), args.get(1)) else {
        return MUTATE_USAGE.to_owned();
    };
    let Some(table) = mdb.table_id(table_name) else {
        return format!("unknown table `{table_name}`");
    };
    let row_arg = |s: &String| s.parse::<u32>().ok();
    let outcome = match op.as_str() {
        "append" if args.len() >= 3 => mdb
            .append_rows(table, vec![parse_values(&args[2..].join(" "))])
            .map(|ids| format!("appended row {} to {table_name}", ids[0])),
        "update" if args.len() >= 4 => match row_arg(&args[2]) {
            Some(row) => mdb
                .update_row(table, row, parse_values(&args[3..].join(" ")))
                .map(|_| format!("updated {table_name} row {row}")),
            None => return MUTATE_USAGE.to_owned(),
        },
        "delete" if args.len() == 3 => match row_arg(&args[2]) {
            Some(row) => mdb
                .delete_row(table, row)
                .map(|_| format!("deleted {table_name} row {row} (tombstoned)")),
            None => return MUTATE_USAGE.to_owned(),
        },
        _ => return MUTATE_USAGE.to_owned(),
    };
    match outcome {
        Ok(msg) => format!(
            "{msg}; now at epoch {} ({} pending delta rows, {} compactions)",
            mdb.epoch(),
            mdb.index().pending_delta_rows(),
            mdb.index().compactions()
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// `:epoch` — the `(db_id, epoch)` identity and the incremental-maintenance
/// state of the index and the shared evaluation cache.
fn show_epoch(mdb: &MutableDatabase) {
    println!(
        "database id {} at write epoch {}",
        mdb.db_id(),
        mdb.epoch()
    );
    println!(
        "index: applied epoch {}, {} pending delta rows, {} compactions",
        mdb.index().applied_epoch(),
        mdb.index().pending_delta_rows(),
        mdb.index().compactions()
    );
    if let Some(store) = mdb.shared_cache() {
        println!(
            "cache: pinned at epoch {}, {} entries invalidated so far, {} bytes resident",
            store.epoch(),
            store.invalidated(),
            store.bytes()
        );
    }
}

/// `--listen` mode: serve the built system over TCP until stdin closes.
fn serve_mode(args: &ReplArgs, addr: SocketAddr, max_level: usize) {
    eprintln!("building system (scale {:?}, level {max_level})...", args.scale);
    let system = build_system(args.scale, args.seed, max_level);
    let config = ServeConfig {
        addr,
        workers: args.workers,
        debug: *system.config(),
        shared_cache: args.shared_cache.then(SharedCacheConfig::default),
        batching: args.batch.then_some(BatchConfig),
        ..ServeConfig::default()
    };
    let server = Server::start(
        system.shared_parts(),
        TenantRegistry::new(TenantPolicy::default()),
        config,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot serve on {addr}: {e}");
        std::process::exit(1);
    });
    // The resolved address on its own stdout line, so scripts (and the
    // check.sh smoke step) can scrape it even when port 0 was requested.
    println!("kwserve listening on {}", server.addr());
    eprintln!(
        "{} tuples, {} lattice nodes, {} workers; press Enter (or close stdin) to stop",
        system.database().total_rows(),
        system.lattice().node_count(),
        args.workers
    );
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    eprintln!("shutting down...");
    let metrics = server.shutdown();
    println!("{}", metrics.to_json());
}

/// `:cache` against a server: renders the process-wide shared store's wire
/// gauges (`shared_cache_*` in the Metrics JSON — SERVING.md). All-zero
/// gauges are indistinguishable from a server running without
/// [`kwserve::ServeConfig::shared_cache`], so say so.
fn show_shared_cache(json: &str) {
    let field = |key: &str| -> u64 {
        let tag = format!("\"{key}\":");
        json.find(&tag)
            .and_then(|i| {
                let rest = &json[i + tag.len()..];
                let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
                rest[..end].parse().ok()
            })
            .unwrap_or(0)
    };
    let bytes = field("shared_cache_bytes");
    let evictions = field("shared_cache_evictions");
    let hits = field("shared_cache_hits");
    let misses = field("shared_cache_misses");
    if bytes == 0 && evictions == 0 && hits == 0 && misses == 0 {
        println!(
            "shared cache: no activity (server runs without `shared_cache`, or nothing cached yet)"
        );
        return;
    }
    let lookups = hits + misses;
    let rate = if lookups > 0 { hits as f64 * 100.0 / lookups as f64 } else { 0.0 };
    println!(
        "shared cache: {bytes} bytes resident, {hits} hits / {misses} misses \
         ({rate:.1}% hit rate), {evictions} evicted"
    );
    println!("(process-wide across every tenant; the gauges refresh on each :metrics/:cache)");
}

/// `:batch` against a server: renders the cross-session wave-exchange gauges
/// (`batch_*` in the Metrics JSON — SERVING.md). All-zero gauges are
/// indistinguishable from a server running without
/// [`kwserve::ServeConfig::batching`], so say so.
fn show_batching(json: &str) {
    let field = |key: &str| -> u64 {
        let tag = format!("\"{key}\":");
        json.find(&tag)
            .and_then(|i| {
                let rest = &json[i + tag.len()..];
                let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
                rest[..end].parse().ok()
            })
            .unwrap_or(0)
    };
    let merged = field("batch_merged_waves");
    let ratio = field("batch_coalesce_ratio");
    if merged == 0 && ratio == 0 {
        println!(
            "batching: no in-flight waits (server runs without `batching`, or no two \
             sessions ever ran the same probe at once)"
        );
        return;
    }
    println!(
        "batching: {merged} in-flight waits, {:.1}% of looked-up probes coalesced",
        ratio as f64 / 10.0
    );
    println!("(process-wide across every tenant; the gauges refresh on each :metrics/:batch)");
}

/// `--connect` mode: the REPL as one client session against a live server.
///
/// Uses a [`ResilientClient`], so transient faults, shutdowns and overload
/// refusals are retried with capped-exponential backoff instead of killing
/// the REPL; `:metrics` appends the client-observed reconnect count next to
/// the server-side record, and `:cache` renders the shared store's gauges.
fn client_repl(addr: SocketAddr, tenant: &str) {
    let policy = ReconnectPolicy { io_timeout: Some(Duration::from_secs(10)), ..ReconnectPolicy::default() };
    let mut client = ResilientClient::connect(addr, tenant, policy).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "connected to {addr} as tenant `{tenant}` (session {}); :quit to exit",
        client.session_id().expect("connect() leaves a live session")
    );
    let mut strategy: Option<StrategyKind> = None;
    let stdin = std::io::stdin();
    loop {
        let name = strategy.map_or("server", |s| s.name());
        print!("kws@{name}> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(':') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("quit") | Some("q") => break,
                Some("strategy") => match parts.next() {
                    Some(arg) if arg.eq_ignore_ascii_case("default") => {
                        strategy = None;
                        println!("strategy = server default");
                    }
                    Some(arg) => match parse_strategy(arg) {
                        Some(s) => {
                            strategy = Some(s);
                            println!("strategy = {} (per request)", s.name());
                        }
                        None => println!("usage: :strategy BU|TD|BUWR|TDWR|SBH|BRUTE|default"),
                    },
                    None => println!("usage: :strategy BU|TD|BUWR|TDWR|SBH|BRUTE|default"),
                },
                Some("metrics") => match client.metrics_json() {
                    Ok(json) => {
                        println!("{json}");
                        // The server cannot observe reconnections (each one
                        // is just a new session to it) — report them from
                        // the client side, where they are counted.
                        println!("{{\"client\":{{\"reconnects\":{}}}}}", client.reconnects());
                    }
                    Err(e) => println!("error: {e}"),
                },
                Some("cache") => match client.metrics_json() {
                    Ok(json) => show_shared_cache(&json),
                    Err(e) => println!("error: {e}"),
                },
                Some("batch") => match client.metrics_json() {
                    Ok(json) => show_batching(&json),
                    Err(e) => println!("error: {e}"),
                },
                Some("epoch") => match client.epoch() {
                    // The session's local pin: every report of this session
                    // reflects exactly this database write epoch.
                    Some(epoch) => println!(
                        "server snapshot at write epoch {epoch} (session {}); \
                         reports from other epochs are not comparable",
                        client.session_id().unwrap_or(0)
                    ),
                    None => println!("no live session (reconnect pending)"),
                },
                Some("lattice") | Some("budget") | Some("chaos") | Some("mutate") => {
                    println!(
                        "local-only command; the server holds an immutable snapshot \
                         and budgets are set per tenant"
                    )
                }
                _ => println!(
                    "commands: :strategy <name>|default, :metrics, :cache, :batch, :epoch, :quit"
                ),
            }
            continue;
        }
        match client.debug_with_strategy(line, strategy) {
            Ok(wire) => {
                print!("{}", wire.report);
                println!(
                    "[{} answers, {} non-answers, {} MPANs; {}served in {:.2} ms]",
                    wire.report.answer_count(),
                    wire.report.non_answer_count(),
                    wire.report.mpan_count(),
                    if wire.degraded { "DEGRADED, " } else { "" },
                    wire.server_ns as f64 / 1e6,
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }
    let _ = client.close();
}

fn main() {
    let args = parse_args();
    let max_level = args.max_level.unwrap_or(5);
    if let Some(addr) = args.connect {
        client_repl(addr, &args.tenant);
        return;
    }
    if let Some(addr) = args.listen {
        serve_mode(&args, addr, max_level);
        return;
    }
    eprintln!("building system (scale {:?}, level {max_level})...", args.scale);
    let mut mdb = build_mutable_system(args.scale, args.seed, max_level);
    mdb.share_eval_cache(None);
    let base_config = mutable_session_config(max_level);
    let mut session = Some(mdb.session(base_config).expect("valid experiment configuration"));
    eprintln!(
        "ready: {} tuples, lattice {} nodes. Try `DeRose VLDB` or `Widom Trio`; :quit to exit.",
        mdb.database().total_rows(),
        session.as_ref().expect("just built").lattice().node_count()
    );

    let mut strategy = StrategyKind::ScoreBasedHeuristic;
    let mut cache_on = false;
    let mut budget: Option<ProbeBudget> = None;
    let mut chaos: Option<FaultConfig> = None;
    let mut last: Option<LastRun> = None;
    let stdin = std::io::stdin();
    loop {
        print!("kws[{}]> ", strategy.name());
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(':') {
            let mut parts = rest.split_whitespace();
            let system = session.as_mut().expect("session is live between commands");
            match parts.next() {
                Some("quit") | Some("q") => break,
                Some("strategy") => match parts.next().and_then(parse_strategy) {
                    Some(s) => {
                        strategy = s;
                        println!("strategy = {}", strategy.name());
                    }
                    None => println!("usage: :strategy BU|TD|BUWR|TDWR|SBH|BRUTE"),
                },
                Some("metrics") => match &last {
                    Some(run) => show_metrics(system, run, &args, max_level),
                    None => println!("no query run yet — type a keyword query first"),
                },
                Some("lattice") => show_lattice(system),
                Some("epoch") => show_epoch(&mdb),
                Some("mutate") => {
                    let margs: Vec<String> = parts.map(str::to_owned).collect();
                    // Quiesce: the REPL's session is the only snapshot
                    // holder; drop it so the write path has exclusivity,
                    // then rebuild over the new epoch (O(1)) with the
                    // session knobs reapplied. The evaluation cache lives
                    // in the shared store, so surviving (clean) entries
                    // stay warm across the write.
                    drop(session.take());
                    println!("{}", apply_mutation(&mut mdb, &margs));
                    let mut s =
                        mdb.session(base_config).expect("config still matches the lattice");
                    s.set_eval_cache(cache_on);
                    if let Some(b) = budget {
                        s.set_budget(b);
                    }
                    s.set_chaos(chaos);
                    session = Some(s);
                }
                Some("cache") => match parts.next() {
                    None => show_cache(system, cache_on, last.as_ref()),
                    Some(arg) if arg.eq_ignore_ascii_case("on") => {
                        cache_on = true;
                        system.set_eval_cache(true);
                        println!("evaluation cache on (shared store, epoch-invalidated)");
                    }
                    Some(arg) if arg.eq_ignore_ascii_case("off") => {
                        cache_on = false;
                        system.set_eval_cache(false);
                        println!("evaluation cache off (entries retained)");
                    }
                    Some(_) => println!("usage: :cache [on|off]"),
                },
                Some("budget") => match parse_budget(&mut parts) {
                    Some(b) => {
                        let label = if b.is_unlimited() { "unlimited" } else { "set" };
                        budget = Some(b);
                        system.set_budget(b);
                        println!("probe budget {label} (per interpretation)");
                    }
                    None => println!("usage: :budget PROBES [DEADLINE_MS]  |  :budget off"),
                },
                Some("chaos") => match parse_chaos(&mut parts) {
                    Some(c) => {
                        match &c {
                            Some(c) => println!(
                                "chaos on: seed={} transient={}‰ permanent={}‰ latency={}‰",
                                c.seed, c.transient_per_mille, c.permanent_per_mille, c.latency_per_mille
                            ),
                            None => println!("chaos off"),
                        }
                        chaos = c;
                        system.set_chaos(c);
                    }
                    None => println!("usage: :chaos SEED TRANSIENT‰ PERMANENT‰ [LATENCY‰]  |  :chaos off"),
                },
                _ => println!("commands: :strategy <name>, :metrics, :lattice, :epoch, :mutate ..., :cache [on|off], :budget ..., :chaos ..., :quit"),
            }
            continue;
        }
        if let Some(run) = handle(session.as_ref().expect("session is live"), strategy, line) {
            last = Some(run);
        }
    }
}
