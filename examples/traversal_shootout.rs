//! Compare all five traversal strategies on one query.
//!
//! Runs the paper's Q3 ("Agrawal Chaudhuri Das") through BU, BUWR, TD, TDWR
//! and SBH over the same offline lattice, verifying they agree on the output
//! while differing — often dramatically — in how many SQL queries they
//! execute. The probe/inference columns show *why* they differ: the
//! with-reuse variants convert probes into reuse hits, SBH converts them
//! into R1/R2 inferences. This is Figures 11/12 in miniature.
//!
//! Run with: `cargo run --release --example traversal_shootout`

use kws_nonanswer_debug::datagen::{generate_dblife, DblifeConfig};
use kws_nonanswer_debug::kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kws_nonanswer_debug::kwdebug::mutable::MutableDatabase;
use kws_nonanswer_debug::kwdebug::traversal::StrategyKind;
use kws_nonanswer_debug::kwdebug::WaveExchange;
use kws_nonanswer_debug::relengine::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = generate_dblife(&DblifeConfig::small());
    let debugger = NonAnswerDebugger::new(
        db,
        DebugConfig { max_joins: 4, sample_limit: 0, ..DebugConfig::default() },
    )?;

    let query = "Agrawal Chaudhuri Das";
    println!("query: {query:?} (the paper's Q3)\n");
    println!(
        "{:<8} {:>7} {:>10} {:>6} {:>6} {:>6} {:>9} {:>8} {:>12}",
        "strategy", "probes", "time", "R1", "R2", "reuse", "scanned", "answers", "non-answers"
    );

    let mut reference: Option<(usize, usize, usize)> = None;
    let mut baseline_probes = Vec::new();
    for kind in StrategyKind::ALL {
        let report = debugger.debug_with_strategy(query, kind)?;
        let signature =
            (report.answer_count(), report.non_answer_count(), report.mpan_count());
        match &reference {
            None => reference = Some(signature),
            Some(r) => assert_eq!(*r, signature, "{kind} disagrees with the other strategies"),
        }
        let p = report.probes();
        assert_eq!(p.probes_executed, report.sql_queries(), "probe accounting must agree");
        baseline_probes.push(p.probes_executed);
        println!(
            "{:<8} {:>7} {:>10} {:>6} {:>6} {:>6} {:>9} {:>8} {:>12}",
            kind.name(),
            p.probes_executed,
            format!("{:.2?}", report.sql_time()),
            p.r1_inferences,
            p.r2_inferences,
            p.reuse_hits,
            p.tuples_scanned,
            signature.0,
            signature.1,
        );
    }
    println!("\nall strategies produced identical answers, non-answers and MPANs");
    println!("(probes == SQL queries executed; R1/R2 = statuses inferred by the rules)");

    // Same shootout with the session-scoped evaluation cache on: keyword
    // selections and whole-network verdicts carry across probes (and
    // across strategies — the session warms as the loop runs). The verdicts
    // are identical; the cache columns show where the probing work went.
    let db = generate_dblife(&DblifeConfig::small());
    let cached = NonAnswerDebugger::new(
        db,
        DebugConfig { max_joins: 4, sample_limit: 0, eval_cache: true, ..DebugConfig::default() },
    )?;
    println!("\nwith the cross-probe evaluation cache (one warming session):\n");
    println!(
        "{:<8} {:>7} {:>7} {:>8} {:>9} {:>10}",
        "strategy", "probes", "vc-hit", "sel-hit", "scanned", "time"
    );
    for (i, kind) in StrategyKind::ALL.into_iter().enumerate() {
        let report = cached.debug_with_strategy(query, kind)?;
        let signature =
            (report.answer_count(), report.non_answer_count(), report.mpan_count());
        assert_eq!(reference, Some(signature), "{kind}: cache changed the output");
        let p = report.probes();
        assert_eq!(
            p.probes_executed + p.verdict_cache_hits,
            baseline_probes[i],
            "{kind}: every skipped probe must be a cache shortcut"
        );
        println!(
            "{:<8} {:>7} {:>7} {:>8} {:>9} {:>10}",
            kind.name(),
            p.probes_executed,
            p.verdict_cache_hits,
            p.selection_cache_hits,
            p.tuples_scanned,
            format!("{:.2?}", report.sql_time()),
        );
    }
    let cache = cached.eval_cache();
    println!(
        "\nsame answers, fewer scans: {} selections + {} postings + {} verdicts cached ({} bytes)",
        cache.selection_entries(),
        cache.postings_entries(),
        cache.verdict_entries(),
        cache.bytes()
    );
    println!("(vc-hit = probes answered from a cached whole-network verdict; no SQL issued)");

    // Same shootout with two concurrent sessions sharing a cross-session
    // single-flight exchange (kwdebug::batch): a probe one session is
    // executing while the other needs it is waited on, not run twice. How
    // many overlap depends on timing, but each session's probe + coalesced
    // columns must add back up to the unbatched baseline — and the reports
    // stay identical.
    let exchange = std::sync::Arc::new(WaveExchange::default());
    println!("\nwith two sessions sharing one single-flight exchange:\n");
    println!(
        "{:<8} {:>9} {:>9} {:>11} {:>11}",
        "strategy", "s1-probes", "s2-probes", "s1-coalesce", "s2-coalesce"
    );
    for (i, kind) in StrategyKind::ALL.into_iter().enumerate() {
        let barrier = std::sync::Barrier::new(2);
        let reports = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let exchange = exchange.clone();
                    let barrier = &barrier;
                    let parts = debugger.shared_parts();
                    s.spawn(move || {
                        let mut session = NonAnswerDebugger::from_shared(
                            parts,
                            DebugConfig {
                                max_joins: 4,
                                sample_limit: 0,
                                strategy: kind,
                                ..DebugConfig::default()
                            },
                        )
                        .expect("same substrate, same config");
                        session.set_wave_exchange(Some(exchange));
                        barrier.wait();
                        session.debug(query).expect("batched debug run")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread")).collect::<Vec<_>>()
        });
        for report in &reports {
            let signature =
                (report.answer_count(), report.non_answer_count(), report.mpan_count());
            assert_eq!(reference, Some(signature), "{kind}: batching changed the output");
            let p = report.probes();
            assert_eq!(
                p.probes_executed + p.coalesced_probes,
                baseline_probes[i],
                "{kind}: every skipped probe must be a coalesced one"
            );
        }
        let (p1, p2) = (reports[0].probes(), reports[1].probes());
        println!(
            "{:<8} {:>9} {:>9} {:>11} {:>11}",
            kind.name(),
            p1.probes_executed,
            p2.probes_executed,
            p1.coalesced_probes,
            p2.coalesced_probes,
        );
    }
    println!(
        "\n{} in-flight waits, {} of {} looked-up probes answered by a peer's execution",
        exchange.merged_waves(),
        exchange.coalesced_probes(),
        exchange.submitted_probes()
    );
    println!("(each session is charged for every probe it would have run: executed + coalesced = unbatched probes)");

    // Same shootout against a *mutated* database: writes go through the
    // epoch-stamped coordinator, the inverted index is maintained by delta
    // postings, and the shared evaluation cache sheds only entries the
    // writes touched. The epoch/invalidation columns show that machinery;
    // the strategies must still agree with each other on the new data.
    let db = generate_dblife(&DblifeConfig::small());
    let mut mutated = MutableDatabase::new(db, 4)?;
    mutated.share_eval_cache(None);
    {
        // Warm the shared store pre-write so invalidation has work to do.
        let warm = mutated.session(DebugConfig {
            sample_limit: 0,
            eval_cache: true,
            ..DebugConfig::default()
        })?;
        warm.debug(query)?;
    }
    // A new person named Das: overlaps the warmed query's keyword entries,
    // so the shared store must shed exactly those.
    let person = mutated.table_id("person").expect("dblife schema");
    mutated.append_rows(person, vec![vec![Value::Int(900_001), Value::text("Anjali Das")]])?;
    println!("\nafter a write (epoch {}), same session machinery:\n", mutated.epoch());
    println!(
        "{:<8} {:>7} {:>6} {:>12} {:>12} {:>12}",
        "strategy", "probes", "epoch", "delta-merge", "invalidated", "compactions"
    );
    let mut mutated_reference = None;
    for kind in StrategyKind::ALL {
        let session = mutated.session(DebugConfig {
            strategy: kind,
            sample_limit: 0,
            eval_cache: true,
            ..DebugConfig::default()
        })?;
        let report = session.debug(query)?;
        let signature =
            (report.answer_count(), report.non_answer_count(), report.mpan_count());
        match &mutated_reference {
            None => mutated_reference = Some(signature),
            Some(r) => {
                assert_eq!(*r, signature, "{kind} disagrees on the mutated database")
            }
        }
        let p = report.probes();
        assert_eq!(p.epoch, mutated.epoch(), "sessions report the live epoch");
        println!(
            "{:<8} {:>7} {:>6} {:>12} {:>12} {:>12}",
            kind.name(),
            p.probes_executed,
            p.epoch,
            p.delta_postings_merged,
            p.entries_invalidated,
            p.compactions,
        );
    }
    println!(
        "\nall strategies agree after the write; the index served {} pending delta rows in place",
        mutated.index().pending_delta_rows()
    );
    Ok(())
}
