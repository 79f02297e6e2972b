//! Integration: the Table 2 workload over the synthetic DBLife database.
//!
//! Checks the planted facts behave as designed (Widom authors Trio; DeRose's
//! direct VLDB path is dead while Gray's is alive), that every strategy and
//! the RE baseline agree with brute force on all ten queries, and that the
//! query-count ordering the paper reports (reuse ≤ no-reuse, lattice ≤ RE)
//! holds.

use datagen::{generate_dblife, paper_queries, DblifeConfig};
use kwdebug::binding::{map_keywords, KeywordQuery};
use kwdebug::baseline::run_return_everything;
use kwdebug::budget::ProbeBudget;
use kwdebug::debugger::{DebugConfig, NonAnswerDebugger};
use kwdebug::oracle::{build_plan, AlivenessOracle};
use kwdebug::prune::PrunedLattice;
use kwdebug::traversal::{self, StrategyKind};
use relengine::Executor;
use std::collections::HashSet;

fn system(max_joins: usize) -> NonAnswerDebugger {
    NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins, sample_limit: 0, ..DebugConfig::default() },
    )
    .expect("system builds")
}

#[test]
fn widom_trio_is_an_answer() {
    let sys = system(2);
    let report = sys.debug("Widom Trio").expect("Q1 runs");
    assert!(report.answer_count() >= 1, "Widom authors the Trio paper");
}

#[test]
fn hristidis_keyword_search_alive_at_level5() {
    let sys = system(4);
    let report = sys.debug("Hristidis Keyword Search").expect("Q2 runs");
    // Hristidis works on the "Keyword Search" topic; both keywords land in
    // that topic tuple, reachable via two works_on hops or topic-topic paths.
    assert!(report.answer_count() + report.non_answer_count() > 0, "Q2 has MTNs");
}

#[test]
fn derose_vldb_direct_path_is_dead_grays_is_alive() {
    let sys = system(4);
    let db = sys.database();
    let query = KeywordQuery::parse("derose vldb").expect("parses");
    let mapping = map_keywords(&query, sys.index());
    let interp = &mapping.interpretations[0];
    // Hand-build the publication path MTN:
    // person1 — writes0 — publication0 — published_in0 — conference1.
    let person = db.table_id("person").expect("schema");
    let find_fk = |from: &str, from_col: &str| {
        let ft = db.table_id(from).expect("schema");
        let fc = db.table(ft).schema().col_index(from_col).expect("schema");
        db.foreign_keys()
            .iter()
            .position(|fk| fk.from_table == ft && fk.from_col == fc)
            .expect("fk exists")
    };
    let fk_wp = find_fk("writes", "person_id");
    let fk_wpub = find_fk("writes", "pub_id");
    let fk_pubc = find_fk("published_in", "pub_id");
    let fk_pic = find_fk("published_in", "conf_id");
    use kwdebug::jnts::{Jnts, TupleSet};
    use kwdebug::schema_graph::Incidence;
    let writes = db.table_id("writes").expect("schema");
    let publication = db.table_id("publication").expect("schema");
    let published_in = db.table_id("published_in").expect("schema");
    let conference = db.table_id("conference").expect("schema");
    let path = Jnts::single(TupleSet::new(person, 1))
        .extend(0, Incidence { fk: fk_wp, other: writes, local_is_from: false }, 0)
        .extend(1, Incidence { fk: fk_wpub, other: publication, local_is_from: true }, 0)
        .extend(2, Incidence { fk: fk_pubc, other: published_in, local_is_from: false }, 0)
        .extend(3, Incidence { fk: fk_pic, other: conference, local_is_from: true }, 1);

    let plan = build_plan(&path, interp, db, Some(sys.index()), &mapping.keywords)
        .expect("plan builds");
    let mut exec = Executor::new(db);
    assert!(
        !exec.exists(&plan).expect("plan runs"),
        "DeRose publications never appear in VLDB by construction"
    );

    // The same path for "gray vldb" is alive (planted publication 4).
    let query = KeywordQuery::parse("gray vldb").expect("parses");
    let mapping = map_keywords(&query, sys.index());
    let plan = build_plan(&path, &mapping.interpretations[0], db, Some(sys.index()), &mapping.keywords)
        .expect("plan builds");
    assert!(exec.exists(&plan).expect("plan runs"), "Gray publishes in VLDB");
}

#[test]
fn all_strategies_and_re_agree_on_the_whole_workload() {
    let sys = system(4);
    for q in paper_queries() {
        let query = KeywordQuery::parse(q.text).expect("parses");
        let mapping = map_keywords(&query, sys.index());
        for interp in &mapping.interpretations {
            let pruned = PrunedLattice::build(sys.lattice(), interp);
            let reference = {
                let mut oracle = AlivenessOracle::new(
                    sys.database(), Some(sys.index()), interp, &mapping.keywords, false,
                );
                traversal::run(
                    StrategyKind::BruteForce, sys.lattice(), &pruned, &mut oracle, 0.5,
                )
                .expect("brute runs")
            };
            for kind in StrategyKind::ALL {
                let mut oracle = AlivenessOracle::new(
                    sys.database(), Some(sys.index()), interp, &mapping.keywords, false,
                );
                let out = traversal::run(kind, sys.lattice(), &pruned, &mut oracle, 0.5)
                    .expect("strategy runs");
                assert_eq!(out.alive_mtns, reference.alive_mtns, "{} {kind}", q.id);
                assert_eq!(out.dead_mtns, reference.dead_mtns, "{} {kind}", q.id);
                assert_eq!(out.mpans, reference.mpans, "{} {kind}", q.id);
                // Shared-status strategies execute each node at most once, so
                // inference can only save queries relative to brute force.
                // (BU/TD without reuse may exceed brute force by re-executing
                // nodes shared between MTNs — that is exactly the redundancy
                // the paper's reuse variants remove.)
                if matches!(
                    kind,
                    StrategyKind::BottomUpWithReuse
                        | StrategyKind::TopDownWithReuse
                        | StrategyKind::ScoreBasedHeuristic
                ) {
                    assert!(
                        out.sql_queries <= reference.sql_queries,
                        "{} {kind}: shared-status inference exceeded brute force",
                        q.id
                    );
                }
            }
            let mut oracle = AlivenessOracle::new(
                sys.database(), Some(sys.index()), interp, &mapping.keywords, false,
            );
            let re = run_return_everything(sys.lattice(), &pruned, &mut oracle)
                .expect("RE runs");
            assert_eq!(re.outcome.alive_mtns, reference.alive_mtns, "{} RE", q.id);
            assert_eq!(re.outcome.dead_mtns, reference.dead_mtns, "{} RE", q.id);
            assert_eq!(re.outcome.mpans, reference.mpans, "{} RE", q.id);
        }
    }
}

#[test]
fn reuse_variants_never_execute_more_than_plain() {
    let sys = system(4);
    for q in paper_queries() {
        let query = KeywordQuery::parse(q.text).expect("parses");
        let mapping = map_keywords(&query, sys.index());
        for interp in &mapping.interpretations {
            let pruned = PrunedLattice::build(sys.lattice(), interp);
            let count = |kind| {
                let mut oracle = AlivenessOracle::new(
                    sys.database(), Some(sys.index()), interp, &mapping.keywords, false,
                );
                traversal::run(kind, sys.lattice(), &pruned, &mut oracle, 0.5)
                    .expect("runs")
                    .sql_queries
            };
            assert!(
                count(StrategyKind::BottomUpWithReuse) <= count(StrategyKind::BottomUp),
                "{}: BUWR > BU",
                q.id
            );
            assert!(
                count(StrategyKind::TopDownWithReuse) <= count(StrategyKind::TopDown),
                "{}: TDWR > TD",
                q.id
            );
        }
    }
}

#[test]
fn memoization_reduces_executions_across_strategies() {
    let sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 3, sample_limit: 0, memoize: true, ..DebugConfig::default() },
    )
    .expect("system builds");
    let query = KeywordQuery::parse("Widom Trio").expect("parses");
    let mapping = map_keywords(&query, sys.index());
    let interp = &mapping.interpretations[0];
    let pruned = PrunedLattice::build(sys.lattice(), interp);
    let mut oracle =
        AlivenessOracle::new(sys.database(), Some(sys.index()), interp, &mapping.keywords, true);
    let first = traversal::run(
        StrategyKind::BottomUp, sys.lattice(), &pruned, &mut oracle, 0.5,
    )
    .expect("runs");
    let second = traversal::run(
        StrategyKind::BottomUp, sys.lattice(), &pruned, &mut oracle, 0.5,
    )
    .expect("runs");
    assert!(first.sql_queries > 0);
    assert_eq!(second.sql_queries, 0, "memo makes the second pass free");
    assert_eq!(first.alive_mtns, second.alive_mtns);
}

#[test]
fn results_are_seed_robust() {
    // The experiment claims must not hinge on one lucky seed: under a
    // different generator seed, every strategy still agrees with brute force
    // on the whole workload, and the planted facts still hold.
    let sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig { seed: 99, ..DblifeConfig::tiny() }),
        DebugConfig { max_joins: 4, sample_limit: 0, ..DebugConfig::default() },
    )
    .expect("system builds");
    assert!(sys.debug("Widom Trio").expect("runs").answer_count() >= 1);
    for q in paper_queries() {
        let reference = sys
            .debug_with_strategy(q.text, StrategyKind::BruteForce)
            .expect("brute runs");
        for kind in StrategyKind::ALL {
            let r = sys.debug_with_strategy(q.text, kind).expect("strategy runs");
            assert_eq!(r.answer_count(), reference.answer_count(), "{} {kind}", q.id);
            assert_eq!(r.non_answer_count(), reference.non_answer_count(), "{} {kind}", q.id);
            assert_eq!(r.mpan_count(), reference.mpan_count(), "{} {kind}", q.id);
        }
    }
}

/// Report assembly samples each distinct alive node of an interpretation
/// once, however many dead MTNs share it as an MPAN: a probe budget that
/// covers the traversal plus one sample per distinct node reproduces the
/// unlimited report, samples included, and one probe less does not.
#[test]
fn shared_mpans_are_sampled_once() {
    let mut sys = NonAnswerDebugger::new(
        generate_dblife(&DblifeConfig::tiny()),
        DebugConfig { max_joins: 4, sample_limit: 3, ..DebugConfig::default() },
    )
    .expect("system builds");
    let mut shared = 0;
    for q in paper_queries() {
        sys.set_budget(ProbeBudget::default());
        let full = sys.debug(q.text).expect("runs");
        let [interp] = full.interpretations.as_slice() else { continue };
        let alive: Vec<&str> = interp
            .answers
            .iter()
            .chain(interp.non_answers.iter().flat_map(|n| n.mpans.iter().chain(&n.possible_mpans)))
            .map(|info| info.sql.as_str())
            .collect();
        let distinct: HashSet<&str> = alive.iter().copied().collect();
        if distinct.len() == alive.len() {
            continue;
        }
        shared += 1;
        let exact = interp.sql_queries + distinct.len() as u64;
        sys.set_budget(ProbeBudget::probes(exact));
        let tight = sys.debug(q.text).expect("runs");
        assert_eq!(tight.interpretations[0].answers, interp.answers, "{}", q.id);
        assert_eq!(tight.interpretations[0].non_answers, interp.non_answers, "{}", q.id);
        sys.set_budget(ProbeBudget::probes(exact - 1));
        let short = sys.debug(q.text).expect("runs");
        assert_ne!(short.interpretations[0].non_answers, interp.non_answers, "{}", q.id);
    }
    assert!(shared > 0, "some Table 2 query shares an MPAN between dead MTNs");
}
