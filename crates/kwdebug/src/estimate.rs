//! Lightweight estimation of the aliveness prior `p_a` (paper §2.5.3,
//! future work).
//!
//! The score-based heuristic weighs "what if this node is alive" against
//! "what if it is dead" with a prior `p_a`. The paper fixes `p_a = 0.5` and
//! notes that estimating it exactly would require executing all the queries —
//! "it is still interesting future work to explore lightweight estimation
//! approaches for `p_a`". This module is that approach: a textbook
//! System-R-style cardinality model over statistics that are already
//! available without touching the data at query time —
//!
//! * per-table row counts,
//! * per-join-column distinct-value counts (from the engine's join indexes),
//! * per-keyword document frequencies (from the inverted index).
//!
//! The expected result size of a join network is
//!
//! ```text
//! E[|T|] = Π_nodes sel(node) · |R(node)|  ·  Π_edges 1 / max(V(a.col), V(b.col))
//! ```
//!
//! and the node's aliveness probability is modeled as `1 − e^(−E[|T|])`
//! (a Poisson approximation of "at least one result"). `p_a` for a pruned
//! lattice is the mean over its nodes.
//!
//! ## Online estimation (DESIGN.md §12)
//!
//! The static model above never looks at a verdict. [`OnlinePa`] closes the
//! loop: every *executed* probe reports `(level, alive)` into per-level
//! counters, and SBH's prior for a node becomes the Laplace-smoothed
//! observed alive rate of its level — exactly 0.5 (the paper's prior) at
//! zero observations, converging to the workload's true rate as probes
//! accumulate. Under the serving layer the estimator lives in
//! [`crate::debugger::SharedParts`], so verdicts observed by one tenant's
//! session sharpen the prior for every other (see CACHING.md). Enabled by
//! `DebugConfig::online_pa`; measured by the `exp_pa_estimate` /
//! `exp_pa_sweep` harnesses.

use std::sync::atomic::{AtomicU64, Ordering};

use relengine::Database;
use textindex::InvertedIndex;

use crate::binding::Interpretation;
use crate::jnts::Jnts;
use crate::lattice::Lattice;
use crate::prune::PrunedLattice;

/// Statistics-based cardinality and aliveness estimator.
pub struct PaEstimator<'a> {
    db: &'a Database,
    index: &'a InvertedIndex,
    interp: &'a Interpretation,
    keywords: &'a [String],
}

impl<'a> PaEstimator<'a> {
    /// Creates an estimator for one interpretation.
    pub fn new(
        db: &'a Database,
        index: &'a InvertedIndex,
        interp: &'a Interpretation,
        keywords: &'a [String],
    ) -> Self {
        PaEstimator { db, index, interp, keywords }
    }

    /// Expected number of result tuples of a network, under independence.
    pub fn expected_rows(&self, jnts: &Jnts) -> f64 {
        let mut expected = 1.0f64;
        for &ts in jnts.nodes() {
            let table = self.db.table(ts.table);
            let base = table.len() as f64;
            let filtered = match self.interp.keyword_for(ts) {
                None => base,
                Some(kw) => {
                    self.index.doc_frequency(ts.table, &self.keywords[kw]) as f64
                }
            };
            expected *= filtered;
        }
        for e in jnts.edges() {
            let fk = self.db.foreign_key(e.fk);
            let v_from = self.db.table(fk.from_table).distinct_ints(fk.from_col).max(1);
            let v_to = self.db.table(fk.to_table).distinct_ints(fk.to_col).max(1);
            expected /= v_from.max(v_to) as f64;
        }
        expected
    }

    /// Probability the network returns at least one tuple:
    /// `1 − e^(−E[rows])`.
    pub fn alive_probability(&self, jnts: &Jnts) -> f64 {
        let rows = self.expected_rows(jnts);
        if !rows.is_finite() {
            return 1.0;
        }
        1.0 - (-rows).exp()
    }

    /// Mean aliveness probability over a pruned lattice — the estimated
    /// `p_a` fed to the score-based heuristic. Empty lattices fall back to
    /// the paper's 0.5.
    pub fn estimate_pa(&self, lattice: &Lattice, pruned: &PrunedLattice) -> f64 {
        if pruned.is_empty() {
            return crate::traversal::DEFAULT_PA;
        }
        let sum: f64 =
            (0..pruned.len()).map(|i| self.alive_probability(pruned.jnts(lattice, i))).sum();
        (sum / pruned.len() as f64).clamp(0.0, 1.0)
    }
}

/// Number of per-level slots in [`OnlinePa`]. `DebugConfig::max_joins` is
/// capped at 12, so networks have at most 13 nodes; deeper levels (never
/// produced today) share the last slot rather than panic.
const PA_LEVELS: usize = 16;

/// Online per-level alive-rate estimator for SBH's prior `p_a`
/// (DESIGN.md §12).
///
/// Lock-free: two `AtomicU64` counters per network level (level = node
/// count), updated by [`OnlinePa::record`] from every *executed* probe —
/// memo hits, R1/R2 inferences and cached verdicts are derived facts, not
/// fresh observations, so they don't count. The per-level rate is
/// Laplace-smoothed, `(alive + 1) / (total + 2)`: with no observations it is
/// exactly `0.5`, the paper's fixed prior, so an unwarmed estimator is
/// behavior-identical to the default — the estimate only moves once evidence
/// exists. Shared across sessions via [`crate::debugger::SharedParts`].
#[derive(Debug)]
pub struct OnlinePa {
    alive: [AtomicU64; PA_LEVELS],
    total: [AtomicU64; PA_LEVELS],
}

impl OnlinePa {
    /// Creates an estimator with no observations (every level at 0.5).
    pub fn new() -> OnlinePa {
        OnlinePa {
            alive: std::array::from_fn(|_| AtomicU64::new(0)),
            total: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn slot(level: usize) -> usize {
        level.saturating_sub(1).min(PA_LEVELS - 1)
    }

    /// Records one executed probe's verdict for a network of `level` nodes.
    pub fn record(&self, level: usize, alive: bool) {
        let s = OnlinePa::slot(level);
        self.total[s].fetch_add(1, Ordering::Relaxed);
        if alive {
            self.alive[s].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Laplace-smoothed alive rate of networks with `level` nodes:
    /// `(alive + 1) / (total + 2)`, i.e. 0.5 with no observations.
    pub fn level_rate(&self, level: usize) -> f64 {
        let s = OnlinePa::slot(level);
        let alive = self.alive[s].load(Ordering::Relaxed) as f64;
        let total = self.total[s].load(Ordering::Relaxed) as f64;
        (alive + 1.0) / (total + 2.0)
    }

    /// Total verdicts observed across all levels.
    pub fn observations(&self) -> u64 {
        self.total.iter().map(|t| t.load(Ordering::Relaxed)).sum()
    }

    /// Estimated `p_a` for a pruned lattice: the mean of its nodes' level
    /// rates. Empty lattices fall back to the paper's 0.5.
    pub fn estimate_pa(&self, pruned: &PrunedLattice) -> f64 {
        if pruned.is_empty() {
            return crate::traversal::DEFAULT_PA;
        }
        let sum: f64 = (0..pruned.len()).map(|i| self.level_rate(pruned.level(i) as usize)).sum();
        (sum / pruned.len() as f64).clamp(0.0, 1.0)
    }
}

impl Default for OnlinePa {
    fn default() -> Self {
        OnlinePa::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{map_keywords, KeywordQuery};
    use crate::jnts::TupleSet;
    use crate::schema_graph::{Incidence, SchemaGraph};
    use relengine::{DataType, DatabaseBuilder, Value};

    /// color(2 rows) <- item(100 rows): most items red, one blue; keyword
    /// frequencies differ by 50x.
    fn setup() -> (Database, InvertedIndex) {
        let mut b = DatabaseBuilder::new();
        b.table("color").column("id", DataType::Int).column("name", DataType::Text)
            .primary_key("id");
        b.table("item")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("color_id", DataType::Int)
            .primary_key("id");
        b.foreign_key("item", "color_id", "color", "id").expect("static");
        let mut db = b.finish().expect("static");
        db.insert_values("color", vec![Value::Int(1), Value::text("red")]).expect("row");
        db.insert_values("color", vec![Value::Int(2), Value::text("blue")]).expect("row");
        for i in 1..=100i64 {
            let (name, c) = if i == 1 { ("blue widget", 2) } else { ("red widget", 1) };
            db.insert_values("item", vec![Value::Int(i), Value::text(name), Value::Int(c)])
                .expect("row");
        }
        db.finalize();
        let idx = InvertedIndex::build(&db);
        (db, idx)
    }

    use relengine::Database;

    fn estimator_for<'a>(
        db: &'a Database,
        idx: &'a InvertedIndex,
        mapping: &'a crate::binding::KeywordMapping,
    ) -> PaEstimator<'a> {
        PaEstimator::new(db, idx, &mapping.interpretations[0], &mapping.keywords)
    }

    #[test]
    fn frequent_terms_estimate_higher() {
        let (db, idx) = setup();
        // Use the interpretation binding the keyword to the *item* table
        // (both colors also appear as color names, giving two choices).
        let item_interp = |text: &str| {
            let m = map_keywords(&KeywordQuery::parse(text).expect("parses"), &idx);
            let i = m
                .interpretations
                .iter()
                .position(|i| i.tables() == [1])
                .expect("item interpretation exists");
            (m.keywords.clone(), m.interpretations[i].clone())
        };
        let (kw_red, i_red) = item_interp("red");
        let (kw_blue, i_blue) = item_interp("blue");
        let node = Jnts::single(TupleSet::new(1, 1));
        let red = PaEstimator::new(&db, &idx, &i_red, &kw_red).expected_rows(&node);
        let blue = PaEstimator::new(&db, &idx, &i_blue, &kw_blue).expected_rows(&node);
        assert!(red > blue * 10.0, "red {red} vs blue {blue}");
    }

    #[test]
    fn joins_reduce_expected_rows() {
        let (db, idx) = setup();
        let q = map_keywords(&KeywordQuery::parse("red widget").expect("parses"), &idx);
        let est = estimator_for(&db, &idx, &q);
        let single = Jnts::single(TupleSet::new(1, 1)); // item bound to "widget"
        let joined = single.extend(0, Incidence { fk: 0, other: 0, local_is_from: true }, 1);
        // Joining through a 2-distinct-value key divides by ~2 then applies
        // the color-side frequency.
        assert!(est.expected_rows(&joined) < est.expected_rows(&single));
    }

    #[test]
    fn probability_is_monotone_in_rows_and_bounded() {
        let (db, idx) = setup();
        let q = map_keywords(&KeywordQuery::parse("red").expect("parses"), &idx);
        let est = estimator_for(&db, &idx, &q);
        let bound = Jnts::single(TupleSet::new(1, 1));
        let free = Jnts::single(TupleSet::new(1, 0));
        let pb = est.alive_probability(&bound);
        let pf = est.alive_probability(&free);
        assert!((0.0..=1.0).contains(&pb));
        assert!((0.0..=1.0).contains(&pf));
        assert!(pf >= pb, "unfiltered scan at least as likely alive");
        // 100 expected rows ≈ certainly alive.
        assert!(pf > 0.999);
    }

    #[test]
    fn estimated_pa_drives_sbh_correctly() {
        let (db, idx) = setup();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 2);
        let q = map_keywords(&KeywordQuery::parse("blue widget").expect("parses"), &idx);
        let interp = &q.interpretations[0];
        let pruned = PrunedLattice::build(&lattice, interp);
        let est = PaEstimator::new(&db, &idx, interp, &q.keywords);
        let pa = est.estimate_pa(&lattice, &pruned);
        assert!((0.0..=1.0).contains(&pa));

        // SBH with the estimated prior still matches brute force.
        let mut oracle =
            crate::oracle::AlivenessOracle::new(&db, Some(&idx), interp, &q.keywords, false);
        let sbh = crate::traversal::run(
            crate::traversal::StrategyKind::ScoreBasedHeuristic,
            &lattice, &pruned, &mut oracle, pa,
        )
        .expect("runs");
        let mut oracle =
            crate::oracle::AlivenessOracle::new(&db, Some(&idx), interp, &q.keywords, false);
        let brute = crate::traversal::run(
            crate::traversal::StrategyKind::BruteForce,
            &lattice, &pruned, &mut oracle, 0.5,
        )
        .expect("runs");
        assert_eq!(sbh.alive_mtns, brute.alive_mtns);
        assert_eq!(sbh.mpans, brute.mpans);
    }

    #[test]
    fn empty_pruned_lattice_falls_back_to_half() {
        let (db, idx) = setup();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 0); // single tables only
        // Two keywords in different tables: no MTN at level 1.
        let q = map_keywords(&KeywordQuery::parse("blue red").expect("parses"), &idx);
        // Pick an interpretation placing them in different tables if any;
        // all interpretations with both in `item` still have MTNs, so use
        // the (color, item) one.
        let interp = q
            .interpretations
            .iter()
            .find(|i| i.tables()[0] != i.tables()[1])
            .expect("cross-table interpretation");
        let pruned = PrunedLattice::build(&lattice, interp);
        assert!(pruned.is_empty());
        let est = PaEstimator::new(&db, &idx, interp, &q.keywords);
        assert_eq!(est.estimate_pa(&lattice, &pruned), 0.5);
    }

    #[test]
    fn online_pa_starts_at_paper_prior_and_learns() {
        let est = OnlinePa::new();
        assert_eq!(est.level_rate(1), 0.5);
        assert_eq!(est.observations(), 0);
        // 3 alive / 1 dead at level 1 → (3+1)/(4+2) = 2/3.
        est.record(1, true);
        est.record(1, true);
        est.record(1, true);
        est.record(1, false);
        assert!((est.level_rate(1) - 4.0 / 6.0).abs() < 1e-12);
        // Level 2 untouched: still the prior.
        assert_eq!(est.level_rate(2), 0.5);
        assert_eq!(est.observations(), 4);
        // All-dead evidence pulls below 0.5 but never to 0 (smoothing).
        est.record(2, false);
        est.record(2, false);
        let r2 = est.level_rate(2);
        assert!(r2 > 0.0 && r2 < 0.5, "rate {r2}");
    }

    #[test]
    fn online_pa_over_pruned_lattice_mixes_levels() {
        let (db, idx) = setup();
        let graph = SchemaGraph::new(&db);
        let lattice = Lattice::build(&db, &graph, 2);
        let q = map_keywords(&KeywordQuery::parse("blue widget").expect("parses"), &idx);
        let interp = &q.interpretations[0];
        let pruned = PrunedLattice::build(&lattice, interp);
        assert!(!pruned.is_empty());
        let est = OnlinePa::new();
        // Unwarmed estimator reproduces the paper prior exactly.
        assert_eq!(est.estimate_pa(&pruned), crate::traversal::DEFAULT_PA);
        // Warm it heavily alive: the lattice-wide estimate rises.
        for level in 1..=3 {
            for _ in 0..20 {
                est.record(level, true);
            }
        }
        let pa = est.estimate_pa(&pruned);
        assert!(pa > 0.8, "warmed estimate {pa}");
        assert!((0.0..=1.0).contains(&pa));
    }

    #[test]
    fn online_pa_deep_levels_share_last_slot() {
        let est = OnlinePa::new();
        est.record(40, true); // far past PA_LEVELS: clamps, never panics
        assert_eq!(est.observations(), 1);
        assert!(est.level_rate(99) > 0.5, "clamped slot sees the observation");
    }
}
