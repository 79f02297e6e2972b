//! Output types: the system's answer to a keyword query.
//!
//! Per §2.1 the output is `O(K) = A(K) ∪ N(K) ∪ M(K)`: the answer queries,
//! the non-answer queries, and for each non-answer its maximal non-empty
//! sub-queries. Reports carry SQL text (what a developer pastes into a
//! console) and sample result tuples for everything alive.
//!
//! Reports are deterministic in everything but wall-clock timings: the same
//! query on the same snapshot yields the same classification and the same
//! MPAN lists in the same order, with the evaluation cache on or off and
//! with or without cross-session batching (the differential suites pin this;
//! DESIGN.md §8 explains why). Only the work counters those layers save and
//! `probe_time_ns` differ between such runs.

use std::fmt;
use std::time::Duration;

use crate::budget::Exhausted;
use crate::metrics::{PhaseTiming, ProbeCounters};
use crate::prune::PruneStats;

/// One structured query (a lattice node) as shown to the developer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryInfo {
    /// Rendered SQL of the instantiated query.
    pub sql: String,
    /// Lattice level (number of relation instances).
    pub level: u32,
    /// Up to `sample_limit` rendered result tuples (empty for dead queries or
    /// when sampling is disabled).
    pub sample_tuples: Vec<String>,
}

/// A dead candidate network together with its explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonAnswerInfo {
    /// The non-answer query itself.
    pub query: QueryInfo,
    /// Its maximal partially alive sub-queries — the frontier cause. On a
    /// degraded run these are the *confirmed* MPANs (a sound lower bound).
    pub mpans: Vec<QueryInfo>,
    /// Additional *possible* MPANs a degraded run could not confirm or rule
    /// out (not known dead, no in-cone parent known alive); together with
    /// [`NonAnswerInfo::mpans`] a sound upper bound on the true frontier.
    /// Always empty on a complete run.
    pub possible_mpans: Vec<QueryInfo>,
}

/// Results for one interpretation of the keyword query.
#[derive(Debug, Clone)]
pub struct InterpretationOutcome {
    /// `(keyword, table name)` binding of this interpretation.
    pub keyword_tables: Vec<(String, String)>,
    /// Alive candidate networks.
    pub answers: Vec<QueryInfo>,
    /// Dead candidate networks with their MPANs.
    pub non_answers: Vec<NonAnswerInfo>,
    /// Candidate networks a degraded run could not classify (budget
    /// exhaustion or abandoned probes); always empty on a complete run.
    pub unknown: Vec<QueryInfo>,
    /// Why probing stopped early, if a budget cap tripped during this
    /// interpretation's traversal.
    pub budget_exhausted: Option<Exhausted>,
    /// Phase 1/2 statistics.
    pub prune_stats: PruneStats,
    /// SQL queries executed by the Phase-3 traversal.
    pub sql_queries: u64,
    /// Wall-clock SQL time of the Phase-3 traversal.
    pub sql_time: Duration,
    /// Probe/inference counters of the Phase-3 traversal.
    pub probes: ProbeCounters,
    /// Wall-clock breakdown of this interpretation's phases (`mapping` and
    /// `total` are report-level and left zero here).
    pub timing: PhaseTiming,
}

/// The full report for a keyword query.
#[derive(Debug, Clone)]
pub struct DebugReport {
    /// Normalized keywords in query order.
    pub keywords: Vec<String>,
    /// Keywords that occur nowhere in the database (non-empty ⇒ no
    /// exploration happened, matching the paper's early exit).
    pub unknown_keywords: Vec<String>,
    /// Per-interpretation results.
    pub interpretations: Vec<InterpretationOutcome>,
    /// Time to map keywords to schema terms (Phase 1 lookup, §3.3).
    pub mapping_time: Duration,
    /// End-to-end time of the debug call.
    pub total_time: Duration,
    /// Per-phase wall-clock breakdown (mapping + per-interpretation phases
    /// summed + total).
    pub timing: PhaseTiming,
}

impl DebugReport {
    /// Total answer queries across interpretations.
    pub fn answer_count(&self) -> usize {
        self.interpretations.iter().map(|i| i.answers.len()).sum()
    }

    /// Total non-answer queries across interpretations.
    pub fn non_answer_count(&self) -> usize {
        self.interpretations.iter().map(|i| i.non_answers.len()).sum()
    }

    /// Total confirmed MPANs reported across all non-answers.
    pub fn mpan_count(&self) -> usize {
        self.interpretations
            .iter()
            .flat_map(|i| i.non_answers.iter())
            .map(|n| n.mpans.len())
            .sum()
    }

    /// Total unconfirmed (possible) MPANs across all non-answers; 0 on a
    /// complete run.
    pub fn possible_mpan_count(&self) -> usize {
        self.interpretations
            .iter()
            .flat_map(|i| i.non_answers.iter())
            .map(|n| n.possible_mpans.len())
            .sum()
    }

    /// Total candidate networks left unclassified across interpretations;
    /// 0 on a complete run.
    pub fn unknown_count(&self) -> usize {
        self.interpretations.iter().map(|i| i.unknown.len()).sum()
    }

    /// Whether every interpretation ran to completion: nothing unknown, no
    /// unconfirmed MPANs, no tripped budget. Always true on the happy path.
    pub fn is_complete(&self) -> bool {
        self.unknown_count() == 0
            && self.possible_mpan_count() == 0
            && self.interpretations.iter().all(|i| i.budget_exhausted.is_none())
    }

    /// Total SQL queries executed across interpretations.
    pub fn sql_queries(&self) -> u64 {
        self.interpretations.iter().map(|i| i.sql_queries).sum()
    }

    /// Total SQL time across interpretations.
    pub fn sql_time(&self) -> Duration {
        self.interpretations.iter().map(|i| i.sql_time).sum()
    }

    /// Probe/inference counters summed across interpretations.
    pub fn probes(&self) -> ProbeCounters {
        let mut sum = ProbeCounters::default();
        for i in &self.interpretations {
            sum.accumulate(i.probes);
        }
        sum
    }
}

impl fmt::Display for DebugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "keyword query: {:?}", self.keywords)?;
        if !self.unknown_keywords.is_empty() {
            writeln!(
                f,
                "keywords not found anywhere in the database: {:?}",
                self.unknown_keywords
            )?;
            return writeln!(f, "(no exploration performed — \"and\" semantics)");
        }
        for (i, interp) in self.interpretations.iter().enumerate() {
            writeln!(f, "— interpretation #{}:", i + 1)?;
            for (kw, table) in &interp.keyword_tables {
                writeln!(f, "    {kw} -> {table}")?;
            }
            writeln!(
                f,
                "  {} answer quer{}, {} non-answer quer{} ({} SQL queries, {:?})",
                interp.answers.len(),
                if interp.answers.len() == 1 { "y" } else { "ies" },
                interp.non_answers.len(),
                if interp.non_answers.len() == 1 { "y" } else { "ies" },
                interp.sql_queries,
                interp.sql_time,
            )?;
            for a in &interp.answers {
                writeln!(f, "  ALIVE  (level {}) {}", a.level, a.sql)?;
                for t in &a.sample_tuples {
                    writeln!(f, "           e.g. {t}")?;
                }
            }
            for n in &interp.non_answers {
                writeln!(f, "  DEAD   (level {}) {}", n.query.level, n.query.sql)?;
                for m in &n.mpans {
                    writeln!(f, "    max alive sub-query (level {}): {}", m.level, m.sql)?;
                    for t in &m.sample_tuples {
                        writeln!(f, "           e.g. {t}")?;
                    }
                }
                for m in &n.possible_mpans {
                    writeln!(
                        f,
                        "    possibly-max alive sub-query (level {}): {}",
                        m.level, m.sql
                    )?;
                }
            }
            for u in &interp.unknown {
                writeln!(f, "  UNKNOWN (level {}) {}", u.level, u.sql)?;
            }
            if let Some(why) = interp.budget_exhausted {
                writeln!(f, "  (partial result: probe budget exhausted — {why})")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> DebugReport {
        DebugReport {
            keywords: vec!["saffron".into(), "candle".into()],
            unknown_keywords: vec![],
            interpretations: vec![InterpretationOutcome {
                keyword_tables: vec![
                    ("saffron".into(), "color".into()),
                    ("candle".into(), "ptype".into()),
                ],
                answers: vec![QueryInfo {
                    sql: "SELECT *".into(),
                    level: 3,
                    sample_tuples: vec!["item(1)".into()],
                }],
                non_answers: vec![NonAnswerInfo {
                    query: QueryInfo { sql: "SELECT * DEAD".into(), level: 3, sample_tuples: vec![] },
                    mpans: vec![
                        QueryInfo { sql: "SUB1".into(), level: 2, sample_tuples: vec![] },
                        QueryInfo { sql: "SUB2".into(), level: 1, sample_tuples: vec![] },
                    ],
                    possible_mpans: vec![],
                }],
                unknown: vec![],
                budget_exhausted: None,
                prune_stats: PruneStats::default(),
                sql_queries: 7,
                sql_time: Duration::from_millis(3),
                probes: ProbeCounters {
                    probes_executed: 7,
                    r2_inferences: 2,
                    ..ProbeCounters::default()
                },
                timing: PhaseTiming::default(),
            }],
            mapping_time: Duration::from_millis(1),
            total_time: Duration::from_millis(5),
            timing: PhaseTiming::default(),
        }
    }

    #[test]
    fn counters() {
        let r = sample_report();
        assert_eq!(r.answer_count(), 1);
        assert_eq!(r.non_answer_count(), 1);
        assert_eq!(r.mpan_count(), 2);
        assert_eq!(r.sql_queries(), 7);
        assert_eq!(r.sql_time(), Duration::from_millis(3));
        let p = r.probes();
        assert_eq!(p.probes_executed, 7);
        assert_eq!(p.r2_inferences, 2);
        assert_eq!(p.inferences(), 2);
    }

    #[test]
    fn display_renders_sections() {
        let text = sample_report().to_string();
        assert!(text.contains("interpretation #1"));
        assert!(text.contains("ALIVE"));
        assert!(text.contains("DEAD"));
        assert!(text.contains("max alive sub-query"));
        assert!(text.contains("saffron -> color"));
    }

    #[test]
    fn display_unknown_keywords_short_circuit() {
        let mut r = sample_report();
        r.unknown_keywords = vec!["zanzibar".into()];
        let text = r.to_string();
        assert!(text.contains("not found anywhere"));
        assert!(text.contains("zanzibar"));
        assert!(!text.contains("interpretation #1"));
    }

    #[test]
    fn degraded_sections_render_only_when_present() {
        let mut r = sample_report();
        assert!(r.is_complete());
        let text = r.to_string();
        assert!(!text.contains("UNKNOWN"), "complete reports show no degraded lines");
        assert!(!text.contains("possibly-max"));
        assert!(!text.contains("budget exhausted"));

        r.interpretations[0]
            .unknown
            .push(QueryInfo { sql: "U".into(), level: 3, sample_tuples: vec![] });
        r.interpretations[0].non_answers[0]
            .possible_mpans
            .push(QueryInfo { sql: "P".into(), level: 2, sample_tuples: vec![] });
        r.interpretations[0].budget_exhausted = Some(Exhausted::Probes);
        assert!(!r.is_complete());
        assert_eq!(r.unknown_count(), 1);
        assert_eq!(r.possible_mpan_count(), 1);

        let text = r.to_string();
        assert!(text.contains("UNKNOWN (level 3) U"));
        assert!(text.contains("possibly-max alive sub-query (level 2): P"));
        assert!(text.contains("max probes reached"));

        let md = r.to_markdown();
        assert!(md.contains("❓ **unknown** (level 3): `U`"));
        assert!(md.contains("possibly still works (level 2): `P`"));
        assert!(md.contains("Partial result: probe budget exhausted"));
    }
}

impl DebugReport {
    /// Renders the report as Markdown — the shape a dashboard or issue
    /// tracker integration would consume.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut md = String::new();
        let _ = writeln!(md, "# Keyword query `{}`\n", self.keywords.join(" "));
        if !self.unknown_keywords.is_empty() {
            let _ = writeln!(
                md,
                "**Keywords not found anywhere in the database:** {}\n",
                self.unknown_keywords.join(", ")
            );
            let _ = writeln!(md, "_No exploration performed (\"and\" semantics)._");
            return md;
        }
        let _ = writeln!(
            md,
            "{} answer(s), {} non-answer(s), {} explanation sub-queries; \
             {} SQL queries in {:?}.\n",
            self.answer_count(),
            self.non_answer_count(),
            self.mpan_count(),
            self.sql_queries(),
            self.sql_time()
        );
        for (i, interp) in self.interpretations.iter().enumerate() {
            let binding: Vec<String> = interp
                .keyword_tables
                .iter()
                .map(|(k, t)| format!("`{k}` → `{t}`"))
                .collect();
            let _ = writeln!(md, "## Interpretation {}: {}\n", i + 1, binding.join(", "));
            for a in &interp.answers {
                let _ = writeln!(md, "- ✅ **alive** (level {}): `{}`", a.level, a.sql);
                for t in &a.sample_tuples {
                    let _ = writeln!(md, "  - e.g. {t}");
                }
            }
            for n in &interp.non_answers {
                let _ = writeln!(md, "- ❌ **dead** (level {}): `{}`", n.query.level, n.query.sql);
                for m in &n.mpans {
                    let _ = writeln!(
                        md,
                        "  - still works (level {}): `{}`",
                        m.level, m.sql
                    );
                }
                for m in &n.possible_mpans {
                    let _ = writeln!(
                        md,
                        "  - possibly still works (level {}): `{}`",
                        m.level, m.sql
                    );
                }
            }
            for u in &interp.unknown {
                let _ = writeln!(md, "- ❓ **unknown** (level {}): `{}`", u.level, u.sql);
            }
            if let Some(why) = interp.budget_exhausted {
                let _ = writeln!(md, "\n_Partial result: probe budget exhausted ({why})._");
            }
            let _ = writeln!(md);
        }
        md
    }
}

#[cfg(test)]
mod markdown_tests {
    use super::*;
    use crate::prune::PruneStats;
    use std::time::Duration;

    #[test]
    fn markdown_contains_all_sections() {
        let r = DebugReport {
            keywords: vec!["saffron".into(), "candle".into()],
            unknown_keywords: vec![],
            interpretations: vec![InterpretationOutcome {
                keyword_tables: vec![("saffron".into(), "color".into())],
                answers: vec![QueryInfo {
                    sql: "A".into(),
                    level: 2,
                    sample_tuples: vec!["x".into()],
                }],
                non_answers: vec![NonAnswerInfo {
                    query: QueryInfo { sql: "D".into(), level: 3, sample_tuples: vec![] },
                    mpans: vec![QueryInfo { sql: "M".into(), level: 1, sample_tuples: vec![] }],
                    possible_mpans: vec![],
                }],
                unknown: vec![],
                budget_exhausted: None,
                prune_stats: PruneStats::default(),
                sql_queries: 4,
                sql_time: Duration::from_millis(1),
                probes: ProbeCounters::default(),
                timing: PhaseTiming::default(),
            }],
            mapping_time: Duration::ZERO,
            total_time: Duration::ZERO,
            timing: PhaseTiming::default(),
        };
        let md = r.to_markdown();
        assert!(md.starts_with("# Keyword query `saffron candle`"));
        assert!(md.contains("## Interpretation 1"));
        assert!(md.contains("✅ **alive** (level 2): `A`"));
        assert!(md.contains("❌ **dead** (level 3): `D`"));
        assert!(md.contains("still works (level 1): `M`"));
        assert!(md.contains("e.g. x"));
    }

    #[test]
    fn markdown_unknown_keywords_short_circuit() {
        let r = DebugReport {
            keywords: vec!["x".into()],
            unknown_keywords: vec!["x".into()],
            interpretations: vec![],
            mapping_time: Duration::ZERO,
            total_time: Duration::ZERO,
            timing: PhaseTiming::default(),
        };
        let md = r.to_markdown();
        assert!(md.contains("not found anywhere"));
        assert!(!md.contains("## Interpretation"));
    }
}
