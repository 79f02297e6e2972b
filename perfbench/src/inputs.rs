//! The seeded input generator.
//!
//! Every input the benchmark sends is drawn here from the `--seed`: the
//! keyword vocabulary comes from the generated database's own entity text,
//! and from it the query streams, the Zipf-skewed serving pool and the
//! keyword-bearing write batches. The program under
//! test only ever receives the resulting strings and rows.

use std::collections::BTreeSet;

use relengine::rng::SplitMix64;
use relengine::{Database, Value};

/// Short words that a person typing a keyword query leaves out. Without
/// this list, "for" (in nearly every publication title) would dominate the
/// drawn queries.
const STOP_WORDS: [&str; 8] = ["a", "an", "and", "for", "in", "of", "on", "the"];

/// The ten keyword queries of the paper's Table 2, mixed into every stream.
pub fn table2() -> Vec<&'static str> {
    datagen::paper_queries().iter().map(|q| q.text).collect()
}

/// Distinct tokens of the database's entity text, in sorted order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocab {
    terms: Vec<String>,
}

impl Vocab {
    /// Tokenizes every text column of every table of `db`.
    pub fn from_database(db: &Database) -> Vocab {
        Vocab::from_tables(db, |_| true)
    }

    /// Tokenizes the text columns of the tables whose name `keep` accepts.
    pub fn from_tables(db: &Database, keep: impl Fn(&str) -> bool) -> Vocab {
        let mut terms = BTreeSet::new();
        for (_, table) in db.tables() {
            let cols = table.schema().text_columns();
            if cols.is_empty() || !keep(&table.schema().name) {
                continue;
            }
            for (_, row) in table.iter() {
                for &c in &cols {
                    if let Value::Text(s) = &row[c] {
                        for t in textindex::tokenize(s) {
                            if t.len() >= 2
                                && !STOP_WORDS.contains(&t.as_str())
                                && !t.chars().all(|c| c.is_ascii_digit())
                            {
                                terms.insert(t);
                            }
                        }
                    }
                }
            }
        }
        Vocab {
            terms: terms.into_iter().collect(),
        }
    }

    fn pick<'a>(&'a self, rng: &mut SplitMix64) -> &'a str {
        &self.terms[rng.below(self.terms.len() as u64) as usize]
    }
}

/// The random source of stream `salt` of a run with `seed`. SplitMix64's
/// state advances by a fixed step, so two generators whose seeds differ by
/// a multiple of that step replay each other's draws shifted; mixing the
/// seed first keeps the streams of one run independent.
pub fn rng(seed: u64, salt: u64) -> SplitMix64 {
    let mut mix = SplitMix64::seed_from_u64(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    SplitMix64::seed_from_u64(mix.next_u64())
}

/// A uniform draw from [0, 1).
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// An endless seeded stream of 2–3-keyword queries over a [`Vocab`], with
/// one in five drawn from Table 2 instead.
pub struct QueryStream<'v> {
    vocab: &'v Vocab,
    table2: Vec<&'static str>,
    rng: SplitMix64,
}

impl<'v> QueryStream<'v> {
    /// A stream keyed by `seed`; `salt` separates the streams of one run.
    pub fn new(vocab: &'v Vocab, seed: u64, salt: u64) -> QueryStream<'v> {
        QueryStream {
            vocab,
            table2: table2(),
            rng: rng(seed, salt),
        }
    }

    /// The next query string.
    pub fn next_query(&mut self) -> String {
        if self.rng.below(5) == 0 {
            return self.table2[self.rng.below(self.table2.len() as u64) as usize].to_owned();
        }
        let k = 2 + self.rng.below(2) as usize;
        let mut words: Vec<&str> = Vec::with_capacity(k);
        while words.len() < k {
            let w = self.vocab.pick(&mut self.rng);
            if !words.contains(&w) {
                words.push(w);
            }
        }
        words.join(" ")
    }
}

impl Iterator for QueryStream<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        Some(self.next_query())
    }
}

/// A fixed pool of distinct queries drawn with Zipf-skewed popularity
/// (rank `r` has weight `1 / r^s`), shared by every serving tenant.
pub struct ZipfPool {
    queries: Vec<String>,
    cumulative: Vec<f64>,
}

impl ZipfPool {
    /// `size` distinct queries from `stream`, skew exponent `s`.
    pub fn new(stream: &mut QueryStream<'_>, size: usize, s: f64) -> ZipfPool {
        let mut seen = BTreeSet::new();
        let mut queries = Vec::with_capacity(size);
        while queries.len() < size {
            let q = stream.next_query();
            if seen.insert(q.clone()) {
                queries.push(q);
            }
        }
        let mut acc = 0.0;
        let cumulative = (1..=size)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        ZipfPool {
            queries,
            cumulative,
        }
    }

    /// The pool, most popular first.
    pub fn queries(&self) -> &[String] {
        &self.queries
    }

    /// Draws one query.
    pub fn draw(&self, rng: &mut SplitMix64) -> &str {
        let total = *self.cumulative.last().expect("non-empty pool");
        let x = unit(rng) * total;
        let i = self
            .cumulative
            .partition_point(|&c| c <= x)
            .min(self.queries.len() - 1);
        &self.queries[i]
    }
}

/// One round's writes: keyword-bearing publications, authorship links, and
/// a replacement title for one of the new publications.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteBatch {
    /// Rows appended to `publication` (`id`, `title`).
    pub publications: Vec<Vec<Value>>,
    /// Rows appended to `writes` (`person_id`, `publication_id`).
    pub links: Vec<Vec<Value>>,
    /// Index into `publications` of the row updated in place, and its new
    /// values.
    pub update: (usize, Vec<Value>),
}

/// Salt of the write stream, apart from every query stream's.
const WRITE_SALT: u64 = 0xE703_7ED1_A0B4_28DB;
/// Publications appended per write batch.
const PUBLICATIONS_PER_BATCH: usize = 8;
const LINKS_PER_BATCH: usize = 3;
const TITLE_WORDS: usize = 5;
/// One appended title in this many carries a Table 2 keyword.
const KEYWORD_EVERY: usize = 4;

/// Seeded write batches; batch `round` is the same for every run of a seed.
/// Titles are drawn from the words of existing publication titles, so a
/// write does not make every keyword appear in one more table; the
/// keyword-bearing ones add a Table 2 keyword, which changes the answers of
/// the queries that use it.
pub struct WriteStream<'v> {
    titles: &'v Vocab,
    keywords: Vec<String>,
    persons: i64,
    rng: SplitMix64,
}

impl<'v> WriteStream<'v> {
    /// Batches keyed by `seed`, with titles over `titles`, linking to
    /// persons `1..=persons`.
    pub fn new(titles: &'v Vocab, persons: i64, seed: u64) -> WriteStream<'v> {
        let keywords: BTreeSet<String> = table2()
            .iter()
            .flat_map(|q| textindex::tokenize(q))
            .collect();
        WriteStream {
            titles,
            keywords: keywords.into_iter().collect(),
            persons,
            rng: rng(seed, WRITE_SALT),
        }
    }

    fn title(&mut self, with_keyword: bool) -> String {
        let mut words: Vec<&str> = (0..TITLE_WORDS)
            .map(|_| self.titles.pick(&mut self.rng))
            .collect();
        if with_keyword {
            let k = self.rng.below(self.keywords.len() as u64) as usize;
            words[0] = &self.keywords[k];
        }
        words.join(" ")
    }

    /// The batch of round `round` (rounds are drawn in order).
    pub fn batch(&mut self, round: u64) -> WriteBatch {
        let base = 10_000_000 + round as i64 * 100;
        let publications: Vec<Vec<Value>> = (0..PUBLICATIONS_PER_BATCH)
            .map(|i| {
                let title = self.title(i % KEYWORD_EVERY == 0);
                vec![Value::Int(base + i as i64), Value::text(title)]
            })
            .collect();
        let links = (0..LINKS_PER_BATCH)
            .map(|_| {
                let person = 1 + self.rng.below(self.persons as u64) as i64;
                let publication = base + self.rng.below(PUBLICATIONS_PER_BATCH as u64) as i64;
                vec![Value::Int(person), Value::Int(publication)]
            })
            .collect();
        let target = self.rng.below(PUBLICATIONS_PER_BATCH as u64) as usize;
        let update = (
            target,
            vec![
                Value::Int(base + target as i64),
                Value::text(self.title(true)),
            ],
        );
        WriteBatch {
            publications,
            links,
            update,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(seed: u64) -> Database {
        datagen::generate_dblife(&datagen::DblifeConfig {
            seed,
            ..datagen::DblifeConfig::small()
        })
    }

    fn inputs(seed: u64) -> (Vec<String>, Vec<String>, Vec<WriteBatch>) {
        let db = db(seed);
        let vocab = Vocab::from_database(&db);
        let mut stream = QueryStream::new(&vocab, seed, 0);
        let queries = (0..200).map(|_| stream.next_query()).collect();
        let pool = ZipfPool::new(&mut QueryStream::new(&vocab, seed, 1), 50, 0.5);
        let mut rng = rng(seed, 99);
        let draws = (0..100).map(|_| pool.draw(&mut rng).to_owned()).collect();
        let mut writes = WriteStream::new(&vocab, 300, seed);
        let batches = (0..5).map(|r| writes.batch(r)).collect();
        (queries, draws, batches)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = inputs(11);
        assert_eq!(a, inputs(11));
        let b = inputs(12);
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let db = db(11);
        let vocab = Vocab::from_database(&db);
        let t2 = table2();
        let drawn = |salt| -> BTreeSet<String> {
            QueryStream::new(&vocab, 704, salt)
                .take(300)
                .filter(|q| !t2.contains(&q.as_str()))
                .collect()
        };
        let streams: Vec<_> = (0..4).map(drawn).collect();
        for a in 0..streams.len() {
            for b in a + 1..streams.len() {
                let shared = streams[a].intersection(&streams[b]).count();
                assert!(shared < 5, "salts {a} and {b} share {shared} queries");
            }
        }
    }

    #[test]
    fn streams_mix_table2_and_drawn_queries() {
        let (queries, draws, _) = inputs(3);
        let t2 = table2();
        let from_t2 = queries.iter().filter(|q| t2.contains(&q.as_str())).count();
        assert!(
            from_t2 > 10 && from_t2 < 90,
            "{from_t2} of 200 from Table 2"
        );
        assert!(queries
            .iter()
            .all(|q| (2..=3).contains(&q.split(' ').count())));
        // Zipf draws favour the head of the pool but reach past it.
        let distinct: std::collections::BTreeSet<&String> = draws.iter().collect();
        assert!(distinct.len() > 20 && distinct.len() < 100);
    }
}
