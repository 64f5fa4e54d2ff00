//! The differential matrix: one generated query, every plan shape ×
//! engine configuration, all compared bytewise against the oracle.

use ordb::tuple::encode_row;
use ordb::{Database, DbOptions, ForcedAccess, ForcedJoin, PlanForcing, Row, TempDir};
use xorator::prelude::*;

use crate::data::{Corpus, SchemaInfo};
use crate::gen::render_select;
use crate::oracle::{self, OracleOutput};
use ordb::sql::ast::Select;

/// One engine configuration axis: buffer pool size × operator memory
/// budget. Small pools stress page eviction; the 64 KiB budget forces
/// the spill paths of sort/hash-join/aggregate/distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Buffer pool frames.
    pub pool_frames: usize,
    /// Operator memory budget (None = unbounded, all in memory).
    pub mem_budget: Option<usize>,
}

impl EngineConfig {
    /// Short display form, used in repro files.
    pub fn describe(&self) -> String {
        format!(
            "pool={} budget={}",
            self.pool_frames,
            self.mem_budget.map_or("none".into(), |b| format!("{b}B"))
        )
    }
}

/// The ISSUE's 2×2 config matrix.
pub const CONFIGS: [EngineConfig; 4] = [
    EngineConfig { pool_frames: 4, mem_budget: None },
    EngineConfig { pool_frames: 64, mem_budget: None },
    EngineConfig { pool_frames: 4, mem_budget: Some(64 * 1024) },
    EngineConfig { pool_frames: 64, mem_budget: Some(64 * 1024) },
];

/// Every forced plan shape one query is executed under: the cost-based
/// default, each join algorithm pinned, declared join order, and both
/// access-path extremes.
pub fn forcing_modes() -> Vec<PlanForcing> {
    vec![
        PlanForcing::default(),
        PlanForcing {
            join: Some(ForcedJoin::NestedLoop),
            declared_order: true,
            access: Some(ForcedAccess::SeqScan),
        },
        PlanForcing { join: Some(ForcedJoin::Hash), declared_order: true, access: None },
        PlanForcing {
            join: Some(ForcedJoin::Merge),
            declared_order: false,
            access: Some(ForcedAccess::SeqScan),
        },
        PlanForcing { join: None, declared_order: false, access: Some(ForcedAccess::SeqScan) },
        PlanForcing { join: None, declared_order: true, access: Some(ForcedAccess::IndexScan) },
    ]
}

/// An intentionally injected executor "bug", applied to engine results
/// before comparison. Used by tests to prove the harness catches and
/// shrinks wrong answers (mutation testing of the checker itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Silently drop the last result row (a lost-tuple bug).
    DropLastRow,
    /// Emit the first row twice (a duplicated-tuple bug).
    DuplicateFirstRow,
}

impl Mutation {
    /// Apply the fault to an engine result.
    pub fn apply(self, rows: &mut Vec<Row>) {
        match self {
            Mutation::DropLastRow => {
                rows.pop();
            }
            Mutation::DuplicateFirstRow => {
                if let Some(first) = rows.first().cloned() {
                    rows.insert(0, first);
                }
            }
        }
    }
}

/// One detected disagreement.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// The rendered SQL.
    pub sql: String,
    /// Engine configuration description.
    pub config: String,
    /// The failing config (for the shrinker's re-checks).
    pub engine_config: EngineConfig,
    /// Forcing knobs description.
    pub forcing: String,
    /// The failing forcing (for the shrinker's re-checks).
    pub plan_forcing: PlanForcing,
    /// What differed.
    pub detail: String,
}

/// A loaded schema instance: one corpus × one mapping, with the oracle's
/// ground truth and one engine database per [`CONFIGS`] entry.
pub struct Harness {
    /// Corpus in use.
    pub corpus: Corpus,
    /// Mapping algorithm in use.
    pub algorithm: Algorithm,
    /// The generated documents.
    pub docs: Vec<String>,
    /// Schema + ground truth + samples (generator and oracle input).
    pub info: SchemaInfo,
    reg: ordb::functions::FunctionRegistry,
    /// One loaded database per config; each drops before its directory.
    dbs: Vec<(EngineConfig, Database, TempDir)>,
}

impl Harness {
    /// Generate the corpus for `seed`, shred the ground truth, and load
    /// one engine database per configuration (plain XADT format, indexes
    /// on id/parentID/childOrder columns, fresh statistics).
    pub fn new(
        corpus: Corpus,
        algorithm: Algorithm,
        seed: u64,
        tag: &str,
    ) -> xorator::Result<Harness> {
        let docs = corpus.generate(seed);
        Harness::with_docs(corpus, algorithm, docs, seed, tag)
    }

    /// Same, over an explicit document list (the shrinker's entry point).
    pub fn with_docs(
        corpus: Corpus,
        algorithm: Algorithm,
        docs: Vec<String>,
        seed: u64,
        tag: &str,
    ) -> xorator::Result<Harness> {
        let mapping = corpus.mapping(algorithm);
        let info = SchemaInfo::build(mapping, &docs)?;
        let mut dbs = Vec::new();
        for (i, cfg) in CONFIGS.iter().enumerate() {
            let dir = TempDir::new(&format!(
                "querycheck-{tag}-{}-{}-s{seed}-c{i}",
                corpus.name(),
                info.mapping.algorithm,
            ))
            .map_err(ordb::DbError::from)?;
            let db = Database::open_with(
                &dir,
                DbOptions {
                    pool_frames: cfg.pool_frames,
                    mem_budget: cfg.mem_budget,
                    ..DbOptions::default()
                },
            )?;
            load_corpus(
                &db,
                &info.mapping,
                &docs,
                LoadOptions { policy: FormatPolicy::Plain, sample_docs: 0 },
            )?;
            create_indexes(&db, &info.mapping)?;
            db.runstats_all()?;
            dbs.push((*cfg, db, dir));
        }
        Ok(Harness {
            corpus,
            algorithm,
            docs,
            info,
            reg: ordb::functions::FunctionRegistry::with_builtins(),
            dbs,
        })
    }

    /// Oracle answer for `q` (independent of any engine database).
    pub fn oracle(&self, q: &Select) -> ordb::Result<OracleOutput> {
        oracle::evaluate(q, &self.info.mapping, &self.info.tables, &self.reg)
    }

    /// Run `q` under the full config × forcing matrix and return every
    /// disagreement with the oracle. `mutation` injects a fake executor
    /// bug into the engine's results (tests only).
    pub fn check_query(&self, q: &Select, mutation: Option<Mutation>) -> Vec<Mismatch> {
        let sql = render_select(q);
        let expected = self.oracle(q);
        let mut mismatches = Vec::new();
        for (cfg, db, _) in &self.dbs {
            for forcing in forcing_modes() {
                db.set_forcing(forcing);
                let mut got = db.query(&sql).map(|r| r.rows);
                db.set_forcing(PlanForcing::default());
                if let (Ok(rows), Some(m)) = (&mut got, mutation) {
                    m.apply(rows);
                }
                if let Some(detail) = compare(&expected, &got) {
                    mismatches.push(Mismatch {
                        sql: sql.clone(),
                        config: cfg.describe(),
                        engine_config: *cfg,
                        forcing: forcing.describe(),
                        plan_forcing: forcing,
                        detail,
                    });
                }
            }
        }
        mismatches
    }

    /// Re-check a single (config, forcing) cell — the shrinker's probe.
    pub fn check_cell(
        &self,
        q: &Select,
        cfg: EngineConfig,
        forcing: PlanForcing,
        mutation: Option<Mutation>,
    ) -> Option<String> {
        let sql = render_select(q);
        let expected = self.oracle(q);
        let (_, db, _) = self.dbs.iter().find(|(c, _, _)| *c == cfg)?;
        db.set_forcing(forcing);
        let mut got = db.query(&sql).map(|r| r.rows);
        db.set_forcing(PlanForcing::default());
        if let (Ok(rows), Some(m)) = (&mut got, mutation) {
            m.apply(rows);
        }
        compare(&expected, &got)
    }
}

/// Secondary indexes on every id / parentID / childOrder column — the
/// planner's index-NLJ and index-scan paths need something to bite on.
fn create_indexes(db: &Database, mapping: &Mapping) -> ordb::Result<()> {
    use xorator::schema::ColumnKind;
    for t in &mapping.tables {
        for c in &t.columns {
            if matches!(c.kind, ColumnKind::Id | ColumnKind::ParentId | ColumnKind::ChildOrder) {
                db.create_index(
                    &format!("qc_{}_{}", t.name, c.name),
                    &t.name,
                    vec![c.name.clone()],
                )?;
            }
        }
    }
    Ok(())
}

fn encode(row: &Row) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_row(row, &mut buf);
    buf
}

/// Compare the oracle's answer with one engine execution. `None` means
/// agreement; `Some(detail)` describes the first difference found.
///
/// * Both sides erroring counts as agreement (same refusal).
/// * Unordered queries compare as bytewise multisets.
/// * ORDER BY queries compare per tied-key window: total order across
///   windows is fixed by the keys, while rows *within* a window may
///   legally appear in any plan-dependent order, so each window is
///   compared as a multiset.
pub fn compare(
    expected: &ordb::Result<OracleOutput>,
    got: &ordb::Result<Vec<Row>>,
) -> Option<String> {
    match (expected, got) {
        (Err(_), Err(_)) => None,
        (Err(e), Ok(_)) => Some(format!("oracle errored ({e}) but engine returned rows")),
        (Ok(_), Err(e)) => Some(format!("engine errored ({e}) but oracle returned rows")),
        (Ok(exp), Ok(rows)) => {
            if exp.rows.len() != rows.len() {
                return Some(format!("row count: oracle={} engine={}", exp.rows.len(), rows.len()));
            }
            match &exp.keys {
                None => {
                    let mut a: Vec<Vec<u8>> = exp.rows.iter().map(encode).collect();
                    let mut b: Vec<Vec<u8>> = rows.iter().map(encode).collect();
                    a.sort();
                    b.sort();
                    if a != b {
                        let i = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(0);
                        return Some(format!(
                            "multiset differs at sorted position {i}: oracle={:?} engine={:?}",
                            decode_hint(&exp.rows, &a[i]),
                            decode_hint(rows, &b[i]),
                        ));
                    }
                    None
                }
                Some(keys) => {
                    let mut start = 0usize;
                    while start < exp.rows.len() {
                        let mut end = start + 1;
                        while end < exp.rows.len() && keys[end] == keys[start] {
                            end += 1;
                        }
                        let mut a: Vec<Vec<u8>> = exp.rows[start..end].iter().map(encode).collect();
                        let mut b: Vec<Vec<u8>> = rows[start..end].iter().map(encode).collect();
                        a.sort();
                        b.sort();
                        if a != b {
                            return Some(format!(
                                "ordered window {start}..{end} (key {:?}) differs: \
                                 oracle rows {:?} vs engine rows {:?}",
                                keys[start],
                                &exp.rows[start..end],
                                &rows[start..end],
                            ));
                        }
                        start = end;
                    }
                    None
                }
            }
        }
    }
}

/// Find the decoded row whose encoding equals `enc`, for readable
/// mismatch messages.
fn decode_hint<'a>(rows: &'a [Row], enc: &[u8]) -> Option<&'a Row> {
    rows.iter().find(|r| encode(r) == enc)
}
