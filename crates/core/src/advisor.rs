//! Index advisor — the stand-in for the DB2 Index Wizard the paper uses
//! ("created indexes as suggested by the DB2 Index Wizard", §4.2).
//!
//! Two layers of advice:
//!
//! * [`advise_base`] — structural indexes every mapping benefits from:
//!   the primary key (`ID`) and the parent foreign key (`parentID`) of
//!   every table;
//! * [`advise_for_workload`] — parses the workload's SQL and adds an index
//!   for every column compared to a literal with `=` and for every
//!   equi-join column, which is what a workload-driven wizard recommends
//!   for these queries.

use std::collections::BTreeSet;

use ordb::sql::{parse_statement, AstExpr, Statement};
use ordb::Database;

use crate::error::Result;
use crate::schema::{ColumnKind, Mapping};

/// One recommended index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexSpec {
    /// Index name.
    pub name: String,
    /// Table name.
    pub table: String,
    /// Key columns.
    pub columns: Vec<String>,
}

/// Structural advice: `ID` and `parentID` of every table.
pub fn advise_base(mapping: &Mapping) -> Vec<IndexSpec> {
    let mut out = Vec::new();
    for t in &mapping.tables {
        for c in &t.columns {
            if matches!(c.kind, ColumnKind::Id | ColumnKind::ParentId) {
                out.push(IndexSpec {
                    name: format!("ix_{}_{}", t.name, c.name.to_ascii_lowercase()),
                    table: t.name.clone(),
                    columns: vec![c.name.clone()],
                });
            }
        }
    }
    out
}

/// Workload advice: columns used in `col = literal` predicates and
/// equi-join predicates across the given queries.
pub fn advise_for_workload(mapping: &Mapping, queries: &[&str]) -> Vec<IndexSpec> {
    let mut wanted: BTreeSet<(String, String)> = BTreeSet::new(); // (table, column)
    for sql in queries {
        let Ok(Statement::Select(q)) = parse_statement(sql) else { continue };
        let conjuncts = match q.where_clause {
            Some(w) => w.conjuncts(),
            None => continue,
        };
        for c in conjuncts {
            if let AstExpr::Cmp { op: ordb::expr::CmpOp::Eq, lhs, rhs } = c {
                for side in [&lhs, &rhs] {
                    if let AstExpr::Column { name, .. } = &**side {
                        if let Some((t, col)) = find_column(mapping, name) {
                            wanted.insert((t, col));
                        }
                    }
                }
            }
        }
    }
    wanted
        .into_iter()
        .map(|(table, column)| IndexSpec {
            name: format!("ix_{table}_{}", column.to_ascii_lowercase()),
            table,
            columns: vec![column],
        })
        .collect()
}

/// Locate the unique mapped table owning a column name. Generated column
/// names are prefixed with their table's element, so they are unique
/// across a mapping.
fn find_column(mapping: &Mapping, column: &str) -> Option<(String, String)> {
    for t in &mapping.tables {
        if let Some(i) = t.col_named(column) {
            return Some((t.name.clone(), t.columns[i].name.clone()));
        }
    }
    None
}

/// Create `specs` in `db`, skipping duplicates (same table + columns).
pub fn apply(db: &Database, specs: &[IndexSpec]) -> Result<usize> {
    let mut created = 0;
    let mut seen: BTreeSet<(String, Vec<String>)> = BTreeSet::new();
    for s in specs {
        let key = (
            s.table.to_ascii_lowercase(),
            s.columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
        );
        if !seen.insert(key) {
            continue;
        }
        db.create_index(&s.name, &s.table, s.columns.clone())?;
        created += 1;
    }
    Ok(created)
}

/// Minimum distinct values for a workload-advised column index. Real
/// wizards reject indexes on near-constant columns (e.g. a 4-value
/// `parentCODE`): the index would not prune I/O.
pub const MIN_INDEXABLE_NDV: u64 = 10;

/// Convenience: base + selectivity-filtered workload advice, applied.
/// Collects statistics first (`runstats`) so the selectivity filter has
/// distinct-value counts to work with.
pub fn advise_and_apply(db: &Database, mapping: &Mapping, queries: &[&str]) -> Result<usize> {
    db.runstats_all()?;
    let mut specs = advise_base(mapping);
    for spec in advise_for_workload(mapping, queries) {
        let selective = db.stats_of(&spec.table).is_none_or(|stats| {
            let table = mapping.tables.iter().find(|t| t.name.eq_ignore_ascii_case(&spec.table));
            match table.and_then(|t| t.col_named(&spec.columns[0])) {
                Some(i) => stats.ndv_of(i) >= MIN_INDEXABLE_NDV,
                None => true,
            }
        });
        if selective {
            specs.push(spec);
        }
    }
    apply(db, &specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtds::PLAYS_DTD;
    use crate::hybrid::map_hybrid;
    use crate::simplify::simplify;
    use ordb::TempDir;
    use xmlkit::dtd::parse_dtd;

    fn mapping() -> Mapping {
        map_hybrid(&simplify(&parse_dtd(PLAYS_DTD).unwrap()))
    }

    #[test]
    fn base_advice_covers_ids_and_parents() {
        let specs = advise_base(&mapping());
        // 9 tables; every table has an ID, all but play have a parentID.
        assert_eq!(specs.len(), 9 + 8);
        assert!(specs.iter().any(|s| s.table == "speech" && s.columns == ["speechID"]));
        assert!(specs.iter().any(|s| s.table == "line" && s.columns == ["line_parentID"]));
    }

    #[test]
    fn workload_advice_finds_equality_columns() {
        let specs = advise_for_workload(
            &mapping(),
            &[
                "SELECT line_value FROM speech, line \
                 WHERE line_parentID = speechID AND line_childOrder = 2",
                "SELECT speakerID FROM speaker WHERE speaker_value = 'ROMEO'",
            ],
        );
        let cols: Vec<&str> = specs.iter().map(|s| s.columns[0].as_str()).collect();
        assert!(cols.contains(&"line_childOrder"));
        assert!(cols.contains(&"speaker_value"));
        assert!(cols.contains(&"line_parentID"));
        assert!(cols.contains(&"speechID"));
    }

    #[test]
    fn like_predicates_are_not_indexed() {
        let specs = advise_for_workload(
            &mapping(),
            &["SELECT lineID FROM line WHERE line_value LIKE '%love%'"],
        );
        assert!(specs.is_empty());
    }

    #[test]
    fn apply_deduplicates() {
        let dir = TempDir::new("xorator-advise").unwrap();
        let db = Database::open(&dir).unwrap();
        let m = mapping();
        m.create_schema(&db).unwrap();
        let mut specs = advise_base(&m);
        let extra = specs.clone();
        specs.extend(extra);
        let created = apply(&db, &specs).unwrap();
        assert_eq!(created, 17);
    }
}
