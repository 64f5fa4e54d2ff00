//! The catalog: one table registry mapping each table name to its
//! definition, heap file, indexes and `runstats` statistics, persisted to
//! a small text file (`catalog.txt`) in the database directory.
//!
//! Identifiers are case-insensitive (stored as written, matched lowered),
//! following SQL convention.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{DbError, Result};
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::stats::TableStats;
use crate::storage::buffer::{BufferPool, FileId};
use crate::storage::heap::{HeapCursor, HeapFile};
use crate::types::{DataType, Value};

/// A column: name and declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name as declared.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: DataType) -> ColumnDef {
        ColumnDef { name: name.into(), ty }
    }
}

/// A table: columns plus the heap file holding its rows.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name as declared.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Heap file id.
    pub file: FileId,
}

impl TableDef {
    /// Index of column `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct IndexDef {
    /// Index name as declared.
    pub name: String,
    /// Owning table name.
    pub table: String,
    /// Indexed column names in key order.
    pub columns: Vec<String>,
    /// B+Tree file id.
    pub file: FileId,
}

/// The definitions `catalog.txt` holds, parsed before any page file is
/// opened: crash recovery's undo pass needs the heap file ids first.
#[derive(Debug)]
pub struct CatalogDefs {
    /// The next unallocated file id.
    pub next_file: FileId,
    /// Tables in file order.
    pub tables: Vec<TableDef>,
    /// Indexes in file order.
    pub indexes: Vec<IndexDef>,
}

impl CatalogDefs {
    /// Read `dir`'s `catalog.txt` (no definitions if the file is absent).
    pub fn load(dir: &Path) -> Result<CatalogDefs> {
        let path = dir.join("catalog.txt");
        let text = if path.exists() { std::fs::read_to_string(path)? } else { String::new() };
        CatalogDefs::parse(&text)
    }

    /// Parse the `catalog.txt` format.
    pub fn parse(text: &str) -> Result<CatalogDefs> {
        let mut defs = CatalogDefs { next_file: 1, tables: Vec::new(), indexes: Vec::new() };
        // `col` lines belong to the nearest `table` line above them.
        let mut in_table = false;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let tag = parts.next().unwrap_or_default();
            let bad = |m: &str| DbError::Catalog(format!("catalog line {}: {m}", lineno + 1));
            match tag {
                "next_file" => {
                    defs.next_file = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("bad next_file"))?;
                }
                "table" => {
                    let name = unescape(parts.next().ok_or_else(|| bad("missing name"))?);
                    let file =
                        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad file"))?;
                    defs.tables.push(TableDef { name, columns: Vec::new(), file });
                    in_table = true;
                }
                "col" => {
                    let t = defs
                        .tables
                        .last_mut()
                        .filter(|_| in_table)
                        .ok_or_else(|| bad("col outside table"))?;
                    let name = unescape(parts.next().ok_or_else(|| bad("missing col name"))?);
                    let ty = parts
                        .next()
                        .and_then(DataType::parse)
                        .ok_or_else(|| bad("bad col type"))?;
                    t.columns.push(ColumnDef { name, ty });
                }
                "index" => {
                    let name = unescape(parts.next().ok_or_else(|| bad("missing name"))?);
                    let table = unescape(parts.next().ok_or_else(|| bad("missing table"))?);
                    let file =
                        parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad file"))?;
                    let columns: Vec<String> = parts
                        .next()
                        .ok_or_else(|| bad("missing columns"))?
                        .split(',')
                        .map(unescape)
                        .collect();
                    defs.indexes.push(IndexDef { name, table, columns, file });
                    in_table = false;
                }
                other => return Err(bad(&format!("unknown tag {other:?}"))),
            }
        }
        Ok(defs)
    }
}

/// One index of a registered table.
#[derive(Clone)]
pub struct TableIndex {
    /// The index definition.
    pub def: IndexDef,
    /// Positions of the key columns in the table's rows, in key order.
    pub key_cols: Vec<usize>,
    /// The index tree.
    pub tree: Arc<BTree>,
}

impl TableIndex {
    /// The B+Tree key of the table row `row`.
    pub fn key(&self, row: &[Value]) -> Vec<u8> {
        encode_key(&self.key_cols.iter().map(|&i| row[i].clone()).collect::<Vec<_>>())
    }
}

/// One registered table: everything a statement needs to read or write
/// it. DML clones the entry's `Arc` and works outside the catalog lock.
#[derive(Clone)]
pub struct TableEntry {
    /// The table definition.
    pub def: TableDef,
    /// The heap holding its rows.
    pub heap: Arc<HeapFile>,
    /// Its indexes, in creation order (file order after a reopen).
    pub indexes: Vec<TableIndex>,
    /// Statistics from the last `runstats`, if any.
    pub stats: Option<TableStats>,
}

/// The table registry of one database: one map from a lowered table name
/// to its [`TableEntry`]. Every DDL change is saved to `catalog.txt`
/// before it returns.
pub struct Catalog {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    tables: HashMap<String, Arc<TableEntry>>,
    next_file: FileId,
}

impl Catalog {
    /// Register every page file `defs` names with `pool` and open its
    /// heap or tree. Fails on a duplicate name, an index on an unknown
    /// table or column, or a file that is not what its definition says.
    pub fn open(dir: &Path, pool: Arc<BufferPool>, defs: CatalogDefs) -> Result<Catalog> {
        let mut cat = Catalog {
            dir: dir.to_path_buf(),
            pool,
            tables: HashMap::new(),
            next_file: defs.next_file,
        };
        for def in defs.tables {
            cat.add_table(def)?;
        }
        for def in defs.indexes {
            let (key, key_cols) = cat.resolve_index(&def.name, &def.table, &def.columns)?;
            cat.pool.register_file(def.file, file_path(dir, def.file))?;
            let tree = Arc::new(BTree::open(cat.pool.clone(), def.file)?);
            cat.entry_mut(&key).indexes.push(TableIndex { def, key_cols, tree });
        }
        Ok(cat)
    }

    /// The entry of table `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&TableEntry> {
        self.tables.get(&name.to_ascii_lowercase()).map(|t| &**t)
    }

    /// A handle on table `name`'s entry, or a [`DbError::Catalog`] for an
    /// unknown table.
    pub fn entry(&self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::Catalog(format!("unknown table {name:?}")))
    }

    /// Every table, unordered.
    pub fn entries(&self) -> impl Iterator<Item = &TableEntry> {
        self.tables.values().map(|t| &**t)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no table exists.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Create table `name` with an empty heap file.
    pub fn create_table(&mut self, name: &str, columns: Vec<ColumnDef>) -> Result<()> {
        check_name("table", name)?;
        for c in &columns {
            check_name("column", &c.name)?;
        }
        if self.get(name).is_some() {
            return Err(DbError::Catalog(format!("table {name:?} already exists")));
        }
        let file = self.allocate_file_id();
        self.add_table(TableDef { name: name.to_string(), columns, file })?;
        self.save()
    }

    /// Create index `name` over `columns` of `table` and backfill it from
    /// every version in the heap that is not dead — including ones with
    /// an `xmax` claim, since a snapshot older than the deleter must
    /// still find them through this index.
    pub fn create_index(&mut self, name: &str, table: &str, columns: Vec<String>) -> Result<()> {
        check_name("index", name)?;
        for c in &columns {
            check_name("index column", c)?;
            if c.contains(',') {
                return Err(DbError::Catalog(format!("bad index column name {c:?}")));
            }
        }
        let (key, key_cols) = self.resolve_index(name, table, &columns)?;
        let file = self.allocate_file_id();
        self.pool.register_file(file, file_path(&self.dir, file))?;
        let tree = Arc::new(BTree::create(self.pool.clone(), file)?);
        let entry = &self.tables[&key];
        let def = IndexDef { name: name.to_string(), table: entry.def.name.clone(), columns, file };
        let index = TableIndex { def, key_cols, tree };
        let mut cursor = HeapCursor::new(entry.heap.clone());
        while let Some(v) = cursor.next()? {
            let row = crate::tuple::decode_row(&v.body, entry.def.columns.len())?;
            index.tree.insert(&index.key(&row), v.rid)?;
        }
        self.entry_mut(&key).indexes.push(index);
        self.save()
    }

    /// Drop table `name`, its indexes and its statistics, deleting their
    /// files.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let entry = self
            .tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::Catalog(format!("unknown table {name:?}")))?;
        self.remove_file(entry.def.file)?;
        for ix in &entry.indexes {
            self.remove_file(ix.def.file)?;
        }
        self.save()
    }

    /// Drop index `name`, deleting its file.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let (key, pos) = self
            .tables
            .iter()
            .find_map(|(key, t)| {
                let pos = t.indexes.iter().position(|i| i.def.name.eq_ignore_ascii_case(name))?;
                Some((key.clone(), pos))
            })
            .ok_or_else(|| DbError::Catalog(format!("unknown index {name:?}")))?;
        let ix = self.entry_mut(&key).indexes.remove(pos);
        self.remove_file(ix.def.file)?;
        self.save()
    }

    /// Record `stats` for `table`, unless the table was dropped (or
    /// dropped and re-created) since `table` was read.
    pub fn set_stats(&mut self, table: &TableDef, stats: TableStats) {
        let key = table.name.to_ascii_lowercase();
        if self.tables.get(&key).is_some_and(|t| t.def.file == table.file) {
            self.entry_mut(&key).stats = Some(stats);
        }
    }

    fn allocate_file_id(&mut self) -> FileId {
        let id = self.next_file;
        self.next_file += 1;
        id
    }

    /// Register `def`'s heap file and add its entry.
    fn add_table(&mut self, def: TableDef) -> Result<()> {
        let key = def.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::Catalog(format!("table {:?} already exists", def.name)));
        }
        self.pool.register_file(def.file, file_path(&self.dir, def.file))?;
        let heap = Arc::new(HeapFile::new(self.pool.clone(), def.file));
        self.tables
            .insert(key, Arc::new(TableEntry { def, heap, indexes: Vec::new(), stats: None }));
        Ok(())
    }

    /// Check that an index `name` over `columns` of `table` can be added:
    /// the name is free and the table and columns exist. Returns the
    /// table's key and the key-column positions.
    fn resolve_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
    ) -> Result<(String, Vec<usize>)> {
        if self.entries().flat_map(|t| &t.indexes).any(|i| i.def.name.eq_ignore_ascii_case(name)) {
            return Err(DbError::Catalog(format!("index {name:?} already exists")));
        }
        let key = table.to_ascii_lowercase();
        let def = &self
            .tables
            .get(&key)
            .ok_or_else(|| DbError::Catalog(format!("unknown table {table:?}")))?
            .def;
        let key_cols = columns
            .iter()
            .map(|c| {
                def.column_index(c).ok_or_else(|| DbError::Catalog(format!("unknown column {c:?}")))
            })
            .collect::<Result<_>>()?;
        Ok((key, key_cols))
    }

    /// The entry under `key` for editing; handles cloned before the edit
    /// keep the old entry.
    fn entry_mut(&mut self, key: &str) -> &mut TableEntry {
        Arc::make_mut(self.tables.get_mut(key).expect("caller checked the key"))
    }

    fn remove_file(&self, file: FileId) -> Result<()> {
        self.pool.unregister_file(file)?;
        let _ = std::fs::remove_file(file_path(&self.dir, file));
        Ok(())
    }

    // ---- persistence ---------------------------------------------------

    /// Serialize to the `catalog.txt` format: tables sorted by name, then
    /// every index sorted by name.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("next_file {}\n", self.next_file));
        let mut tables: Vec<&TableDef> = self.entries().map(|t| &t.def).collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        for t in tables {
            out.push_str(&format!("table {} {} {}\n", escape(&t.name), t.file, t.columns.len()));
            for c in &t.columns {
                out.push_str(&format!("  col {} {}\n", escape(&c.name), c.ty));
            }
        }
        let mut indexes: Vec<&IndexDef> =
            self.entries().flat_map(|t| &t.indexes).map(|i| &i.def).collect();
        indexes.sort_by(|a, b| a.name.cmp(&b.name));
        for i in indexes {
            out.push_str(&format!(
                "index {} {} {} {}\n",
                escape(&i.name),
                escape(&i.table),
                i.file,
                i.columns.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            ));
        }
        out
    }

    /// Write `catalog.txt` atomically: a crash mid-save leaves either the
    /// old catalog or the new one, never a torn half-file (the rename is
    /// the commit point).
    fn save(&self) -> Result<()> {
        let tmp = self.dir.join("catalog.txt.tmp");
        std::fs::write(&tmp, self.serialize())?;
        std::fs::rename(&tmp, self.dir.join("catalog.txt"))?;
        Ok(())
    }
}

/// The page file holding file id `file` in database directory `dir`.
pub(crate) fn file_path(dir: &Path, file: FileId) -> PathBuf {
    dir.join(format!("f{file:05}.dat"))
}

/// Reject a name `catalog.txt` could not give back as written: names are
/// whitespace-separated tokens with spaces escaped as `\x20`, so an empty
/// name, any other whitespace, or a `\` would not round-trip.
fn check_name(kind: &str, name: &str) -> Result<()> {
    if name.is_empty() || name.chars().any(|c| c == '\\' || (c.is_whitespace() && c != ' ')) {
        return Err(DbError::Catalog(format!("bad {kind} name {name:?}")));
    }
    Ok(())
}

/// Identifiers with whitespace are uncommon; escape them minimally.
fn escape(s: &str) -> String {
    s.replace(' ', "\\x20")
}

fn unescape(s: &str) -> String {
    s.replace("\\x20", " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    /// An empty registry over a fresh directory and pool.
    fn registry(tag: &str) -> (TempDir, Catalog) {
        let dir = TempDir::new(&format!("ordb-cat-{tag}")).unwrap();
        let pool = Arc::new(BufferPool::new(16));
        let cat = Catalog::open(&dir, pool, CatalogDefs::parse("").unwrap()).unwrap();
        (dir, cat)
    }

    fn sample(tag: &str) -> (TempDir, Catalog) {
        let (dir, mut c) = registry(tag);
        c.create_table(
            "speech",
            vec![
                ColumnDef::new("speechID", DataType::Integer),
                ColumnDef::new("speech_speaker", DataType::Xadt),
                ColumnDef::new("speech_parentCODE", DataType::Varchar),
            ],
        )
        .unwrap();
        c.create_index("speech_pk", "speech", vec!["speechID".into()]).unwrap();
        (dir, c)
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let (_dir, mut c) = sample("case");
        let t = c.get("SPEECH").unwrap();
        assert_eq!(t.def.column_index("SPEECH_SPEAKER"), Some(1));
        assert_eq!(t.indexes[0].def.name, "speech_pk");
        assert!(c.create_index("Speech_PK", "speech", vec!["speechID".into()]).is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (_dir, mut c) = sample("dup");
        assert!(c.create_table("SPEECH", vec![]).is_err());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn index_requires_table() {
        let (_dir, mut c) = registry("noidx");
        assert!(c.create_index("i", "nope", vec!["x".into()]).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn serialization_round_trips() {
        let (dir, c) = sample("roundtrip");
        let text = std::fs::read_to_string(dir.join("catalog.txt")).unwrap();
        assert_eq!(text, c.serialize());
        c.pool.flush_all().unwrap();
        drop(c);
        let mut back =
            Catalog::open(&dir, Arc::new(BufferPool::new(16)), CatalogDefs::load(&dir).unwrap())
                .unwrap();
        assert_eq!(back.len(), 1);
        let t = back.get("speech").unwrap();
        assert_eq!(t.def.columns.len(), 3);
        assert_eq!(t.def.columns[1].ty, DataType::Xadt);
        assert_eq!(t.indexes.len(), 1);
        assert_eq!(t.indexes[0].def.columns, vec!["speechID".to_string()]);
        assert_eq!(t.indexes[0].key_cols, vec![0]);
        // file counter preserved
        assert_eq!(back.allocate_file_id(), 3);
    }

    #[test]
    fn indexes_of_unknown_table_is_empty() {
        let (_dir, c) = sample("unknown");
        assert!(c.get("other").is_none());
        assert!(matches!(c.entry("other"), Err(DbError::Catalog(_))));
    }
}
