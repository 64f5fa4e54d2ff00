//! The `Database` facade: open a directory, create tables and indexes,
//! load rows, run SQL.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use crate::catalog::{Catalog, ColumnDef, IndexDef, TableDef};
use crate::error::{DbError, Result};
use crate::exec::collect;
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::metrics::{udf_delta, Profiler, QueryMetrics, ENGINE};
use crate::plan::{plan_select, plan_select_profiled, PlanContext, PlanForcing};
use crate::recovery::RecoveryReport;
use crate::sql::ast::{AstExpr, Statement};
use crate::sql::parser::parse_statement;
use crate::stats::{StatsBuilder, TableStats};
use crate::storage::buffer::{BufferPool, PoolStats, DEFAULT_POOL_FRAMES};
use crate::storage::fault::FaultInjector;
use crate::storage::heap::{ClaimOutcome, HeapCursor, HeapFile};
use crate::storage::spill::{SpillConfig, SpillManager};
use crate::storage::wal::{Wal, WalStats};
use crate::tuple::{encode_row, encoded_len};
use crate::txn::{TxnId, TxnManager, TxnStats, UndoRecord};
use crate::types::{DataType, Row, Value};

/// Tuning knobs for [`Database::open_with`].
#[derive(Clone)]
pub struct DbOptions {
    /// Buffer pool capacity in frames (default 256 = 2 MiB).
    pub pool_frames: usize,
    /// Write-ahead logging + crash recovery (default on). With it off,
    /// pages are still checksummed (corruption is detected) but a crash
    /// loses un-flushed work and a torn page cannot be repaired.
    pub durability: bool,
    /// Deterministic disk-fault injector routed under every page file
    /// and the WAL (crash-matrix tests only; `None` in production).
    pub fault: Option<Arc<FaultInjector>>,
    /// Per-operator memory budget in bytes for blocking operators
    /// (sort, hash join, aggregation, DISTINCT). When a build side or
    /// working set exceeds it, the operator spills to temp files under
    /// `<dir>/spill/` instead of growing. `None` (the default) keeps
    /// the historical unbounded all-in-memory behaviour.
    pub mem_budget: Option<usize>,
    /// Plan-space forcing knobs (join algorithm / join order / access
    /// path). Default: all cost-based. Can be changed at runtime with
    /// [`Database::set_forcing`] — the differential-testing harness pins
    /// one query to every plan shape this way.
    pub forcing: PlanForcing,
    /// Run [`Database::vacuum`] automatically on checkpoint when deletes
    /// have accumulated since the last pass (default on). Insert-only
    /// workloads never trigger it.
    pub auto_vacuum: bool,
}

impl fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbOptions")
            .field("pool_frames", &self.pool_frames)
            .field("durability", &self.durability)
            .field("fault", &self.fault.is_some())
            .field("mem_budget", &self.mem_budget)
            .field("forcing", &self.forcing)
            .field("auto_vacuum", &self.auto_vacuum)
            .finish()
    }
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            pool_frames: DEFAULT_POOL_FRAMES,
            durability: true,
            fault: None,
            mem_budget: None,
            forcing: PlanForcing::default(),
            auto_vacuum: true,
        }
    }
}

struct DbInner {
    catalog: Catalog,
    heaps: HashMap<String, Arc<HeapFile>>,
    indexes: HashMap<String, Arc<BTree>>,
    stats: HashMap<String, TableStats>,
}

/// A database rooted at a directory of page files plus `catalog.txt`
/// (and, with durability on, `wal.log`).
pub struct Database {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    inner: RwLock<DbInner>,
    functions: crate::functions::FunctionRegistry,
    /// What the open-time redo pass did (None: no WAL existed).
    recovery: Option<RecoveryReport>,
    /// Memory budget + temp-file manager handed to blocking operators.
    spill: SpillConfig,
    /// Plan-space forcing knobs applied to every planned query.
    forcing: RwLock<PlanForcing>,
    /// Per-database query count + wall-latency histogram; unified with
    /// pool/WAL/engine counters by [`Database::metrics_snapshot`].
    registry: crate::metrics::MetricsRegistry,
    /// Transaction ids, snapshots, undo lists, and the commit
    /// watermark the checkpoint persists to `txn.meta`.
    txns: TxnManager,
    /// Serializes vacuum passes (concurrent DML keeps running; a second
    /// caller waits rather than double-reclaiming).
    vacuum_serial: parking_lot::Mutex<()>,
    /// Delete claims since the last vacuum pass — the auto-vacuum hook
    /// on checkpoint skips the pass entirely while this is zero, so
    /// insert-only workloads stay byte-for-byte unaffected.
    reclaim_hint: AtomicU64,
    /// See [`DbOptions::auto_vacuum`].
    auto_vacuum: bool,
    /// Set by `close`/`abandon`; makes `Drop` a no-op.
    closed: AtomicBool,
    /// The directory's exclusive lock, released when the handle drops.
    _lock: std::fs::File,
}

// A `Database` is shared across client threads by reference (see the
// concurrent tests and the bench throughput harness); this fails to
// compile if any field regresses to a single-threaded type.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

/// The result of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were returned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a single-row, single-column result.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => None,
        }
    }
}

/// The result of [`Database::explain_analyze`]: the query's rows plus a
/// full [`QueryMetrics`] snapshot. `Display` renders the annotated plan
/// tree and counters (the classic `EXPLAIN ANALYZE` output).
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The query result, identical to what `query()` returns.
    pub result: QueryResult,
    /// Per-operator and per-query measurements.
    pub metrics: QueryMetrics,
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.metrics.render())
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        writeln!(f, "{} record(s) selected.", self.rows.len())
    }
}

/// One table's DML access set: definition, heap, and each index's
/// key-column positions + tree (what `Database::table_access` returns).
type TableAccess = (TableDef, Arc<HeapFile>, Vec<(Vec<usize>, Arc<BTree>)>);

/// What one [`Database::vacuum`] pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// The snapshot boundary the pass ran under: versions whose
    /// committed `xmax` lies below it are invisible to every current
    /// and future snapshot.
    pub watermark: u64,
    /// Dead versions physically removed (slot, index entries, and any
    /// overflow chain).
    pub vacuumed_versions: u64,
    /// Heap pages (overflow-chain pages and fully-emptied data pages)
    /// returned to the free-space map during the pass.
    pub freed_pages: u64,
}

impl Database {
    /// Open (or create) the database at `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(dir, DbOptions::default())
    }

    /// Open (or create) with explicit options.
    ///
    /// One handle at a time owns a directory: the handle holds an
    /// exclusive lock on its `LOCK` file until it is dropped, and a
    /// second open fails with an [`std::io::ErrorKind::WouldBlock`] I/O
    /// error instead of sharing the files.
    ///
    /// When a `wal.log` exists, the redo pass runs *first* — before any
    /// file is registered with the pool — so torn or lost data-page
    /// writes from a crash are repaired before anything reads them.
    pub fn open_with(dir: impl AsRef<Path>, opts: DbOptions) -> Result<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = lock_dir(&dir)?;
        let recovery = crate::recovery::recover(&dir)?;
        let catalog = Catalog::load(&dir)?;
        // Undo pass: with a WAL present, redo has restored the pages the
        // log covered, but versions written by transactions that never
        // logged a commit record must be stamped dead (and orphaned
        // delete claims cleared) before anything reads them. This must
        // run while the commit records are still in the log — i.e.
        // before the checkpoint-truncate below.
        let heap_files: Vec<u32> = catalog.tables().map(|t| t.file).collect();
        let undo = match recovery {
            Some(_) => Some(crate::recovery::undo_uncommitted(&dir, &heap_files)?),
            None => None,
        };
        let (_, meta_next) = crate::txn::read_txn_meta(&dir);
        let next = meta_next.max(undo.map_or(0, |u| u.max_txid + 1)).max(crate::txn::TXID_FIRST);
        let txns = TxnManager::new(next);
        // After the undo pass every surviving on-disk version is
        // committed, so the new watermark is simply `next`.
        crate::txn::write_txn_meta(&dir, next, next)?;
        let pool = Arc::new(BufferPool::with_fault(opts.pool_frames, opts.fault.clone()));
        let wal = if opts.durability {
            let wal = Arc::new(Wal::open(&dir, opts.fault.clone())?);
            pool.set_wal(Some(wal.clone()));
            Some(wal)
        } else {
            None
        };
        let mut heaps = HashMap::new();
        let mut indexes = HashMap::new();
        for t in catalog.tables() {
            pool.register_file(t.file, file_path(&dir, t.file))?;
            heaps
                .insert(t.name.to_ascii_lowercase(), Arc::new(HeapFile::new(pool.clone(), t.file)));
        }
        for i in catalog.indexes() {
            pool.register_file(i.file, file_path(&dir, i.file))?;
            indexes
                .insert(i.name.to_ascii_lowercase(), Arc::new(BTree::open(pool.clone(), i.file)?));
        }
        // After a dirty shutdown an index page can be durable while the
        // heap page holding its target slot was lost — the stale entry
        // would alias whatever future insert lands on that slot index.
        // Purge entries whose heap slot no longer exists (or whose
        // version the undo pass stamped dead) before serving queries.
        // `skipped_pages` counts too: a clean shutdown truncates the log
        // to a bare checkpoint record, so *any* page image in the WAL —
        // even one the data file already has — means the last process
        // died mid-flight (e.g. mid-vacuum with some frames evicted and
        // others lost) and an index page may be stale relative to its
        // heap page.
        let dirty = recovery
            .as_ref()
            .is_some_and(|r| r.replayed_pages > 0 || r.skipped_pages > 0 || r.torn_tail_bytes > 0)
            || undo.is_some_and(|u| {
                u.versions_stamped_dead > 0 || u.xmax_cleared > 0 || u.committed_txns > 0
            });
        if dirty {
            // A WAL torn mid-vacuum can leave stubs whose chains were
            // already reclaimed and overflow pages nothing references:
            // digest both before the index sweep below, so its
            // `get_versioned` probes see a consistent heap and drop
            // the purged stubs' index entries.
            for heap in heaps.values() {
                heap.scavenge_after_recovery()?;
            }
            for idef in catalog.indexes() {
                let Some(heap) = heaps.get(&idef.table.to_ascii_lowercase()) else { continue };
                let tree = indexes.get(&idef.name.to_ascii_lowercase()).expect("tree");
                for (key, rid) in tree.scan_range(None, None, true)? {
                    if heap.get_versioned(rid)?.is_none() {
                        tree.delete(&key, rid)?;
                    }
                }
            }
        }
        if let Some(wal) = wal {
            // Make the sweep's page edits durable in the data files,
            // then reset the log to a checkpoint record that carries
            // the LSN cursor forward (everything redo restored was
            // already fsync'd by the recovery pass).
            pool.log_dirty_frames()?;
            wal.sync()?;
            pool.flush_all()?;
            wal.checkpoint_truncate()?;
        }
        let spill = SpillConfig {
            budget: opts.mem_budget,
            manager: Arc::new(SpillManager::new(dir.join("spill"))),
        };
        Ok(Database {
            dir,
            pool,
            inner: RwLock::new(DbInner { catalog, heaps, indexes, stats: HashMap::new() }),
            functions: crate::functions::FunctionRegistry::with_builtins(),
            recovery,
            spill,
            forcing: RwLock::new(opts.forcing),
            registry: crate::metrics::MetricsRegistry::new(),
            txns,
            vacuum_serial: parking_lot::Mutex::new(()),
            reclaim_hint: AtomicU64::new(0),
            auto_vacuum: opts.auto_vacuum,
            closed: AtomicBool::new(false),
            _lock: lock,
        })
    }

    /// Replace the plan-space forcing knobs for every subsequent query.
    /// Pass [`PlanForcing::default()`] to restore cost-based planning.
    pub fn set_forcing(&self, forcing: PlanForcing) {
        *self.forcing.write() = forcing;
    }

    /// The currently active plan-space forcing knobs.
    pub fn forcing(&self) -> PlanForcing {
        *self.forcing.read()
    }

    /// The function registry (to register custom functions).
    pub fn functions_mut(&mut self) -> &mut crate::functions::FunctionRegistry {
        &mut self.functions
    }

    /// Lifetime call and marshalling counters for every registered
    /// function, sorted by name.
    pub fn udf_counters(&self) -> Vec<crate::metrics::UdfCounters> {
        self.functions.counters()
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, columns: Vec<ColumnDef>) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.catalog.table(name).is_some() {
            return Err(DbError::Catalog(format!("table {name:?} already exists")));
        }
        let file = inner.catalog.allocate_file_id();
        self.pool.register_file(file, file_path(&self.dir, file))?;
        inner.catalog.add_table(TableDef { name: name.to_string(), columns, file })?;
        inner
            .heaps
            .insert(name.to_ascii_lowercase(), Arc::new(HeapFile::new(self.pool.clone(), file)));
        inner.catalog.save(&self.dir)?;
        Ok(())
    }

    /// Create an index and backfill it from existing rows.
    pub fn create_index(&self, name: &str, table: &str, columns: Vec<String>) -> Result<()> {
        let mut inner = self.inner.write();
        let tdef = inner
            .catalog
            .table(table)
            .ok_or_else(|| DbError::Catalog(format!("unknown table {table:?}")))?
            .clone();
        let mut key_cols = Vec::with_capacity(columns.len());
        for c in &columns {
            key_cols.push(
                tdef.column_index(c)
                    .ok_or_else(|| DbError::Catalog(format!("unknown column {c:?}")))?,
            );
        }
        let file = inner.catalog.allocate_file_id();
        self.pool.register_file(file, file_path(&self.dir, file))?;
        let tree = Arc::new(BTree::create(self.pool.clone(), file)?);
        inner.catalog.add_index(IndexDef {
            name: name.to_string(),
            table: tdef.name.clone(),
            columns,
            file,
        })?;
        // Backfill every non-dead version — including ones with an xmax
        // claim, since a snapshot older than the deleter must still find
        // them through this index.
        let heap = inner.heaps.get(&tdef.name.to_ascii_lowercase()).expect("heap").clone();
        let mut cursor = HeapCursor::new(heap);
        while let Some(v) = cursor.next()? {
            let row = crate::tuple::decode_row(&v.body, tdef.columns.len())?;
            let key_vals: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
            tree.insert(&encode_key(&key_vals), v.rid)?;
        }
        inner.indexes.insert(name.to_ascii_lowercase(), tree);
        inner.catalog.save(&self.dir)?;
        Ok(())
    }

    /// One table's heap, its indexes (key-column positions + trees),
    /// and its definition — the access set every DML statement needs.
    fn table_access(&self, table: &str) -> Result<TableAccess> {
        let inner = self.inner.read();
        let tdef = inner
            .catalog
            .table(table)
            .ok_or_else(|| DbError::Catalog(format!("unknown table {table:?}")))?
            .clone();
        let heap = inner.heaps.get(&tdef.name.to_ascii_lowercase()).expect("heap").clone();
        let idx_defs: Vec<(Vec<usize>, Arc<BTree>)> = inner
            .catalog
            .indexes_of(&tdef.name)
            .into_iter()
            .map(|d| {
                let cols = d
                    .columns
                    .iter()
                    .map(|c| tdef.column_index(c).expect("index column exists"))
                    .collect::<Vec<_>>();
                let tree = inner.indexes.get(&d.name.to_ascii_lowercase()).expect("tree").clone();
                (cols, tree)
            })
            .collect();
        drop(inner);
        Ok((tdef, heap, idx_defs))
    }

    /// Insert rows programmatically (the bulk-load path). Values are
    /// type-checked; `Str` values are coerced into XADT columns as plain
    /// fragments. Runs as one autocommit transaction: on any error the
    /// rows inserted so far are rolled back.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let txn = self.txns.begin();
        match self.insert_rows_in(table, rows, txn) {
            Ok(n) => {
                self.commit_txn_inner(txn, false)?;
                Ok(n)
            }
            Err(e) => {
                let _ = self.rollback_txn(txn);
                Err(e)
            }
        }
    }

    /// Insert rows inside transaction `txn`: each version is stamped
    /// with `txn`'s id as `xmin` and an undo record is kept so rollback
    /// can remove it (and its index entries) physically.
    pub fn insert_rows_in(&self, table: &str, rows: Vec<Row>, txn: TxnId) -> Result<u64> {
        let (tdef, heap, idx_defs) = self.table_access(table)?;
        let mut buf = Vec::new();
        let mut n = 0u64;
        for mut row in rows {
            if row.len() != tdef.columns.len() {
                return Err(DbError::Exec(format!(
                    "row arity {} != table arity {}",
                    row.len(),
                    tdef.columns.len()
                )));
            }
            for (v, c) in row.iter_mut().zip(&tdef.columns) {
                coerce(v, c)?;
            }
            buf.clear();
            encode_row(&row, &mut buf);
            let rid = heap.insert(&buf, txn.0)?;
            self.txns.record_undo(
                txn,
                UndoRecord::Insert { table: tdef.name.clone(), rid, row: row.clone() },
            )?;
            for (cols, tree) in &idx_defs {
                let key_vals: Vec<Value> = cols.iter().map(|&i| row[i].clone()).collect();
                tree.insert(&encode_key(&key_vals), rid)?;
            }
            n += 1;
        }
        Ok(n)
    }

    /// Run a SELECT (or EXPLAIN SELECT).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with_forcing(sql, None)
    }

    /// [`Database::query`] with a per-call forcing override. `None` uses
    /// the database-wide knobs from [`Database::set_forcing`]; `Some`
    /// plans this one statement under the given knobs without touching
    /// shared state — the wire server maps per-session `SET` options
    /// here so concurrent sessions cannot perturb each other's plans.
    pub fn query_with_forcing(
        &self,
        sql: &str,
        forcing: Option<PlanForcing>,
    ) -> Result<QueryResult> {
        self.query_in(sql, forcing, None)
    }

    /// [`Database::query_with_forcing`] inside an optional explicit
    /// transaction: with `Some(txn)` the statement reads through the
    /// snapshot captured at `BEGIN`; with `None` it reads through a
    /// fresh autocommit snapshot (everything committed so far).
    pub fn query_in(
        &self,
        sql: &str,
        forcing: Option<PlanForcing>,
        txn: Option<TxnId>,
    ) -> Result<QueryResult> {
        let forcing = forcing.unwrap_or_else(|| *self.forcing.read());
        let snapshot = match txn {
            Some(t) => self.txns.snapshot_of(t)?,
            None => self.txns.read_snapshot(),
        };
        let wall = Instant::now();
        let _query_span = crate::trace::span("query");
        let parse_span = crate::trace::span("parse");
        let stmt = parse_statement(sql)?;
        drop(parse_span);
        match stmt {
            Statement::Explain(inner) => match *inner {
                Statement::Select(q) => {
                    let inner = self.inner.read();
                    let ctx = PlanContext {
                        catalog: &inner.catalog,
                        heaps: &inner.heaps,
                        indexes: &inner.indexes,
                        stats: &inner.stats,
                        functions: &self.functions,
                        spill: &self.spill,
                        forcing,
                        snapshot: snapshot.clone(),
                    };
                    let plan = plan_select(&ctx, &q)?;
                    Ok(QueryResult {
                        columns: vec!["plan".to_string()],
                        rows: plan.explain.into_iter().map(|l| vec![Value::Str(l)]).collect(),
                    })
                }
                other => Err(DbError::Plan(format!("cannot EXPLAIN {other:?}"))),
            },
            Statement::Select(q) => {
                let inner = self.inner.read();
                let ctx = PlanContext {
                    catalog: &inner.catalog,
                    heaps: &inner.heaps,
                    indexes: &inner.indexes,
                    stats: &inner.stats,
                    functions: &self.functions,
                    spill: &self.spill,
                    forcing,
                    snapshot,
                };
                // With span tracing on, plan with a recording profiler so
                // the span tree gets one operator span per plan node (the
                // wrapper cost is paid only in traced sessions; the
                // default path does a single atomic load).
                let spans_on = crate::trace::spans_enabled();
                let mut prof = if spans_on { Profiler::enabled() } else { Profiler::disabled() };
                let plan_span = crate::trace::span("plan");
                let plan = plan_select_profiled(&ctx, &q, &mut prof)?;
                drop(plan_span);
                let exec_span = crate::trace::span("exec");
                let exec_id = exec_span.id();
                let rows = collect(plan.root)?;
                drop(exec_span);
                if spans_on {
                    if let Some(root) = prof.finish() {
                        crate::metrics::record_operator_spans(&root, exec_id);
                    }
                }
                self.registry.record_query(wall.elapsed());
                Ok(QueryResult { columns: plan.columns, rows })
            }
            other => Err(DbError::Plan(format!("query() expects SELECT, got {other:?}"))),
        }
    }

    /// Run a SELECT with full instrumentation: every operator is wrapped
    /// to count `next()` calls, rows, and inclusive time, and the query
    /// is bracketed with buffer-pool, index, sort, and UDF counter
    /// snapshots. Returns both the result and the [`QueryMetrics`].
    ///
    /// The counter deltas are exact only for single-stream use (see
    /// `metrics`): a concurrent query on the same process would be
    /// attributed to this one's window.
    pub fn explain_analyze(&self, sql: &str) -> Result<AnalyzeReport> {
        let wall = Instant::now();
        let _query_span = crate::trace::span("query");
        let t = Instant::now();
        let parse_span = crate::trace::span("parse");
        let stmt = parse_statement(sql)?;
        drop(parse_span);
        let parse_time = t.elapsed();
        let Statement::Select(q) = stmt else {
            return Err(DbError::Plan("explain_analyze() expects SELECT".into()));
        };
        let inner = self.inner.read();
        let ctx = PlanContext {
            catalog: &inner.catalog,
            heaps: &inner.heaps,
            indexes: &inner.indexes,
            stats: &inner.stats,
            functions: &self.functions,
            spill: &self.spill,
            forcing: *self.forcing.read(),
            snapshot: self.txns.read_snapshot(),
        };
        let mut prof = Profiler::enabled();
        let t = Instant::now();
        let plan_span = crate::trace::span("plan");
        let plan = plan_select_profiled(&ctx, &q, &mut prof)?;
        drop(plan_span);
        let plan_time = t.elapsed();

        let pool0 = self.pool.stats_total();
        let wal0 = self.wal_stats().unwrap_or_default();
        let engine0 = ENGINE.snapshot();
        let udf0 = self.functions.counters();
        let t = Instant::now();
        let exec_span = crate::trace::span("exec");
        let exec_id = exec_span.id();
        let rows = collect(plan.root)?;
        drop(exec_span);
        let exec_time = t.elapsed();

        let metrics = QueryMetrics {
            parse: parse_time,
            plan: plan_time,
            exec: exec_time,
            wall: wall.elapsed(),
            rows: rows.len() as u64,
            pool: self.pool.stats_total().since(&pool0),
            wal: self.wal_stats().unwrap_or_default().since(&wal0),
            engine: ENGINE.snapshot().since(&engine0),
            udfs: udf_delta(&udf0, &self.functions.counters()),
            root: prof.finish(),
        };
        if let Some(root) = metrics.root.as_ref() {
            crate::metrics::record_operator_spans(root, exec_id);
        }
        self.registry.record_query(metrics.wall);
        Ok(AnalyzeReport { result: QueryResult { columns: plan.columns, rows }, metrics })
    }

    /// Planner decisions for a SELECT, without executing it.
    pub fn explain(&self, sql: &str) -> Result<Vec<String>> {
        self.explain_with_forcing(sql, None)
    }

    /// [`Database::explain`] with a per-call forcing override (see
    /// [`Database::query_with_forcing`]).
    pub fn explain_with_forcing(
        &self,
        sql: &str,
        forcing: Option<PlanForcing>,
    ) -> Result<Vec<String>> {
        match parse_statement(sql)? {
            Statement::Select(q) => {
                let inner = self.inner.read();
                let ctx = PlanContext {
                    catalog: &inner.catalog,
                    heaps: &inner.heaps,
                    indexes: &inner.indexes,
                    stats: &inner.stats,
                    functions: &self.functions,
                    spill: &self.spill,
                    forcing: forcing.unwrap_or_else(|| *self.forcing.read()),
                    snapshot: self.txns.read_snapshot(),
                };
                Ok(plan_select(&ctx, &q)?.explain)
            }
            other => Err(DbError::Plan(format!("explain() expects SELECT, got {other:?}"))),
        }
    }

    /// Execute DDL / DML with autocommit; returns affected-row count.
    ///
    /// `BEGIN`/`COMMIT`/`ROLLBACK` are rejected here: transaction scope
    /// is per connection, so explicit transactions run through
    /// [`Database::execute_txn`] (which the wire server drives with its
    /// per-session transaction slot).
    pub fn execute(&self, sql: &str) -> Result<u64> {
        self.execute_stmt(parse_statement(sql)?)
    }

    /// Run one statement against a per-connection transaction slot:
    /// `BEGIN` opens a transaction into `current`, `COMMIT`/`ROLLBACK`
    /// close it, and DML joins the open transaction (or autocommits
    /// when none is open). A failed DML statement inside an explicit
    /// transaction aborts the whole transaction (first-updater-wins
    /// conflicts never leave a half-applied statement behind).
    pub fn execute_txn(&self, sql: &str, current: &mut Option<TxnId>) -> Result<u64> {
        match parse_statement(sql)? {
            Statement::Begin => {
                if current.is_some() {
                    return Err(DbError::Exec("transaction already open".into()));
                }
                *current = Some(self.begin_txn());
                Ok(0)
            }
            Statement::Commit => match current.take() {
                Some(t) => {
                    self.commit_txn(t)?;
                    Ok(0)
                }
                None => Err(DbError::Exec("COMMIT with no open transaction".into())),
            },
            Statement::Rollback => match current.take() {
                Some(t) => {
                    self.rollback_txn(t)?;
                    Ok(0)
                }
                None => Err(DbError::Exec("ROLLBACK with no open transaction".into())),
            },
            Statement::Insert { table, rows } => {
                let values = literal_rows(rows)?;
                self.dml_in(current, |t| self.insert_rows_in(&table, values, t))
            }
            Statement::Delete { table, predicate } => {
                self.dml_in(current, |t| self.delete_rows_in(&table, predicate, t))
            }
            other => self.execute_stmt(other),
        }
    }

    /// Join `current` (or autocommit) for one DML statement. On error
    /// inside an explicit transaction the whole transaction is rolled
    /// back and the slot cleared; the original error (e.g.
    /// [`DbError::TxnConflict`]) is returned unchanged so wire clients
    /// see a stable error code.
    fn dml_in(
        &self,
        current: &mut Option<TxnId>,
        f: impl FnOnce(TxnId) -> Result<u64>,
    ) -> Result<u64> {
        match *current {
            Some(t) => match f(t) {
                Ok(n) => Ok(n),
                Err(e) => {
                    let _ = self.rollback_txn(t);
                    *current = None;
                    Err(e)
                }
            },
            None => {
                let t = self.txns.begin();
                match f(t) {
                    Ok(n) => {
                        self.commit_txn_inner(t, false)?;
                        Ok(n)
                    }
                    Err(e) => {
                        let _ = self.rollback_txn(t);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Autocommit execution of a parsed statement.
    fn execute_stmt(&self, stmt: Statement) -> Result<u64> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let cols = columns.into_iter().map(|(n, t)| ColumnDef::new(n, t)).collect();
                self.create_table(&name, cols)?;
                Ok(0)
            }
            Statement::CreateIndex { name, table, columns } => {
                self.create_index(&name, &table, columns)?;
                Ok(0)
            }
            Statement::Insert { table, rows } => self.insert_rows(&table, literal_rows(rows)?),
            Statement::Delete { table, predicate } => self.delete_rows(&table, predicate),
            Statement::Drop { index: true, name } => {
                let mut inner = self.inner.write();
                let def = inner.catalog.remove_index(&name)?;
                inner.indexes.remove(&name.to_ascii_lowercase());
                self.pool.unregister_file(def.file)?;
                let _ = std::fs::remove_file(file_path(&self.dir, def.file));
                inner.catalog.save(&self.dir)?;
                Ok(0)
            }
            Statement::Drop { index: false, name } => {
                let mut inner = self.inner.write();
                let (tdef, indexes) = inner.catalog.remove_table(&name)?;
                inner.heaps.remove(&tdef.name.to_ascii_lowercase());
                self.pool.unregister_file(tdef.file)?;
                let _ = std::fs::remove_file(file_path(&self.dir, tdef.file));
                for ix in indexes {
                    inner.indexes.remove(&ix.name.to_ascii_lowercase());
                    self.pool.unregister_file(ix.file)?;
                    let _ = std::fs::remove_file(file_path(&self.dir, ix.file));
                }
                inner.stats.remove(&tdef.name.to_ascii_lowercase());
                inner.catalog.save(&self.dir)?;
                Ok(0)
            }
            Statement::Vacuum => {
                let report = self.vacuum()?;
                Ok(report.vacuumed_versions)
            }
            Statement::Explain(_) => Err(DbError::Plan("EXPLAIN returns rows; use query()".into())),
            Statement::Select(_) => {
                Err(DbError::Plan("execute() expects DDL/DML; use query()".into()))
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(DbError::Exec(
                "transaction control is per connection; use execute_txn() or a wire session".into(),
            )),
        }
    }

    /// `DELETE FROM table [WHERE …]` as one autocommit transaction.
    fn delete_rows(&self, table: &str, predicate: Option<AstExpr>) -> Result<u64> {
        let txn = self.txns.begin();
        match self.delete_rows_in(table, predicate, txn) {
            Ok(n) => {
                self.commit_txn_inner(txn, false)?;
                Ok(n)
            }
            Err(e) => {
                let _ = self.rollback_txn(txn);
                Err(e)
            }
        }
    }

    /// MVCC delete inside `txn`: scan the versions visible to `txn`'s
    /// snapshot, evaluate the predicate, and claim each match's `xmax`
    /// (first-updater-wins — a live claim by another transaction fails
    /// the statement with [`DbError::TxnConflict`] immediately, so
    /// there is no lock waiting and no deadlock). Heap slots and index
    /// entries stay in place: older snapshots must still see the row,
    /// and readers filter on visibility.
    pub fn delete_rows_in(
        &self,
        table: &str,
        predicate: Option<AstExpr>,
        txn: TxnId,
    ) -> Result<u64> {
        let snapshot = self.txns.snapshot_of(txn)?;
        let (tdef, heap, _idx_defs) = self.table_access(table)?;

        // Compile the predicate against the table's own schema.
        let compiled = match predicate {
            Some(ast) => Some(self.compile_table_predicate(&tdef, ast)?),
            None => None,
        };
        let mut cursor = HeapCursor::new(heap.clone());
        let mut victims = Vec::new();
        while let Some(v) = cursor.next()? {
            if !snapshot.visible(v.xmin, v.xmax) {
                continue;
            }
            let row = crate::tuple::decode_row(&v.body, tdef.columns.len())?;
            let keep = match &compiled {
                Some(p) => !p.eval(&row)?.is_true(),
                None => false,
            };
            if !keep {
                victims.push(v.rid);
            }
        }
        let mut n = 0;
        for rid in victims {
            match heap.try_claim_xmax(rid, txn.0)? {
                ClaimOutcome::Claimed => {
                    self.txns
                        .record_undo(txn, UndoRecord::Delete { table: tdef.name.clone(), rid })?;
                    // Feed the auto-vacuum hook: if this claim commits,
                    // the version eventually becomes reclaimable.
                    self.reclaim_hint.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
                ClaimOutcome::OwnedBySelf | ClaimOutcome::Gone => {}
                ClaimOutcome::Conflict(holder) => {
                    self.txns.note_conflict();
                    return Err(DbError::TxnConflict(format!(
                        "row in {:?} already deleted by concurrent transaction {holder}",
                        tdef.name
                    )));
                }
            }
        }
        Ok(n)
    }

    /// Open an explicit transaction; pair with [`Database::commit_txn`]
    /// or [`Database::rollback_txn`].
    pub fn begin_txn(&self) -> TxnId {
        self.txns.begin()
    }

    /// Durably commit `txn`: flush dirty page images to the WAL, append
    /// its commit record, and group-fsync — concurrent committers share
    /// one `fsync` (the group-commit leader flushes the whole buffer,
    /// so followers find their record already durable). Read-only
    /// transactions skip the log entirely.
    pub fn commit_txn(&self, txn: TxnId) -> Result<()> {
        self.commit_txn_inner(txn, true)
    }

    /// Commit `txn`. `durable` selects the explicit-COMMIT path (page
    /// images + commit record + group fsync); autocommit statements pass
    /// `false` and only buffer the commit record, keeping the legacy
    /// contract that bulk loads become durable at [`Database::commit`].
    fn commit_txn_inner(&self, txn: TxnId, durable: bool) -> Result<()> {
        let wrote = self.txns.wrote(txn)?;
        if wrote {
            if let Some(wal) = self.pool.wal() {
                if durable {
                    self.pool.log_dirty_frames()?;
                    let lsn = wal.log_commit(txn.0);
                    wal.sync_group(lsn)?;
                } else {
                    wal.log_commit(txn.0);
                }
            }
        }
        self.txns.take_undo(txn)?;
        self.txns.finish_commit(txn)
    }

    /// Abort `txn`: apply its undo list in reverse — inserts are
    /// removed physically (heap slot and index entries), delete claims
    /// are cleared — then drop it from the active set.
    pub fn rollback_txn(&self, txn: TxnId) -> Result<()> {
        let undo = self.txns.take_undo(txn)?;
        for rec in undo.into_iter().rev() {
            match rec {
                UndoRecord::Insert { table, rid, row } => {
                    // The table may have been dropped after the insert
                    // (DDL is not transactional); nothing left to undo.
                    let Ok((_, heap, idx_defs)) = self.table_access(&table) else { continue };
                    // Index entries go first: `heap.delete` makes the
                    // slot immediately reusable, and a concurrent
                    // insert reviving it with an equal key must not
                    // have its fresh index entry swept up by ours.
                    for (cols, tree) in &idx_defs {
                        let key_vals: Vec<Value> = cols.iter().map(|&i| row[i].clone()).collect();
                        tree.delete(&encode_key(&key_vals), rid)?;
                    }
                    heap.delete(rid)?;
                }
                UndoRecord::Delete { table, rid } => {
                    let Ok((_, heap, _)) = self.table_access(&table) else { continue };
                    heap.clear_xmax(rid)?;
                }
            }
        }
        self.txns.finish_abort(txn);
        Ok(())
    }

    /// Lifetime transaction counters (begun / committed / aborted /
    /// write-write conflicts).
    pub fn txn_stats(&self) -> TxnStats {
        self.txns.stats()
    }

    /// Compile a WHERE expression against one table's columns (for DELETE).
    fn compile_table_predicate(&self, tdef: &TableDef, ast: AstExpr) -> Result<crate::expr::Expr> {
        crate::plan::compile_single_table(tdef, &ast, &self.functions)
    }

    /// Recompute statistics for one table (the paper's `runstats`).
    pub fn runstats(&self, table: &str) -> Result<TableStats> {
        let (heap, arity, key) = {
            let inner = self.inner.read();
            let tdef = inner
                .catalog
                .table(table)
                .ok_or_else(|| DbError::Catalog(format!("unknown table {table:?}")))?;
            let key = tdef.name.to_ascii_lowercase();
            (inner.heaps.get(&key).expect("heap").clone(), tdef.columns.len(), key)
        };
        let snapshot = self.txns.read_snapshot();
        let mut builder = StatsBuilder::new(arity);
        let mut cursor = HeapCursor::new(heap);
        while let Some(v) = cursor.next()? {
            if !snapshot.visible(v.xmin, v.xmax) {
                continue;
            }
            let row = crate::tuple::decode_row(&v.body, arity)?;
            builder.add(&row, encoded_len(&row));
        }
        let stats = builder.finish();
        self.inner.write().stats.insert(key, stats.clone());
        Ok(stats)
    }

    /// `runstats` for every table.
    pub fn runstats_all(&self) -> Result<()> {
        let names: Vec<String> =
            self.inner.read().catalog.tables().map(|t| t.name.clone()).collect();
        for n in names {
            self.runstats(&n)?;
        }
        Ok(())
    }

    /// Cached statistics for `table`, if `runstats` has run.
    pub fn stats_of(&self, table: &str) -> Option<TableStats> {
        self.inner.read().stats.get(&table.to_ascii_lowercase()).cloned()
    }

    /// Number of user tables.
    pub fn table_count(&self) -> usize {
        self.inner.read().catalog.table_count()
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> =
            self.inner.read().catalog.tables().map(|t| t.name.clone()).collect();
        v.sort();
        v
    }

    /// Table definition by name.
    pub fn table_def(&self, name: &str) -> Option<TableDef> {
        self.inner.read().catalog.table(name).cloned()
    }

    /// Total bytes across table heap files.
    pub fn data_size_bytes(&self) -> Result<u64> {
        let inner = self.inner.read();
        let mut total = 0;
        for t in inner.catalog.tables() {
            total += self.pool.file_size(t.file)?;
        }
        Ok(total)
    }

    /// Total bytes across index files.
    pub fn index_size_bytes(&self) -> Result<u64> {
        let inner = self.inner.read();
        let mut total = 0;
        for i in inner.catalog.indexes() {
            total += self.pool.file_size(i.file)?;
        }
        Ok(total)
    }

    /// Row count of one table: scans, counting versions visible to a
    /// fresh snapshot (so uncommitted inserts and committed deletes are
    /// excluded).
    pub fn row_count(&self, table: &str) -> Result<u64> {
        let heap = {
            let inner = self.inner.read();
            inner
                .heaps
                .get(&table.to_ascii_lowercase())
                .ok_or_else(|| DbError::Catalog(format!("unknown table {table:?}")))?
                .clone()
        };
        let snapshot = self.txns.read_snapshot();
        let mut n = 0u64;
        heap.scan(|v| {
            if snapshot.visible(v.xmin, v.xmax) {
                n += 1;
            }
            Ok(true)
        })?;
        Ok(n)
    }

    /// Flush everything to disk.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// Make all work so far durable: log every dirty page's image to the
    /// WAL and fsync it — **one** fsync, zero data-page writes, so this
    /// is the cheap durability point for bulk loads. Returns the number
    /// of page images logged. With durability off this is a no-op
    /// returning 0 (use [`Database::flush`] to push pages out).
    ///
    /// After `commit` returns, a crash at *any* point loses nothing: the
    /// redo pass on the next open rebuilds every page from the log.
    pub fn commit(&self) -> Result<u64> {
        let _span = crate::trace::span("commit");
        let logged = self.pool.log_dirty_frames()?;
        if let Some(wal) = self.pool.wal() {
            wal.sync()?;
        }
        Ok(logged)
    }

    /// Physically reclaim every dead version no current or future
    /// snapshot can see: versions whose committed `xmax` lies below
    /// [`TxnManager::vacuum_watermark`], plus versions stamped dead by
    /// crash recovery (`xmin == 0`). For each victim the pass deletes
    /// its index entries *first*, then frees the heap slot and walks
    /// its overflow chain back to the free-space map — that ordering
    /// means a revived slot can never alias a stale index entry, even
    /// if the pass crashes halfway (redo replays the logged prefix; the
    /// open-time sweep and a re-run converge the rest).
    ///
    /// Runs under the catalog read lock (concurrent queries and DML
    /// proceed; DDL waits) and a pass-serialization mutex. Finishes
    /// with a [`Database::commit`] so the reclamation is durable.
    pub fn vacuum(&self) -> Result<VacuumReport> {
        let _span = crate::trace::span("vacuum");
        let _serial = self.vacuum_serial.lock();
        // Reset the hint up front: deletes racing with this pass are
        // counted toward the *next* one.
        self.reclaim_hint.store(0, Ordering::Relaxed);
        let engine0 = ENGINE.snapshot();
        let watermark = self.txns.vacuum_watermark();
        let mut vacuumed = 0u64;
        let inner = self.inner.read();
        let tables: Vec<TableDef> = inner.catalog.tables().cloned().collect();
        for tdef in &tables {
            let heap = inner.heaps.get(&tdef.name.to_ascii_lowercase()).expect("heap").clone();
            let idx_defs: Vec<(Vec<usize>, Arc<BTree>)> = inner
                .catalog
                .indexes_of(&tdef.name)
                .into_iter()
                .map(|d| {
                    let cols: Vec<usize> = d
                        .columns
                        .iter()
                        .map(|c| tdef.column_index(c).expect("index column"))
                        .collect();
                    (cols, inner.indexes.get(&d.name.to_ascii_lowercase()).expect("tree").clone())
                })
                .collect();
            // Committed-dead versions below the watermark. A nonzero
            // `xmax` below the watermark is necessarily committed: an
            // active claimant's own id bounds the watermark from above,
            // and aborted claims are cleared before the claimant leaves
            // the active set. Bodies are resolved by the scan *before*
            // any freeing, because the index keys must be recomputed
            // from them.
            let mut victims: Vec<(crate::storage::heap::Rid, Row)> = Vec::new();
            heap.scan(|v| {
                if v.xmax != crate::txn::TXID_INVALID && v.xmax < watermark {
                    victims.push((v.rid, crate::tuple::decode_row(&v.body, tdef.columns.len())?));
                }
                Ok(true)
            })?;
            for (rid, row) in victims {
                for (cols, tree) in &idx_defs {
                    let key_vals: Vec<Value> = cols.iter().map(|&i| row[i].clone()).collect();
                    tree.delete(&encode_key(&key_vals), rid)?;
                }
                if heap.delete(rid)? {
                    vacuumed += 1;
                }
            }
            // Recovery-stamped corpses (`xmin == 0`) carry no index
            // entries — the open-time sweep already purged them.
            for rid in heap.stamped_dead_rids()? {
                if heap.delete(rid)? {
                    vacuumed += 1;
                }
            }
        }
        drop(inner);
        ENGINE.vacuumed_versions.fetch_add(vacuumed, Ordering::Relaxed);
        // Durability point: log every page the pass touched and fsync,
        // so a crash from here on replays the whole reclamation.
        self.commit()?;
        let freed = ENGINE.snapshot().since(&engine0).freed_pages;
        Ok(VacuumReport { watermark, vacuumed_versions: vacuumed, freed_pages: freed })
    }

    /// Checkpoint: commit, write every dirty page to its data file,
    /// fsync the data files, then truncate the WAL to a single
    /// checkpoint record. Bounds both recovery time and log size.
    /// When [`DbOptions::auto_vacuum`] is on and deletes have
    /// accumulated since the last pass, a [`Database::vacuum`] runs
    /// first so the checkpointed state is also compact.
    pub fn checkpoint(&self) -> Result<()> {
        if self.auto_vacuum && self.reclaim_hint.load(Ordering::Relaxed) > 0 {
            self.vacuum()?;
        }
        self.commit()?;
        self.pool.flush_all()?;
        // Persist the transaction watermark *before* truncating: if we
        // crash in between, the old log (with its commit records) is
        // still intact, and `decided = below-watermark ∪ logged-commits`
        // stays correct either way. Commits above the watermark (some
        // transaction still running) are re-logged into the fresh WAL.
        let (watermark, next, relog) = self.txns.checkpoint_info();
        crate::txn::write_txn_meta(&self.dir, watermark, next)?;
        if let Some(wal) = self.pool.wal() {
            wal.checkpoint_truncate_with(&relog)?;
        }
        Ok(())
    }

    /// Orderly shutdown: checkpoint (or, with durability off, flush) so
    /// nothing is left only in memory, then mark the handle closed so
    /// `Drop` does no further I/O. Prefer this over relying on `Drop`,
    /// which cannot report errors.
    pub fn close(self) -> Result<()> {
        self.close_inner()
    }

    fn close_inner(&self) -> Result<()> {
        if self.closed.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        // Abort stragglers (a dropped connection mid-transaction) so
        // the checkpoint's watermark covers every id ever handed out
        // and the fresh WAL needs no re-logged commit records.
        for id in self.txns.active_ids() {
            let _ = self.rollback_txn(TxnId(id));
        }
        self.checkpoint()
    }

    /// Drop this handle *without* flushing anything — simulates losing
    /// the process image mid-run. In-memory state vanishes; whatever the
    /// WAL and data files already hold is what the next open recovers.
    /// Test/fault-injection use only.
    pub fn abandon(self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// The per-database metrics registry: queries completed and the
    /// wall-latency histogram they recorded into.
    pub fn metrics(&self) -> &crate::metrics::MetricsRegistry {
        &self.registry
    }

    /// One unified snapshot of everything this process can measure:
    /// query count + latency histogram (registry), buffer-pool and WAL
    /// counters, engine counters, and live spill files. Two snapshots
    /// taken around a workload diff with
    /// [`RegistrySnapshot::since`](crate::metrics::RegistrySnapshot::since).
    pub fn metrics_snapshot(&self) -> crate::metrics::RegistrySnapshot {
        crate::metrics::RegistrySnapshot {
            queries: self.registry.queries(),
            latency: self.registry.latency(),
            pool: self.pool.stats_total(),
            wal: self.wal_stats().unwrap_or_default(),
            engine: ENGINE.snapshot(),
            net: self.registry.net().snapshot(),
            txn: self.txns.stats(),
            spill_files_live: self.spill_files_live() as u64,
        }
    }

    /// Cumulative WAL counters since open (`None` with durability off).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.pool.wal().map(|w| w.stats())
    }

    /// Current WAL size in bytes (0 with durability off).
    pub fn wal_bytes(&self) -> u64 {
        self.pool.wal().map(|w| w.len_bytes()).unwrap_or(0)
    }

    /// Spill temp files currently on disk. Zero between queries: spill
    /// data is owned by operators and deleted when the query's plan is
    /// dropped, on success and on error alike.
    pub fn spill_files_live(&self) -> usize {
        self.spill.manager.live_files()
    }

    /// What the open-time redo pass did; `None` when no WAL existed.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Flush and empty the buffer pool — makes the next query run cold,
    /// as in the paper's methodology (§4.2). The flush's writebacks are
    /// *excluded* from the I/O stats (they belong to the workload that
    /// dirtied the pages, not to the cold query measured next), so a
    /// `drop_cache` → query → `take_io_stats` sequence charges the query
    /// only its own I/O.
    pub fn drop_cache(&self) -> Result<()> {
        self.pool.drop_cache()
    }

    /// Buffer pool I/O counters accumulated since the previous
    /// `take_io_stats` call — **snapshot-and-reset** semantics: each call
    /// closes a measurement window and opens the next. Use
    /// [`Database::io_stats_total`] for cumulative counters, and see
    /// [`Database::drop_cache`] for how cache teardown interacts with
    /// these windows. `explain_analyze` reads only the cumulative
    /// counters, so it never disturbs a window.
    pub fn take_io_stats(&self) -> PoolStats {
        self.pool.take_stats()
    }

    /// Cumulative buffer pool I/O counters since open. Never resets and
    /// does not affect [`Database::take_io_stats`] windows.
    pub fn io_stats_total(&self) -> PoolStats {
        self.pool.stats_total()
    }

    /// Enable or disable the storage-latency simulation (see
    /// [`crate::storage::buffer::IoSimulation`]).
    pub fn set_io_simulation(&self, sim: Option<crate::storage::buffer::IoSimulation>) {
        self.pool.set_io_simulation(sim);
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Database {
    /// Best-effort shutdown: checkpoint + flush unless [`Database::close`]
    /// or [`Database::abandon`] already ran. Errors (e.g. an injected
    /// crash) are swallowed — `Drop` cannot report them; callers who care
    /// use `close()`.
    fn drop(&mut self) {
        if !self.closed.load(Ordering::SeqCst) {
            let _ = self.close_inner();
        }
    }
}

/// Take the exclusive lock on `dir/LOCK` that marks the directory as
/// open by one [`Database`].
fn lock_dir(dir: &Path) -> Result<std::fs::File> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join("LOCK"))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(DbError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("database directory {} is already open", dir.display()),
        ))),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

/// Convert parsed `INSERT … VALUES` literal rows into [`Value`] rows.
fn literal_rows(rows: Vec<Vec<AstExpr>>) -> Result<Vec<Row>> {
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let mut out = Vec::with_capacity(row.len());
        for e in row {
            out.push(match e {
                AstExpr::Str(s) => Value::Str(s),
                AstExpr::Num(n) => Value::Int(n),
                AstExpr::Null => Value::Null,
                other => {
                    return Err(DbError::Exec(format!(
                        "INSERT values must be literals, got {other:?}"
                    )))
                }
            });
        }
        values.push(out);
    }
    Ok(values)
}

fn file_path(dir: &Path, file: u32) -> PathBuf {
    dir.join(format!("f{file:05}.dat"))
}

/// Check/coerce a value against a column definition.
fn coerce(v: &mut Value, c: &ColumnDef) -> Result<()> {
    match (&v, c.ty) {
        (Value::Null, _) => Ok(()),
        (Value::Int(_), DataType::Integer) => Ok(()),
        (Value::Str(_), DataType::Varchar) => Ok(()),
        (Value::Xadt(_), DataType::Xadt) => Ok(()),
        (Value::Str(s), DataType::Xadt) => {
            *v = Value::Xadt(xadt::XadtValue::plain(s.clone()));
            Ok(())
        }
        (got, want) => {
            Err(DbError::Exec(format!("column {:?} expects {want}, got {got:?}", c.name)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ForcedAccess;
    use crate::tempdir::TempDir;

    /// A database in a fresh directory; keep the [`TempDir`] alive while
    /// the database is in use.
    fn db(tag: &str) -> (TempDir, Database) {
        let dir = TempDir::new(&format!("ordb-db-{tag}")).unwrap();
        let db = Database::open(&dir).unwrap();
        (dir, db)
    }

    fn setup_speech(db: &Database) {
        db.execute(
            "CREATE TABLE speech (speechID INTEGER, speech_parentID INTEGER, \
             speech_parentCODE VARCHAR, speech_speaker XADT, speech_line XADT)",
        )
        .unwrap();
        db.execute("CREATE TABLE act (actID INTEGER, act_title VARCHAR)").unwrap();
        db.insert_rows(
            "act",
            vec![
                vec![Value::Int(1), Value::str("Act I")],
                vec![Value::Int(2), Value::str("Act II")],
            ],
        )
        .unwrap();
        db.insert_rows(
            "speech",
            vec![
                vec![
                    Value::Int(10),
                    Value::Int(1),
                    Value::str("ACT"),
                    Value::str("<SPEAKER>HAMLET</SPEAKER>"),
                    Value::str("<LINE>my good friend</LINE><LINE>adieu</LINE>"),
                ],
                vec![
                    Value::Int(11),
                    Value::Int(1),
                    Value::str("ACT"),
                    Value::str("<SPEAKER>OPHELIA</SPEAKER>"),
                    Value::str("<LINE>my lord</LINE>"),
                ],
                vec![
                    Value::Int(12),
                    Value::Int(2),
                    Value::str("ACT"),
                    Value::str("<SPEAKER>HAMLET</SPEAKER><SPEAKER>HORATIO</SPEAKER>"),
                    Value::str("<LINE>to arms, friend</LINE>"),
                ],
            ],
        )
        .unwrap();
    }

    #[test]
    fn create_insert_select() {
        let (_dir, db) = db("basic");
        setup_speech(&db);
        let r = db.query("SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn i64_extreme_literals_round_trip() {
        // Regression: `-9223372036854775808` used to fail with `bad
        // number` because the magnitude was parsed as i64 before the
        // unary minus was folded in.
        let (_dir, db) = db("i64min");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({}), ({}), (0)", i64::MIN, i64::MAX)).unwrap();
        let r = db.query(&format!("SELECT a FROM t WHERE a = {}", i64::MIN)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MIN)]]);
        let r = db.query("SELECT a FROM t WHERE a < 0").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MIN)]]);
        let r = db.query(&format!("SELECT a FROM t WHERE a = {}", i64::MAX)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MAX)]]);
        // One past either end is a parse error, not a panic or wrap.
        assert!(db.query("SELECT a FROM t WHERE a = 9223372036854775808").is_err());
        assert!(db.query("SELECT a FROM t WHERE a = -9223372036854775809").is_err());
    }

    #[test]
    fn sql_insert_and_scalar() {
        let (_dir, db) = db("sqlinsert");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)").unwrap();
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let r = db.query("SELECT COUNT(b) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn xadt_methods_in_sql() {
        let (_dir, db) = db("xadtsql");
        setup_speech(&db);
        // The paper's QE1 shape.
        let r = db
            .query(
                "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') \
                 FROM speech, act \
                 WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1 \
                 AND findKeyInElm(speech_line, 'LINE', 'friend') = 1 \
                 AND speech_parentID = actID \
                 AND speech_parentCODE = 'ACT'",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        let frags: Vec<String> =
            r.rows.iter().map(|row| row[0].as_xadt().unwrap().to_plain().into_owned()).collect();
        assert!(frags.contains(&"<LINE>my good friend</LINE>".to_string()));
        assert!(frags.contains(&"<LINE>to arms, friend</LINE>".to_string()));
    }

    #[test]
    fn unnest_in_sql_figure_9() {
        let (_dir, db) = db("unnest9");
        db.execute("CREATE TABLE speakers (speaker XADT)").unwrap();
        db.execute(
            "INSERT INTO speakers VALUES \
             ('<speaker>s1</speaker><speaker>s2</speaker>'), ('<speaker>s1</speaker>')",
        )
        .unwrap();
        let before = db.query("SELECT speaker FROM speakers").unwrap();
        assert_eq!(before.len(), 2);
        let after = db
            .query(
                "SELECT DISTINCT u.out AS SPEAKER \
                 FROM speakers, TABLE(unnest(speaker, 'speaker')) u",
            )
            .unwrap();
        assert_eq!(after.len(), 2, "Figure 9(b): two distinct speakers");
    }

    #[test]
    fn joins_with_index_and_without() {
        let (_dir, db) = db("joins");
        setup_speech(&db);
        let sql = "SELECT act_title, speechID FROM speech, act \
                   WHERE speech_parentID = actID";
        let r1 = db.query(sql).unwrap();
        assert_eq!(r1.len(), 3);
        // With an index present the answer is unchanged (tiny tables may
        // legitimately still plan a hash join under the cost model).
        db.execute("CREATE INDEX speech_parent ON speech (speech_parentID)").unwrap();
        db.runstats_all().unwrap();
        let r2 = db.query(sql).unwrap();
        let norm = |mut r: QueryResult| {
            r.rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            r.rows
        };
        assert_eq!(norm(r1), norm(r2));
    }

    #[test]
    fn cost_model_picks_index_nlj_for_selective_probes() {
        let (_dir, db) = db("costnlj");
        db.execute("CREATE TABLE parent (pid INTEGER, tag VARCHAR)").unwrap();
        db.execute("CREATE TABLE child (cid INTEGER, c_parent INTEGER, payload VARCHAR)").unwrap();
        let parents: Vec<Row> =
            (0..200).map(|i| vec![Value::Int(i), Value::str(format!("tag{i}"))]).collect();
        db.insert_rows("parent", parents).unwrap();
        let children: Vec<Row> = (0..8000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 200),
                    Value::str(format!("some filler payload text {i}")),
                ]
            })
            .collect();
        db.insert_rows("child", children).unwrap();
        db.execute("CREATE INDEX child_parent ON child (c_parent)").unwrap();
        db.runstats_all().unwrap();
        // One selective parent probing a large indexed child: index NLJ.
        let sql = "SELECT cid FROM parent, child \
                   WHERE tag = 'tag7' AND c_parent = pid";
        let explain = db.explain(sql).unwrap().join("\n");
        assert!(explain.contains("index-nested-loop"), "expected index NLJ in: {explain}");
        let r = db.query(sql).unwrap();
        assert_eq!(r.len(), 40);
        // An unselective outer flips to a hash join.
        let sql_all = "SELECT cid FROM parent, child WHERE c_parent = pid";
        let explain = db.explain(sql_all).unwrap().join("\n");
        assert!(explain.contains("hash join"), "expected hash join in: {explain}");
        assert_eq!(db.query(sql_all).unwrap().len(), 8000);
    }

    #[test]
    fn group_by_and_order() {
        let (_dir, db) = db("groupby");
        setup_speech(&db);
        let r = db
            .query(
                "SELECT speech_parentID, COUNT(*) FROM speech \
                 GROUP BY speech_parentID ORDER BY speech_parentID",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), Value::Int(1)],]
        );
    }

    #[test]
    fn like_predicate() {
        let (_dir, db) = db("like");
        setup_speech(&db);
        let r = db
            .query("SELECT speechID FROM speech WHERE xtext(speech_line) LIKE '%friend%'")
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = TempDir::new("ordb-db-reopen").unwrap();
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, x XADT)").unwrap();
            db.execute("CREATE INDEX t_a ON t (a)").unwrap();
            db.execute("INSERT INTO t VALUES (7, '<e>seven</e>')").unwrap();
            db.flush().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.table_count(), 1);
            let r = db.query("SELECT x FROM t WHERE a = 7").unwrap();
            assert_eq!(r.len(), 1);
            assert_eq!(r.rows[0][0].as_xadt().unwrap().to_plain(), "<e>seven</e>");
        }
    }

    #[test]
    fn second_open_of_a_live_directory_is_refused() {
        let (dir, db) = db("lock");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        match Database::open(&dir) {
            Err(DbError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "{e}"),
            Err(e) => panic!("want a lock error, got {e:?}"),
            Ok(_) => panic!("two handles must not share one directory"),
        }
        // The refused open left the owner untouched.
        db.insert_rows("t", vec![vec![Value::Int(1)]]).unwrap();
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.row_count("t").unwrap(), 1, "dropping the owner releases the lock");
    }

    #[test]
    fn sizes_grow_with_data() {
        let (_dir, db) = db("sizes");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        let d0 = db.data_size_bytes().unwrap();
        let rows: Vec<Row> =
            (0..5000).map(|i| vec![Value::Int(i), Value::str(format!("row number {i}"))]).collect();
        db.insert_rows("t", rows).unwrap();
        db.flush().unwrap();
        assert!(db.data_size_bytes().unwrap() > d0);
        assert!(db.index_size_bytes().unwrap() > 0);
        assert_eq!(db.row_count("t").unwrap(), 5000);
    }

    #[test]
    fn type_checking_on_insert() {
        let (_dir, db) = db("typecheck");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(db.insert_rows("t", vec![vec![Value::str("no")]]).is_err());
        assert!(db.insert_rows("t", vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        assert!(db.insert_rows("t", vec![vec![Value::Null]]).is_ok());
    }

    #[test]
    fn index_backfill_after_load() {
        let (_dir, db) = db("backfill");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..100).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.runstats("t").unwrap();
        let explain = db.explain("SELECT a FROM t WHERE a = 42").unwrap().join("");
        assert!(explain.contains("IndexScan"), "{explain}");
        let r = db.query("SELECT a FROM t WHERE a = 42").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(42)]]);
    }

    #[test]
    fn cold_queries_after_drop_cache() {
        let (_dir, db) = db("cold");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..2000).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        db.flush().unwrap();
        db.drop_cache().unwrap();
        db.take_io_stats();
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2000)));
        let io = db.take_io_stats();
        assert!(io.misses > 0, "cold run must read from disk: {io:?}");
    }

    #[test]
    fn lateral_unnest_of_computed_expression() {
        let (_dir, db) = db("lateralexpr");
        db.execute("CREATE TABLE pp (sList XADT)").unwrap();
        db.execute(
            "INSERT INTO pp VALUES ('<sList><sListTuple><sectionName>Query Processing</sectionName><articles><aTuple><title>On Joins</title><authors><author>A</author><author>B</author></authors></aTuple></articles></sListTuple></sList>')",
        )
        .unwrap();
        // QG1 shape: authors of papers with 'Join' in the title.
        let r = db
            .query(
                "SELECT u.out FROM pp, \
                 TABLE(unnest(getElm(sList, 'aTuple', 'title', 'Join'), 'author')) u",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn delete_with_predicate_maintains_indexes() {
        let (_dir, db) = db("delete");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.insert_rows(
            "t",
            (0..100).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]).collect(),
        )
        .unwrap();
        let n = db.execute("DELETE FROM t WHERE a >= 50").unwrap();
        assert_eq!(n, 50);
        assert_eq!(db.row_count("t").unwrap(), 50);
        // Index agrees with the heap after the delete.
        db.runstats("t").unwrap();
        let r = db.query("SELECT COUNT(*) FROM t WHERE a = 75").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = db.query("SELECT COUNT(*) FROM t WHERE a = 25").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        // Unconditional delete empties the table.
        assert_eq!(db.execute("DELETE FROM t").unwrap(), 50);
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn drop_table_and_index() {
        let (_dir, db) = db("drop");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("DROP INDEX t_a").unwrap();
        assert!(db.query("SELECT a FROM t WHERE a = 1").is_ok());
        db.execute("DROP TABLE t").unwrap();
        assert!(db.query("SELECT a FROM t").is_err());
        // Recreating under the same name works.
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let (_dir, db) = db("explainsql");
        setup_speech(&db);
        let r = db.query("EXPLAIN SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        assert_eq!(r.columns, vec!["plan".to_string()]);
        assert!(!r.rows.is_empty());
        let text = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect::<Vec<_>>().join("\n");
        assert!(text.contains("scan speech"), "{text}");
    }

    #[test]
    fn explain_analyze_matches_query_for_join() {
        let (_dir, db) = db("analyzejoin");
        setup_speech(&db);
        let sql = "SELECT act_title, speechID FROM speech, act \
                   WHERE speech_parentID = actID";
        let plain = db.query(sql).unwrap();
        let report = db.explain_analyze(sql).unwrap();
        assert_eq!(report.result.len(), plain.len());
        assert_eq!(report.metrics.rows, plain.len() as u64);
        let root = report.metrics.root.as_ref().expect("profiled plan");
        assert_eq!(root.rows_out, plain.len() as u64, "root emits the result rows");
        // The rendered tree mentions both scans and the join.
        let text = report.metrics.render();
        assert!(text.contains("speech"), "{text}");
        assert!(text.contains("act"), "{text}");
        assert!(text.contains("Join"), "{text}");
    }

    #[test]
    fn explain_analyze_matches_query_for_unnest() {
        let (_dir, db) = db("analyzeunnest");
        db.execute("CREATE TABLE speakers (speaker XADT)").unwrap();
        db.execute(
            "INSERT INTO speakers VALUES \
             ('<s>s1</s><s>s2</s>'), ('<s>s1</s>')",
        )
        .unwrap();
        let sql = "SELECT DISTINCT u.out AS SPEAKER \
                   FROM speakers, TABLE(unnest(speaker, 's')) u";
        let plain = db.query(sql).unwrap();
        let report = db.explain_analyze(sql).unwrap();
        assert_eq!(plain.len(), 2);
        assert_eq!(report.result.len(), plain.len());
        assert_eq!(report.metrics.rows, plain.len() as u64);
        // Two outer rows were unnested, over non-empty fragments.
        assert_eq!(report.metrics.engine.unnest_calls, 2);
        assert!(report.metrics.engine.unnest_bytes > 0);
        let text = report.metrics.render();
        assert!(text.contains("UnnestScan"), "{text}");
        assert!(text.contains("Distinct"), "{text}");
    }

    #[test]
    fn explain_analyze_counts_udf_calls() {
        let (_dir, db) = db("analyzeudf");
        setup_speech(&db);
        let report = db
            .explain_analyze(
                "SELECT speechID FROM speech \
                 WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1",
            )
            .unwrap();
        let fk = report
            .metrics
            .udfs
            .iter()
            .find(|u| u.name == "findKeyInElm")
            .expect("findKeyInElm counted");
        assert_eq!(fk.calls, 3, "called once per speech row");
        assert!(fk.marshalled_bytes > 0, "UDF path marshals scalar args");
    }

    #[test]
    fn warm_scan_improves_hit_ratio() {
        let (_dir, db) = db("warmscan");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.insert_rows(
            "t",
            (0..4000)
                .map(|i| vec![Value::Int(i), Value::str(format!("payload row {i}"))])
                .collect(),
        )
        .unwrap();
        db.flush().unwrap();
        db.drop_cache().unwrap();
        let sql = "SELECT COUNT(*) FROM t";
        let cold = db.explain_analyze(sql).unwrap().metrics.pool;
        let warm = db.explain_analyze(sql).unwrap().metrics.pool;
        assert!(cold.misses > 0, "cold scan reads from disk: {cold:?}");
        assert!(
            warm.hit_ratio() > cold.hit_ratio(),
            "warm repeat must hit the pool: cold {cold:?}, warm {warm:?}"
        );
        assert_eq!(warm.misses, 0, "fully cached on the warm run: {warm:?}");
    }

    #[test]
    fn drop_cache_writebacks_not_charged_to_next_window() {
        let (_dir, db) = db("dropchargewindow");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..500).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        // Dirty frames exist now; open a fresh window, then drop the cache.
        db.take_io_stats();
        db.drop_cache().unwrap();
        let window = db.take_io_stats();
        assert_eq!(
            window.writebacks, 0,
            "cache-teardown flushes must not land in the measurement window: {window:?}"
        );
        // An explicit flush IS charged.
        db.insert_rows("t", vec![vec![Value::Int(9999)]]).unwrap();
        db.flush().unwrap();
        assert!(db.take_io_stats().writebacks > 0);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let (_dir, db) = db("orderlimit");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..10).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let r = db.query("SELECT a FROM t ORDER BY a DESC LIMIT 3").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(9)], vec![Value::Int(8)], vec![Value::Int(7)]]);
    }

    #[test]
    fn explain_performs_zero_pool_fetches() {
        // Regression: operator builds used to run at construction time,
        // so EXPLAIN did real heap scans and hash-table builds just to
        // print the plan.
        let (_dir, db) = db("explainnofetch");
        setup_speech(&db);
        db.execute("CREATE INDEX idx_parent ON speech (speech_parentID)").unwrap();
        db.flush().unwrap();
        db.drop_cache().unwrap();
        db.take_io_stats();
        for sql in [
            "EXPLAIN SELECT speechID FROM speech WHERE speech_parentID = 1",
            "EXPLAIN SELECT s.speechID, a.act_title FROM speech s, act a \
             WHERE s.speech_parentID = a.actID",
            "EXPLAIN SELECT COUNT(*) FROM speech s, act a \
             WHERE s.speech_parentID = a.actID AND a.act_title = 'Act I'",
        ] {
            let plan = db.query(sql).unwrap();
            assert!(!plan.rows.is_empty(), "plan rows for {sql}");
        }
        let window = db.take_io_stats();
        assert_eq!(window.fetches(), 0, "EXPLAIN must touch zero pages: {window:?}");
    }

    #[test]
    fn explain_seq_scan_plan_performs_zero_pool_fetches() {
        // Regression: SeqScan buffers a whole heap page per fetch, and
        // that first fetch must wait for the first next(), or EXPLAIN
        // would read the heap just to print a plan.
        let (_dir, db) = db("explainseqnofetch");
        setup_speech(&db);
        db.flush().unwrap();
        db.drop_cache().unwrap();
        db.take_io_stats();
        for sql in [
            "SELECT speechID FROM speech WHERE speech_parentID = 1",
            "SELECT s.speechID, a.act_title FROM speech s, act a \
             WHERE s.speech_parentID = a.actID",
        ] {
            let plan = db.explain(sql).unwrap();
            assert!(
                plan.iter().any(|l| l.contains("SeqScan")),
                "no index, so a seq scan: {plan:?}"
            );
        }
        let window = db.take_io_stats();
        assert_eq!(window.fetches(), 0, "EXPLAIN must touch zero pages: {window:?}");
    }

    #[test]
    fn commit_then_crash_recovers_everything() {
        // Load + commit, then "crash" (abandon the handle so nothing
        // flushes): the data files never saw the committed pages. Reopen
        // must replay them all from the WAL.
        let dir = TempDir::new("ordb-db-crashrec").unwrap();
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
            db.execute("CREATE INDEX t_a ON t (a)").unwrap();
            db.insert_rows(
                "t",
                (0..500).map(|i| vec![Value::Int(i), Value::str(format!("row {i}"))]).collect(),
            )
            .unwrap();
            let logged = db.commit().unwrap();
            assert!(logged > 0, "dirty pages must be logged at commit");
            db.abandon();
        }
        {
            let db = Database::open(&dir).unwrap();
            let rec = db.recovery_report().expect("wal existed");
            assert!(rec.replayed_pages > 0, "crash lost data pages: {rec:?}");
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
                Some(&Value::Int(500))
            );
            db.runstats("t").unwrap();
            let r = db.query("SELECT b FROM t WHERE a = 123").unwrap();
            assert_eq!(r.rows, vec![vec![Value::str("row 123")]]);
        }
    }

    #[test]
    fn torn_page_repaired_from_wal_not_served_as_garbage() {
        // Corrupt a data page on disk after a clean close. Because the
        // close checkpoint truncated the WAL, re-log the pages first by
        // committing without checkpointing — then tear. Reopen must
        // restore the page from the log, and the query result must be
        // exactly the pre-corruption answer.
        let dir = TempDir::new("ordb-db-torn").unwrap();
        let file_id;
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..300).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            file_id = db.table_def("t").unwrap().file;
            db.commit().unwrap(); // WAL holds every page image
            db.flush().unwrap(); // data file holds them too
            db.abandon(); // no checkpoint: the WAL survives
        }
        // Tear the first data page: garbage second half.
        let path = file_path(&dir, file_id);
        let mut raw = std::fs::read(&path).unwrap();
        for b in raw.iter_mut().take(crate::storage::page::PAGE_SIZE).skip(2048) {
            *b = 0xA5;
        }
        std::fs::write(&path, &raw).unwrap();
        {
            let db = Database::open(&dir).unwrap();
            let rec = db.recovery_report().expect("wal existed");
            assert!(rec.replayed_pages >= 1, "torn page must be replayed: {rec:?}");
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
                Some(&Value::Int(300))
            );
            let r = db.query("SELECT COUNT(*) FROM t WHERE a < 10").unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(10)));
        }
    }

    #[test]
    fn corruption_without_wal_is_detected_not_served() {
        // Durability off: no WAL to repair from, but the page checksum
        // still turns silent corruption into a hard error.
        let dir = TempDir::new("ordb-db-nowal").unwrap();
        let opts = DbOptions { durability: false, ..Default::default() };
        let file_id;
        {
            let db = Database::open_with(&dir, opts.clone()).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..300).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            file_id = db.table_def("t").unwrap().file;
            db.close().unwrap();
            assert!(!dir.join("wal.log").exists(), "durability off must not write a log");
        }
        let path = file_path(&dir, file_id);
        let mut raw = std::fs::read(&path).unwrap();
        raw[777] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();
        {
            let db = Database::open_with(&dir, opts).unwrap();
            match db.query("SELECT COUNT(*) FROM t") {
                Err(DbError::Corrupt(_)) => {}
                other => panic!("bit flip must surface as Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn close_is_idempotent_and_drop_after_close_does_nothing() {
        let dir = TempDir::new("ordb-db-close").unwrap();
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..50).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            db.close().unwrap();
            // `close` consumed the handle; `Drop` already saw the closed
            // flag. A clean close leaves a checkpoint-only WAL.
        }
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(
            wal_len,
            crate::storage::wal::record_size(0) as u64,
            "clean close leaves a single checkpoint record"
        );
        {
            // Reopen after a clean close: nothing to replay.
            let db = Database::open(&dir).unwrap();
            let rec = db.recovery_report().expect("wal existed");
            assert_eq!(rec.replayed_pages, 0, "{rec:?}");
            assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar(), Some(&Value::Int(50)));
        }
    }

    #[test]
    fn drop_flushes_dirty_pages_best_effort() {
        // No explicit flush/close: Drop's checkpoint must still land the
        // rows (the drop_cache-teardown loss mode from the issue).
        let dir = TempDir::new("ordb-db-dropflush").unwrap();
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..200).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            // db dropped here without flush().
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
                Some(&Value::Int(200))
            );
        }
    }

    #[test]
    fn explain_analyze_reports_wal_delta_zero_for_reads() {
        let (_dir, db) = db("walmetrics");
        setup_speech(&db);
        db.commit().unwrap();
        let report = db.explain_analyze("SELECT COUNT(*) FROM speech").unwrap();
        assert_eq!(report.metrics.wal.appends, 0, "read-only query logs nothing");
        let j = report.metrics.to_json();
        assert!(j.contains("\"wal\":{"), "{j}");
    }

    #[test]
    fn concurrent_queries_match_single_threaded_baseline() {
        // N threads fire the same mixed read-only workload at one shared
        // Database; every thread must see exactly the single-threaded
        // results. Run with a tiny pool so eviction churn is constant.
        let dir = TempDir::new("ordb-db-concurrent").unwrap();
        let db =
            Database::open_with(&dir, DbOptions { pool_frames: 16, ..Default::default() }).unwrap();
        setup_speech(&db);
        db.execute("CREATE INDEX idx_parent ON speech (speech_parentID)").unwrap();
        let workload = [
            "SELECT speechID FROM speech WHERE speech_parentID = 1",
            "SELECT COUNT(*) FROM speech",
            "SELECT s.speechID, a.act_title FROM speech s, act a \
             WHERE s.speech_parentID = a.actID",
            "SELECT speechID FROM speech \
             WHERE xtext(speech_line) LIKE '%friend%'",
            "SELECT a.act_title, COUNT(*) FROM speech s, act a \
             WHERE s.speech_parentID = a.actID GROUP BY a.act_title",
        ];
        let baseline: Vec<_> = workload.iter().map(|sql| db.query(sql).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                let baseline = &baseline;
                s.spawn(move || {
                    for round in 0..10 {
                        // Stagger thread start points so different queries
                        // overlap in the pool and the btree latches.
                        let shift = (t + round) % workload.len();
                        for i in 0..workload.len() {
                            let idx = (i + shift) % workload.len();
                            let got = db.query(workload[idx]).unwrap();
                            let mut got_rows = got.rows;
                            let mut want_rows = baseline[idx].rows.clone();
                            got_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                            want_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                            assert_eq!(got_rows, want_rows, "query {idx} diverged on thread {t}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn query_emits_phase_and_operator_spans() {
        let _guard = crate::trace::span_test_lock();
        crate::trace::spans_enable(crate::trace::DEFAULT_SPAN_CAPACITY);
        crate::trace::spans_clear();
        let (_dir, db) = db("spans");
        setup_speech(&db);
        db.query("SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        db.commit().unwrap();
        let spans = crate::trace::spans_snapshot();
        crate::trace::spans_disable();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for phase in ["query", "parse", "plan", "exec", "commit"] {
            assert!(names.contains(&phase), "missing {phase} span in {names:?}");
        }
        // parse/plan/exec are children of the root query span.
        let query = spans.iter().find(|s| s.name == "query").unwrap();
        let kids = spans.iter().filter(|s| s.parent == Some(query.id)).count();
        assert!(kids >= 3, "query span has {kids} children, expected parse/plan/exec");
        // The plain query path still produced operator spans (scan at
        // least), parented into the span tree with a real timestamp.
        let scan = spans
            .iter()
            .find(|s| s.name.contains("Scan"))
            .unwrap_or_else(|| panic!("no operator span in {names:?}"));
        assert!(scan.parent.is_some(), "operator span must hang off the tree");
        assert!(scan.start_ns >= query.start_ns, "operator span uses the shared epoch");
    }

    #[test]
    fn metrics_snapshot_diff_counts_queries_and_latency() {
        let (_dir, db) = db("registry");
        setup_speech(&db);
        let before = db.metrics_snapshot();
        db.query("SELECT COUNT(*) FROM speech").unwrap();
        db.query("SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        db.explain_analyze("SELECT COUNT(*) FROM act").unwrap();
        let delta = db.metrics_snapshot().since(&before);
        assert_eq!(delta.queries, 3, "plain and instrumented paths both count");
        assert_eq!(delta.latency.count(), 3);
        assert!(delta.latency.p50() > 0, "latencies are non-zero nanoseconds");
        assert!(delta.latency.p999() >= delta.latency.p50());
        // The unified snapshot carries pool counters from the same window.
        assert!(delta.pool.fetches() > 0, "queries touch the buffer pool");
        let json = delta.to_json();
        assert!(json.contains("\"queries\":3"), "snapshot JSON: {json}");
    }

    fn setup_churn(db: &Database, rows: usize) {
        db.execute("CREATE TABLE churn (id INTEGER, payload VARCHAR)").unwrap();
        db.execute("CREATE INDEX churn_id ON churn (id)").unwrap();
        fill_churn(db, rows);
    }

    fn fill_churn(db: &Database, rows: usize) {
        let batch: Vec<Row> = (0..rows)
            .map(|i| {
                vec![Value::Int(i as i64), Value::str(format!("payload-{i:04}-{}", "x".repeat(80)))]
            })
            .collect();
        db.insert_rows("churn", batch).unwrap();
    }

    #[test]
    fn vacuum_reclaims_deleted_versions_and_footprint_stays_flat() {
        let (_dir, db) = db("vacuum-churn");
        setup_churn(&db, 200);
        // One full cycle first so the file reaches its steady-state size.
        db.execute("DELETE FROM churn").unwrap();
        let report = db.vacuum().unwrap();
        assert!(report.vacuumed_versions >= 200, "first pass reclaims: {report:?}");
        fill_churn(&db, 200);
        let steady = db.data_size_bytes().unwrap();
        for _ in 0..4 {
            db.execute("DELETE FROM churn").unwrap();
            let r = db.vacuum().unwrap();
            assert!(r.vacuumed_versions >= 200, "each pass reclaims the churn: {r:?}");
            fill_churn(&db, 200);
        }
        assert_eq!(
            db.data_size_bytes().unwrap(),
            steady,
            "vacuum + free-space reuse keeps the heap footprint flat under churn"
        );
        // The surviving data is intact and the index still agrees.
        assert_eq!(db.row_count("churn").unwrap(), 200);
        let r = db.query("SELECT payload FROM churn WHERE id = 7").unwrap();
        assert_eq!(r.len(), 1);
        // A second pass with nothing dead reclaims nothing.
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 0);
    }

    #[test]
    fn vacuum_sql_statement_reports_reclaimed_count() {
        let (_dir, db) = db("vacuum-sql");
        setup_speech(&db);
        db.execute("DELETE FROM speech WHERE speech_parentID = 1").unwrap();
        let reclaimed = db.execute("VACUUM").unwrap();
        assert_eq!(reclaimed, 2, "both deleted speeches are reclaimed");
        assert_eq!(db.execute("VACUUM").unwrap(), 0, "second pass finds nothing");
        assert_eq!(db.query("SELECT speechID FROM speech").unwrap().len(), 1);
    }

    #[test]
    fn open_transaction_pins_vacuum_watermark() {
        let (_dir, db) = db("vacuum-pin");
        setup_speech(&db);
        let t = db.begin_txn();
        db.execute("DELETE FROM speech").unwrap();
        let report = db.vacuum().unwrap();
        assert_eq!(
            report.vacuumed_versions, 0,
            "versions visible to the open snapshot survive: {report:?}"
        );
        let r = db.query_in("SELECT speechID FROM speech", None, Some(t)).unwrap();
        assert_eq!(r.len(), 3, "the pinned snapshot still reads the pre-delete rows");
        db.commit_txn(t).unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 3, "releasing the pin unblocks reclaim");
    }

    /// Runs `sql` under forced seq-scan and forced index-scan access and
    /// asserts both paths return the same rows. `speech` must carry an
    /// index on `speechID` and `sql` a sargable predicate on it.
    fn scans_agree(db: &Database, sql: &str, txn: Option<TxnId>) -> QueryResult {
        let forced = |access| PlanForcing { access: Some(access), ..PlanForcing::default() };
        let seq = db.query_in(sql, Some(forced(ForcedAccess::SeqScan)), txn).unwrap();
        let idx = db.query_in(sql, Some(forced(ForcedAccess::IndexScan)), txn).unwrap();
        assert_eq!(seq.rows, idx.rows, "seq scan diverged from index scan on {sql}");
        seq
    }

    #[test]
    fn seq_and_index_scans_respect_open_snapshot() {
        // The seq scan filters versions a whole page at a time; it must
        // match the index path's per-tuple visibility exactly:
        // uncommitted writes and post-snapshot commits stay invisible
        // under a pinned snapshot, and only the uncommitted ones under a
        // fresh autocommit snapshot.
        let (_dir, db) = db("scan-snapshot");
        setup_speech(&db);
        db.execute("CREATE INDEX idx_speech_id ON speech (speechID)").unwrap();
        let t = db.begin_txn();
        // Another connection inserts but never commits...
        let mut other = None;
        db.execute_txn("BEGIN", &mut other).unwrap();
        db.execute_txn(
            "INSERT INTO speech VALUES (13, 2, 'ACT', \
             '<SPEAKER>GHOST</SPEAKER>', '<LINE>mark me</LINE>')",
            &mut other,
        )
        .unwrap();
        // ...and an autocommit insert lands after the pinned snapshot.
        db.execute(
            "INSERT INTO speech VALUES (14, 2, 'ACT', \
             '<SPEAKER>MARCELLUS</SPEAKER>', '<LINE>peace, break thee off</LINE>')",
        )
        .unwrap();
        let check = |txn: Option<TxnId>, want: usize, label: &str| {
            let sql = "SELECT speechID, speech_speaker FROM speech WHERE speechID >= 0 \
                       ORDER BY speechID";
            assert_eq!(scans_agree(&db, sql, txn).len(), want, "{label}");
        };
        check(Some(t), 3, "pinned snapshot hides uncommitted and post-BEGIN rows");
        check(None, 4, "fresh snapshot hides only the uncommitted insert");
        db.execute_txn("ROLLBACK", &mut other).unwrap();
        db.commit_txn(t).unwrap();
        check(None, 4, "rollback leaves the aborted insert invisible to both paths");
    }

    #[test]
    fn seq_scan_hides_vacuumed_versions_like_index_scan() {
        // Deleted-but-pinned versions must survive for the seq scan
        // exactly as for the index path, and once vacuum reclaims them
        // both paths agree the table is empty.
        let (_dir, db) = db("scan-vacuum");
        setup_speech(&db);
        db.execute("CREATE INDEX idx_speech_id ON speech (speechID)").unwrap();
        let check = |txn: Option<TxnId>, want: usize, label: &str| {
            let sql = "SELECT speechID, speech_line FROM speech WHERE speechID >= 0 \
                       ORDER BY speechID";
            assert_eq!(scans_agree(&db, sql, txn).len(), want, "{label}");
        };
        let t = db.begin_txn();
        db.execute("DELETE FROM speech").unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 0, "open snapshot blocks reclaim");
        check(Some(t), 3, "pinned snapshot still reads the deleted versions");
        check(None, 0, "fresh snapshot sees the delete");
        db.commit_txn(t).unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 3, "commit releases the pin");
        check(None, 0, "post-vacuum both paths agree the table is empty");
    }

    #[test]
    fn auto_vacuum_runs_on_checkpoint_after_deletes() {
        let (_dir, db) = db("vacuum-auto");
        setup_speech(&db);
        db.execute("DELETE FROM speech").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            db.vacuum().unwrap().vacuumed_versions,
            0,
            "checkpoint's auto-vacuum already reclaimed the deletes"
        );
    }

    #[test]
    fn auto_vacuum_off_leaves_dead_versions_for_manual_pass() {
        let dir = TempDir::new("ordb-db-vacuum-manual").unwrap();
        let opts = DbOptions { auto_vacuum: false, ..DbOptions::default() };
        let db = Database::open_with(&dir, opts).unwrap();
        setup_speech(&db);
        db.execute("DELETE FROM speech").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            db.vacuum().unwrap().vacuumed_versions,
            3,
            "with auto_vacuum off the dead versions wait for a manual pass"
        );
    }

    #[test]
    fn vacuum_frees_overflow_chains_and_survives_reopen() {
        let dir = TempDir::new("ordb-db-vacuum-reopen").unwrap();
        let db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE blobs (id INTEGER, body VARCHAR)").unwrap();
        let big: Vec<Row> =
            (0..8).map(|i| vec![Value::Int(i), Value::str("y".repeat(6000))]).collect();
        db.insert_rows("blobs", big).unwrap();
        db.execute("DELETE FROM blobs WHERE id < 6").unwrap();
        let report = db.vacuum().unwrap();
        assert_eq!(report.vacuumed_versions, 6);
        assert!(report.freed_pages > 0, "overflow chains return whole pages: {report:?}");
        db.close().unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.row_count("blobs").unwrap(), 2);
        let r = db.query("SELECT id FROM blobs").unwrap();
        assert_eq!(r.len(), 2);
        // Freed overflow pages are reused by fresh inserts after reopen.
        let before = db.data_size_bytes().unwrap();
        db.insert_rows("blobs", vec![vec![Value::Int(100), Value::str("z".repeat(6000))]]).unwrap();
        assert_eq!(db.data_size_bytes().unwrap(), before, "reopen rebuilds the free-space map");
    }
}
