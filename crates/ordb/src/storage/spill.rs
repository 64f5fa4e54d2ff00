//! Spill-to-disk temp files for memory-bounded operators.
//!
//! When a blocking operator (sort, hash join, aggregation) exceeds its
//! memory budget it writes intermediate rows into spill files managed
//! here. Spill data is transient by construction — it never outlives the
//! query — so it deliberately bypasses both the buffer pool (caching a
//! sequential one-shot stream would only evict useful pages) and the WAL
//! (a crash discards the query anyway). I/O goes through [`PAGE_SIZE`]-
//! buffered sequential reads and writes on the same page-granular disk
//! layout as the rest of the storage layer.
//!
//! Record format: each row is framed as `u32 LE payload length` followed
//! by the [`crate::tuple::encode_row`] payload, the same self-describing
//! field encoding heap tuples use.
//!
//! Cleanup is RAII: a [`SpillFile`] deletes its backing file on `Drop`,
//! and a [`SpillWriter`] dropped before `finish()` (the error path) does
//! the same. Operators own their spill files, queries own their
//! operators, so dropping a query — normally or on error — removes every
//! temp file it created.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{DbError, Result};
use crate::storage::page::PAGE_SIZE;
use crate::tuple::{decode_row, encode_row};
use crate::types::{Row, Value};

/// Per-query memory policy handed to blocking operators: an optional
/// budget in bytes plus the spill manager to use on overflow.
///
/// The budget bounds each operator's working set (measured as encoded
/// row bytes via [`crate::tuple::encoded_len`]); `None` means unbounded,
/// which reproduces the historical all-in-memory behaviour exactly.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Per-operator working-set bound in bytes; `None` = unbounded.
    pub budget: Option<usize>,
    /// Where overflow rows go.
    pub manager: Arc<SpillManager>,
}

impl SpillConfig {
    /// True when `bytes` exceeds the budget (never for unbounded).
    pub fn over(&self, bytes: usize) -> bool {
        self.budget.is_some_and(|b| bytes > b)
    }

    /// An unbounded config for operator tests. It never spills, so its
    /// manager's directory is never created.
    #[cfg(test)]
    pub(crate) fn unbounded() -> SpillConfig {
        let manager = Arc::new(SpillManager::new(std::env::temp_dir().join("ordb-never-spills")));
        SpillConfig { budget: None, manager }
    }
}

/// Partition fan-out of one spill split (Grace join, aggregation
/// overflow). 8 partitions cut the working set ~8× per level; with
/// [`MAX_SPILL_DEPTH`] that bounds effective partitioning at 8⁴ = 4096.
pub const SPILL_FANOUT: usize = 8;

/// Maximum partition recursion depth. A partition still over budget at
/// this depth (pathological skew — e.g. one key holding most rows,
/// which no hash can split) is processed in memory.
pub const MAX_SPILL_DEPTH: usize = 4;

/// Which partition `key` belongs to. The hash is seeded by the
/// recursion depth so a partition that recurses actually redistributes
/// its keys instead of mapping them all back into one bucket.
pub fn partition_of(key: &[Value], depth: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(depth as u64 + 1).hash(&mut h);
    key.hash(&mut h);
    h.finish() as usize % SPILL_FANOUT
}

/// Hands out uniquely-named temp files under `<db dir>/spill/`.
///
/// Shared (via `Arc`) by every operator of every query on one database;
/// the directory is created lazily on first spill and file names are
/// drawn from an atomic counter, so concurrent queries never collide.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    next_id: AtomicU64,
}

impl SpillManager {
    /// Manager rooted at `dir` (conventionally `<db dir>/spill`). The
    /// directory is not created until the first file is.
    pub fn new(dir: impl Into<PathBuf>) -> SpillManager {
        SpillManager { dir: dir.into(), next_id: AtomicU64::new(0) }
    }

    /// Start a new spill file. Row arity is latched from the first row
    /// written (all rows of one file must agree).
    pub fn create(self: &Arc<Self>) -> Result<SpillWriter> {
        fs::create_dir_all(&self.dir)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("spill-{id}.tmp"));
        let file = File::create(&path)?;
        Ok(SpillWriter {
            file: Some(BufWriter::with_capacity(PAGE_SIZE, file)),
            path,
            arity: None,
            rows: 0,
            bytes: 0,
            buf: Vec::new(),
        })
    }

    /// Number of spill files currently on disk (tests assert this goes
    /// back to zero after queries finish or fail).
    pub fn live_files(&self) -> usize {
        match fs::read_dir(&self.dir) {
            Ok(rd) => rd.filter_map(|e| e.ok()).count(),
            Err(_) => 0,
        }
    }
}

/// Append-only writer for one spill file. Call [`SpillWriter::finish`]
/// to seal it into a readable [`SpillFile`]; dropping an unfinished
/// writer deletes the partial file.
pub struct SpillWriter {
    file: Option<BufWriter<File>>,
    path: PathBuf,
    arity: Option<usize>,
    rows: u64,
    bytes: u64,
    buf: Vec<u8>,
}

impl SpillWriter {
    /// Append one row. Counts the framed bytes into
    /// the statement's `spill_bytes`.
    pub fn add(&mut self, row: &[Value]) -> Result<()> {
        let arity = *self.arity.get_or_insert(row.len());
        debug_assert_eq!(row.len(), arity, "spill row arity mismatch");
        self.buf.clear();
        encode_row(row, &mut self.buf);
        let file = self.file.as_mut().expect("writer not finished");
        file.write_all(&(self.buf.len() as u32).to_le_bytes())?;
        file.write_all(&self.buf)?;
        let framed = 4 + self.buf.len() as u64;
        self.rows += 1;
        self.bytes += framed;
        crate::metrics::count(|s| s.engine.spill_bytes += framed);
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal into a [`SpillFile`].
    pub fn finish(mut self) -> Result<SpillFile> {
        let file = self.file.take().expect("finish once");
        file.into_inner().map_err(|e| DbError::Io(e.into_error()))?.flush()?;
        let sealed = SpillFile {
            path: std::mem::take(&mut self.path),
            arity: self.arity.unwrap_or(0),
            rows: self.rows,
            bytes: self.bytes,
        };
        // `self.file` is now None and `self.path` empty, so our Drop is a
        // no-op; the sealed handle owns cleanup from here.
        Ok(sealed)
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            // Unfinished (error path): remove the partial file.
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// A sealed spill file. Deleted from disk on `Drop`.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    arity: usize,
    rows: u64,
    bytes: u64,
}

impl SpillFile {
    /// Rows in the file.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Framed bytes in the file.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Open a sequential reader (the file can be read multiple times).
    pub fn open(&self) -> Result<SpillReader> {
        let file = File::open(&self.path)?;
        Ok(SpillReader {
            file: BufReader::with_capacity(PAGE_SIZE, file),
            arity: self.arity,
            remaining: self.rows,
            buf: Vec::new(),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Sequential reader over a sealed spill file.
pub struct SpillReader {
    file: BufReader<File>,
    arity: usize,
    remaining: u64,
    buf: Vec<u8>,
}

impl SpillReader {
    /// Read the next row, `None` at end of file.
    #[allow(clippy::should_implement_trait)] // fallible iterator, like HeapCursor
    pub fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut len = [0u8; 4];
        self.file.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        self.buf.resize(len, 0);
        self.file.read_exact(&mut self.buf)?;
        Ok(Some(decode_row(&self.buf, self.arity)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn manager(tag: &str) -> (Arc<SpillManager>, TempDir) {
        let dir = TempDir::new(&format!("ordb-spill-test-{tag}")).unwrap();
        (Arc::new(SpillManager::new(dir.path())), dir)
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("row-{i}"))]
    }

    #[test]
    fn rows_round_trip_in_order() {
        let (m, _dir) = manager("roundtrip");
        let mut w = m.create().unwrap();
        for i in 0..100 {
            w.add(&row(i)).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.rows(), 100);
        let mut r = f.open().unwrap();
        for i in 0..100 {
            assert_eq!(r.next().unwrap(), Some(row(i)));
        }
        assert_eq!(r.next().unwrap(), None);
        drop(f);
        assert_eq!(m.live_files(), 0);
    }

    #[test]
    fn sealed_file_is_deleted_on_drop() {
        let (m, _dir) = manager("drop");
        let mut w = m.create().unwrap();
        w.add(&[Value::Int(7)]).unwrap();
        let f = w.finish().unwrap();
        assert_eq!(m.live_files(), 1);
        drop(f);
        assert_eq!(m.live_files(), 0);
    }

    #[test]
    fn unfinished_writer_cleans_up() {
        let (m, _dir) = manager("abort");
        let mut w = m.create().unwrap();
        w.add(&[Value::Int(1)]).unwrap();
        assert_eq!(m.live_files(), 1);
        drop(w); // simulated error path: never finished
        assert_eq!(m.live_files(), 0);
    }

    #[test]
    fn file_can_be_read_twice() {
        let (m, _dir) = manager("reread");
        let mut w = m.create().unwrap();
        w.add(&[Value::str("x")]).unwrap();
        let f = w.finish().unwrap();
        for _ in 0..2 {
            let mut r = f.open().unwrap();
            assert_eq!(r.next().unwrap(), Some(vec![Value::str("x")]));
            assert_eq!(r.next().unwrap(), None);
        }
    }
}
