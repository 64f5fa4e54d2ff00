//! A paged B+Tree over the buffer pool.
//!
//! Design:
//!
//! * Page 0 of the index file is the **meta page**: `special1` holds the
//!   root page id, `special2` the entry count.
//! * **Leaf pages** (`special0 == 1`) store entries sorted by key;
//!   `special1` is the right-sibling page id (`NO_PAGE` at the right edge).
//!   Entry record: `u16 key_len | key bytes`. The *stored key* is the
//!   logical (column-encoded) key with the 8-byte big-endian RID appended,
//!   which makes every stored key unique — duplicate logical keys are
//!   handled uniformly, and the RID is recovered from the key suffix.
//! * **Internal pages** (`special0 == 2`) hold separator entries
//!   `u16 key_len | key | u32 child`; `special2` is the leftmost child.
//!   A lookup key `k` descends into the child of the rightmost separator
//!   `s ≤ k`, or the leftmost child when every separator exceeds `k`.
//!
//! Inserts split full nodes bottom-up (recursive); the root splits into a
//! new root. Deletes remove leaf entries without rebalancing (the paper's
//! workloads are load-then-query; space from deletions is reclaimed by
//! page compaction only).
//!
//! Concurrency: a tree-level reader/writer latch. Scans and lookups share
//! a read latch; structural mutation (`insert`, `delete`) takes the write
//! latch, so readers never observe a half-split node. The latch is taken
//! once at each public entry point — internal helpers are unlatched to
//! avoid recursive read-lock acquisition (unsafe with a queued writer).

use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{DbError, Result};
use crate::storage::buffer::{BufferPool, FileId, FrameRef};
use crate::storage::heap::Rid;
use crate::storage::page::Page;

const NO_PAGE: u32 = u32::MAX;
const KIND_LEAF: u32 = 1;
const KIND_INTERNAL: u32 = 2;
const KIND_META: u32 = 3;

/// Longest permissible logical key. Four entries must fit a page.
pub const MAX_KEY_LEN: usize = 1500;

/// Result of inserting into a subtree: optional (separator, new right
/// sibling) to push into the parent, plus whether a new entry was added.
type InsertOutcome = (Option<(Vec<u8>, u32)>, bool);

/// A B+Tree index handle.
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Tree-level reader/writer latch (see module docs).
    latch: RwLock<()>,
}

impl BTree {
    /// Create a fresh tree in an empty registered file. A file that
    /// already holds pages is an error: the tree's meta page must be
    /// page 0.
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        let tree = BTree { pool, file, latch: RwLock::new(()) };
        let (meta_pid, meta) = tree.pool.allocate(file)?;
        if meta_pid != 0 {
            return Err(DbError::Corrupt(format!(
                "index file {file} is not empty: its meta page would land on page {meta_pid}"
            )));
        }
        let (root_pid, root) = tree.pool.allocate(file)?;
        {
            let mut p = root.page.lock();
            p.set_special0(KIND_LEAF);
            p.set_special1(NO_PAGE);
            root.mark_dirty();
        }
        {
            let mut p = meta.page.lock();
            p.set_special0(KIND_META);
            p.set_special1(root_pid);
            p.set_special2(0);
            meta.mark_dirty();
        }
        Ok(tree)
    }

    /// Open an existing tree.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        let tree = BTree { pool, file, latch: RwLock::new(()) };
        let meta = tree.pool.fetch(file, 0)?;
        let kind = meta.page.lock().special0();
        if kind != KIND_META {
            return Err(DbError::Corrupt(format!("file {file} is not a B+Tree")));
        }
        Ok(tree)
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// On-disk size in bytes.
    pub fn size_bytes(&self) -> Result<u64> {
        self.pool.file_size(self.file)
    }

    /// Number of live entries.
    pub fn len(&self) -> Result<u64> {
        let _r = self.latch.read();
        let meta = self.pool.fetch(self.file, 0)?;
        let n = meta.page.lock().special2();
        Ok(u64::from(n))
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Physical entry count: walks every leaf and counts slots instead
    /// of trusting the cached metadata counter behind [`BTree::len`].
    /// Vacuum's equivalence checks use this as ground truth that the
    /// index shrank in step with the heap.
    pub fn entry_count(&self) -> Result<u64> {
        let mut n = 0u64;
        self.scan_from(&[], |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    fn root(&self) -> Result<u32> {
        let meta = self.pool.fetch(self.file, 0)?;
        let pid = meta.page.lock().special1();
        Ok(pid)
    }

    fn set_root(&self, pid: u32) -> Result<()> {
        let meta = self.pool.fetch(self.file, 0)?;
        meta.page.lock().set_special1(pid);
        meta.mark_dirty();
        Ok(())
    }

    fn bump_len(&self, delta: i64) -> Result<()> {
        let meta = self.pool.fetch(self.file, 0)?;
        let mut p = meta.page.lock();
        let n = p.special2() as i64 + delta;
        p.set_special2(n.max(0) as u32);
        meta.mark_dirty();
        Ok(())
    }

    /// Insert `(key, rid)`. Duplicate logical keys are allowed; the exact
    /// `(key, rid)` pair is stored at most once.
    pub fn insert(&self, key: &[u8], rid: Rid) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(DbError::Exec(format!(
                "index key of {} bytes exceeds the {MAX_KEY_LEN}-byte limit",
                key.len()
            )));
        }
        let stored = stored_key(key, rid);
        let _w = self.latch.write();
        let root = self.root()?;
        let (split, inserted) = self.insert_rec(root, &stored)?;
        if let Some((sep, new_pid)) = split {
            // Root split: build a new root above.
            let (new_root_pid, frame) = self.pool.allocate(self.file)?;
            {
                let mut p = frame.page.lock();
                p.set_special0(KIND_INTERNAL);
                p.set_special1(NO_PAGE);
                p.set_special2(root);
                let rec = internal_record(&sep, new_pid);
                p.insert(&rec).expect("two entries fit an empty internal page");
                frame.mark_dirty();
            }
            self.set_root(new_root_pid)?;
        }
        if inserted {
            self.bump_len(1)?;
        }
        Ok(())
    }

    /// Returns (split info, whether a new entry was actually inserted).
    fn insert_rec(&self, pid: u32, stored: &[u8]) -> Result<InsertOutcome> {
        let frame = self.pool.fetch(self.file, pid)?;
        let kind = frame.page.lock().special0();
        match kind {
            KIND_LEAF => self.insert_leaf(&frame, pid, stored),
            KIND_INTERNAL => {
                let (child, _child_idx) = {
                    let p = frame.page.lock();
                    find_child(&p, stored)
                };
                drop(frame);
                let (split, inserted) = self.insert_rec(child, stored)?;
                let Some((sep, new_pid)) = split else {
                    return Ok((None, inserted));
                };
                let frame = self.pool.fetch(self.file, pid)?;
                let up = self.insert_internal(&frame, &sep, new_pid)?;
                Ok((up, inserted))
            }
            other => Err(DbError::Corrupt(format!("page {pid} has bad node kind {other}"))),
        }
    }

    fn insert_leaf(&self, frame: &FrameRef, _pid: u32, stored: &[u8]) -> Result<InsertOutcome> {
        let mut p = frame.page.lock();
        let pos = match leaf_position(&p, stored) {
            Ok(_) => return Ok((None, false)), // exact (key, rid) already present
            Err(pos) => pos,
        };
        let rec = leaf_record(stored);
        if p.insert_at(pos, &rec).is_some() {
            frame.mark_dirty();
            return Ok((None, true));
        }
        // Split: gather all records (plus the new one) and redistribute.
        let mut records: Vec<Vec<u8>> =
            (0..p.slot_count()).filter_map(|i| p.get(i).map(<[u8]>::to_vec)).collect();
        records.insert(pos, rec);
        let mid = records.len() / 2;
        let right_records = records.split_off(mid);
        let sep = leaf_key(&right_records[0]).to_vec();

        let old_sibling = p.special1();
        let (right_pid, right_frame) = {
            // Allocating while holding the page lock is safe: the pool
            // never touches page contents during allocation.
            self.pool.allocate(self.file)?
        };
        {
            let mut rp = right_frame.page.lock();
            rp.set_special0(KIND_LEAF);
            rp.set_special1(old_sibling);
            for r in &right_records {
                rp.insert(r).expect("half the records fit a fresh page");
            }
            right_frame.mark_dirty();
        }
        let mut fresh = Page::new();
        fresh.set_special0(KIND_LEAF);
        fresh.set_special1(right_pid);
        for r in &records {
            fresh.insert(r).expect("half the records fit a fresh page");
        }
        *p = fresh;
        frame.mark_dirty();
        Ok((Some((sep, right_pid)), true))
    }

    fn insert_internal(
        &self,
        frame: &FrameRef,
        sep: &[u8],
        new_child: u32,
    ) -> Result<Option<(Vec<u8>, u32)>> {
        let mut p = frame.page.lock();
        // Position: first separator greater than `sep`.
        let n = p.slot_count();
        let mut pos = n;
        for i in 0..n {
            let rec = p.get(i).expect("internal slots are live");
            if internal_key(rec) > sep {
                pos = i;
                break;
            }
        }
        let rec = internal_record(sep, new_child);
        if p.insert_at(pos, &rec).is_some() {
            frame.mark_dirty();
            return Ok(None);
        }
        // Split the internal node; the middle separator moves up.
        let mut records: Vec<Vec<u8>> =
            (0..p.slot_count()).filter_map(|i| p.get(i).map(<[u8]>::to_vec)).collect();
        records.insert(pos, rec);
        let mid = records.len() / 2;
        let promoted = records[mid].clone();
        let promoted_key = internal_key(&promoted).to_vec();
        let promoted_child = internal_child(&promoted);
        let right_records: Vec<Vec<u8>> = records[mid + 1..].to_vec();
        let left_records: Vec<Vec<u8>> = records[..mid].to_vec();

        let (right_pid, right_frame) = self.pool.allocate(self.file)?;
        {
            let mut rp = right_frame.page.lock();
            rp.set_special0(KIND_INTERNAL);
            rp.set_special1(NO_PAGE);
            rp.set_special2(promoted_child);
            for r in &right_records {
                rp.insert(r).expect("half the records fit a fresh page");
            }
            right_frame.mark_dirty();
        }
        let leftmost = p.special2();
        let mut fresh = Page::new();
        fresh.set_special0(KIND_INTERNAL);
        fresh.set_special1(NO_PAGE);
        fresh.set_special2(leftmost);
        for r in &left_records {
            fresh.insert(r).expect("half the records fit a fresh page");
        }
        *p = fresh;
        frame.mark_dirty();
        Ok(Some((promoted_key, right_pid)))
    }

    /// Remove the exact `(key, rid)` entry. Returns whether it existed.
    pub fn delete(&self, key: &[u8], rid: Rid) -> Result<bool> {
        let stored = stored_key(key, rid);
        let _w = self.latch.write();
        let (pid, _) = self.find_leaf(&stored)?;
        let frame = self.pool.fetch(self.file, pid)?;
        let mut p = frame.page.lock();
        match leaf_position(&p, &stored) {
            Ok(idx) => {
                p.remove_slot(idx);
                p.compact();
                frame.mark_dirty();
                drop(p);
                self.bump_len(-1)?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Descend to the leaf that would contain `stored`; returns
    /// (leaf pid, entry index of the first entry ≥ `stored`).
    fn find_leaf(&self, stored: &[u8]) -> Result<(u32, usize)> {
        let mut pid = self.root()?;
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            match p.special0() {
                KIND_LEAF => {
                    let idx = match leaf_position(&p, stored) {
                        Ok(i) | Err(i) => i,
                    };
                    return Ok((pid, idx));
                }
                KIND_INTERNAL => {
                    let (child, _) = find_child(&p, stored);
                    drop(p);
                    pid = child;
                }
                other => {
                    return Err(DbError::Corrupt(format!("page {pid} has bad node kind {other}")))
                }
            }
        }
    }

    /// Scan logical keys in `[lo, ..)`, calling `f(logical_key, rid)` until
    /// it returns `false` or keys are exhausted. The caller terminates the
    /// scan through the callback (e.g. when past an upper bound).
    pub fn scan_from(&self, lo: &[u8], f: impl FnMut(&[u8], Rid) -> Result<bool>) -> Result<()> {
        let _r = self.latch.read();
        self.scan_from_inner(lo, f)
    }

    /// `scan_from` without the latch, for latched callers.
    fn scan_from_inner(
        &self,
        lo: &[u8],
        mut f: impl FnMut(&[u8], Rid) -> Result<bool>,
    ) -> Result<()> {
        // One probe = one descent; prefix and range scans both land here.
        crate::metrics::count(|s| s.engine.index_probes += 1);
        let (mut pid, mut idx) = self.find_leaf(lo)?;
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            let n = p.slot_count();
            while idx < n {
                let rec = p.get(idx).expect("leaf slots are live");
                let stored = leaf_key(rec);
                let (logical, rid) = split_stored(stored);
                if !f(logical, rid)? {
                    return Ok(());
                }
                idx += 1;
            }
            let next = p.special1();
            if next == NO_PAGE {
                return Ok(());
            }
            pid = next;
            idx = 0;
        }
    }

    /// All rids whose logical key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Rid>> {
        let _r = self.latch.read();
        let mut out = Vec::new();
        self.scan_from_inner(prefix, |key, rid| {
            if key.starts_with(prefix) {
                out.push(rid);
                Ok(true)
            } else {
                Ok(false)
            }
        })?;
        Ok(out)
    }

    /// All `(key, rid)` pairs with `lo ≤ key` and `key` within `hi`
    /// according to `hi_inclusive` / prefix semantics (see `plan`).
    pub fn scan_range(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        hi_inclusive: bool,
    ) -> Result<Vec<(Vec<u8>, Rid)>> {
        let _r = self.latch.read();
        let lo = lo.unwrap_or(&[]);
        let mut out = Vec::new();
        self.scan_from_inner(lo, |key, rid| {
            if let Some(hi) = hi {
                let within = if hi_inclusive { key <= hi || key.starts_with(hi) } else { key < hi };
                if !within {
                    return Ok(false);
                }
            }
            out.push((key.to_vec(), rid));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Tree height (1 = a single leaf). Diagnostic.
    pub fn height(&self) -> Result<u32> {
        let _r = self.latch.read();
        let mut pid = self.root()?;
        let mut h = 1;
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            if p.special0() == KIND_LEAF {
                return Ok(h);
            }
            let leftmost = p.special2();
            drop(p);
            pid = leftmost;
            h += 1;
        }
    }
}

// ---- record encodings -------------------------------------------------

/// Stored key = logical key ++ big-endian rid (unique).
fn stored_key(key: &[u8], rid: Rid) -> Vec<u8> {
    let mut v = Vec::with_capacity(key.len() + 8);
    v.extend_from_slice(key);
    v.extend_from_slice(&rid.to_u64().to_be_bytes());
    v
}

fn split_stored(stored: &[u8]) -> (&[u8], Rid) {
    let cut = stored.len() - 8;
    let rid = Rid::from_u64(u64::from_be_bytes(stored[cut..].try_into().unwrap()));
    (&stored[..cut], rid)
}

fn leaf_record(stored: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(2 + stored.len());
    v.extend_from_slice(&(stored.len() as u16).to_le_bytes());
    v.extend_from_slice(stored);
    v
}

fn leaf_key(rec: &[u8]) -> &[u8] {
    let len = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    &rec[2..2 + len]
}

fn internal_record(key: &[u8], child: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(6 + key.len());
    v.extend_from_slice(&(key.len() as u16).to_le_bytes());
    v.extend_from_slice(key);
    v.extend_from_slice(&child.to_le_bytes());
    v
}

fn internal_key(rec: &[u8]) -> &[u8] {
    let len = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    &rec[2..2 + len]
}

fn internal_child(rec: &[u8]) -> u32 {
    let len = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    u32::from_le_bytes(rec[2 + len..2 + len + 4].try_into().unwrap())
}

/// Binary search for `stored` among a leaf's entries.
fn leaf_position(p: &Page, stored: &[u8]) -> std::result::Result<usize, usize> {
    let n = p.slot_count();
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let rec = p.get(mid).expect("leaf slots are live");
        match leaf_key(rec).cmp(stored) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Child pointer for `stored` in an internal node.
fn find_child(p: &Page, stored: &[u8]) -> (u32, Option<usize>) {
    let n = p.slot_count();
    // Rightmost separator ≤ stored.
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let rec = p.get(mid).expect("internal slots are live");
        if internal_key(rec) <= stored {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        (p.special2(), None)
    } else {
        let rec = p.get(lo - 1).expect("internal slots are live");
        (internal_child(rec), Some(lo - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::key::encode_key;
    use crate::tempdir::TempDir;
    use crate::types::Value;

    /// A tree in a fresh directory; keep the [`TempDir`] alive while the
    /// tree is in use.
    fn tree(tag: &str, frames: usize) -> (TempDir, BTree) {
        let dir = TempDir::new(&format!("ordb-btree-{tag}")).unwrap();
        let pool = Arc::new(BufferPool::new(frames));
        pool.register_file(9, dir.join("i.db")).unwrap();
        (dir, BTree::create(pool, 9).unwrap())
    }

    fn rid(i: u64) -> Rid {
        Rid::from_u64(i)
    }

    #[test]
    fn insert_and_prefix_scan() {
        let (_dir, t) = tree("basic", 64);
        for i in 0..100i64 {
            t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
        }
        assert_eq!(t.len().unwrap(), 100);
        let hits = t.scan_prefix(&encode_key(&[Value::Int(42)])).unwrap();
        assert_eq!(hits, vec![rid(42)]);
        assert!(t.scan_prefix(&encode_key(&[Value::Int(500)])).unwrap().is_empty());
    }

    #[test]
    fn duplicates_all_returned() {
        let (_dir, t) = tree("dups", 64);
        let k = encode_key(&[Value::str("HAMLET")]);
        for i in 0..50u64 {
            t.insert(&k, rid(i)).unwrap();
        }
        let hits = t.scan_prefix(&k).unwrap();
        assert_eq!(hits.len(), 50);
        // Exactly-equal (key, rid) pairs are deduplicated.
        t.insert(&k, rid(7)).unwrap();
        assert_eq!(t.scan_prefix(&k).unwrap().len(), 50);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (_dir, t) = tree("split", 64);
        // Insert in pseudorandom order with string keys.
        let mut keys: Vec<i64> = (0..2000).collect();
        // Simple LCG shuffle (deterministic, no rand dependency here).
        let mut state = 12345u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            let key = encode_key(&[Value::str(format!("key-{k:06}"))]);
            t.insert(&key, rid(k as u64)).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "tree should have split");
        // Full scan in order.
        let all = t.scan_range(None, None, true).unwrap();
        assert_eq!(all.len(), 2000);
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Point lookups.
        for probe in [0i64, 1, 999, 1999] {
            let key = encode_key(&[Value::str(format!("key-{probe:06}"))]);
            assert_eq!(t.scan_prefix(&key).unwrap(), vec![rid(probe as u64)]);
        }
    }

    #[test]
    fn range_scan_bounds() {
        let (_dir, t) = tree("range", 64);
        for i in 0..100i64 {
            t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
        }
        let lo = encode_key(&[Value::Int(10)]);
        let hi = encode_key(&[Value::Int(20)]);
        let inc = t.scan_range(Some(&lo), Some(&hi), true).unwrap();
        assert_eq!(inc.len(), 11);
        let exc = t.scan_range(Some(&lo), Some(&hi), false).unwrap();
        assert_eq!(exc.len(), 10);
    }

    #[test]
    fn delete_removes_exact_pair() {
        let (_dir, t) = tree("del", 64);
        let k = encode_key(&[Value::Int(5)]);
        t.insert(&k, rid(1)).unwrap();
        t.insert(&k, rid(2)).unwrap();
        assert!(t.delete(&k, rid(1)).unwrap());
        assert!(!t.delete(&k, rid(1)).unwrap());
        assert_eq!(t.scan_prefix(&k).unwrap(), vec![rid(2)]);
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        // Pool far smaller than the tree: every descent faults pages in.
        let (_dir, t) = tree("tiny", 8);
        for i in 0..3000i64 {
            t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
        }
        for probe in [0i64, 1234, 2999] {
            let k = encode_key(&[Value::Int(probe)]);
            assert_eq!(t.scan_prefix(&k).unwrap(), vec![rid(probe as u64)]);
        }
        assert_eq!(t.len().unwrap(), 3000);
    }

    #[test]
    fn composite_prefix_scan() {
        let (_dir, t) = tree("comp", 64);
        for a in 0..10i64 {
            for b in 0..10i64 {
                let k = encode_key(&[Value::Int(a), Value::Int(b)]);
                t.insert(&k, rid((a * 10 + b) as u64)).unwrap();
            }
        }
        let prefix = encode_key(&[Value::Int(3)]);
        let hits = t.scan_prefix(&prefix).unwrap();
        assert_eq!(hits.len(), 10);
        assert_eq!(hits[0], rid(30));
        assert_eq!(hits[9], rid(39));
    }

    #[test]
    fn oversized_key_rejected() {
        let (_dir, t) = tree("oversize", 16);
        let big = vec![7u8; MAX_KEY_LEN + 1];
        assert!(t.insert(&big, rid(1)).is_err());
    }

    #[test]
    fn reopen_preserves_contents() {
        let dir = TempDir::new("ordb-btree-reopen").unwrap();
        let path = dir.join("i.db");
        {
            let pool = Arc::new(BufferPool::new(32));
            pool.register_file(9, path.clone()).unwrap();
            let t = BTree::create(pool.clone(), 9).unwrap();
            for i in 0..500i64 {
                t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
            }
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(32));
            pool.register_file(9, path).unwrap();
            let t = BTree::open(pool, 9).unwrap();
            assert_eq!(t.len().unwrap(), 500);
            let k = encode_key(&[Value::Int(321)]);
            assert_eq!(t.scan_prefix(&k).unwrap(), vec![rid(321)]);
        }
    }

    #[test]
    fn create_on_non_empty_file_is_corrupt() {
        let (_dir, t) = tree("recreate", 16);
        match BTree::create(t.pool.clone(), t.file) {
            Err(DbError::Corrupt(msg)) => assert!(msg.contains("not empty"), "{msg}"),
            Err(e) => panic!("want Corrupt, got {e:?}"),
            Ok(_) => panic!("a second tree in one file must be refused"),
        }
    }
}
