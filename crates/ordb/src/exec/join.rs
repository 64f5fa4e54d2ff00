//! Join operators: block nested-loop, index nested-loop, hash, and
//! sort-merge — the three cost regimes the paper discusses in §4.4
//! (O(n²) nested loop, O(n log n) merge, O(n) hash probe).
//!
//! All builds are **lazy**: constructing an operator does no I/O. The
//! build side (materialized inner, hash table, sorted runs) is produced
//! on the first `next()` call, so `EXPLAIN` — which constructs a plan
//! only to print it — touches zero pages.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::Result;
use crate::exec::{BoxOp, Operator, SpillScan};
use crate::expr::Expr;
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::storage::heap::HeapFile;
use crate::storage::spill::{
    partition_of, SpillConfig, SpillFile, SpillWriter, MAX_SPILL_DEPTH, SPILL_FANOUT,
};
use crate::tuple::{decode_row, encoded_len};
use crate::txn::Snapshot;
use crate::types::{Row, Value};

/// Inner join with the inner side materialized; optional predicate applied
/// to the concatenated row. With no predicate this is a cross product.
pub struct NestedLoopJoin {
    outer: BoxOp,
    /// Unconsumed inner child; taken and collected on first `next()`.
    inner: Option<BoxOp>,
    inner_rows: Vec<Row>,
    predicate: Option<Expr>,
    current_outer: Option<Row>,
    inner_pos: usize,
}

impl NestedLoopJoin {
    /// Join `outer` with `inner` (materialized on first `next()`).
    pub fn new(outer: BoxOp, inner: BoxOp, predicate: Option<Expr>) -> NestedLoopJoin {
        NestedLoopJoin {
            outer,
            inner: Some(inner),
            inner_rows: Vec::new(),
            predicate,
            current_outer: None,
            inner_pos: 0,
        }
    }
}

impl Operator for NestedLoopJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if let Some(inner) = self.inner.take() {
            self.inner_rows = crate::exec::collect(inner)?;
        }
        loop {
            if self.current_outer.is_none() {
                self.current_outer = self.outer.next()?;
                self.inner_pos = 0;
                if self.current_outer.is_none() {
                    return Ok(None);
                }
            }
            let outer = self.current_outer.as_ref().expect("set above");
            while self.inner_pos < self.inner_rows.len() {
                let inner = &self.inner_rows[self.inner_pos];
                self.inner_pos += 1;
                let mut joined = Vec::with_capacity(outer.len() + inner.len());
                joined.extend_from_slice(outer);
                joined.extend_from_slice(inner);
                match &self.predicate {
                    Some(p) if !p.eval(&joined)?.is_true() => continue,
                    _ => return Ok(Some(joined)),
                }
            }
            self.current_outer = None;
        }
    }

    fn name(&self) -> &'static str {
        "NestedLoopJoin"
    }
}

/// Index nested-loop join: for each outer row, probe the inner table's
/// B+Tree with the outer join-key values and fetch matching inner rows.
pub struct IndexNestedLoopJoin {
    outer: BoxOp,
    inner_heap: Arc<HeapFile>,
    inner_index: Arc<BTree>,
    inner_arity: usize,
    /// Expressions over the *outer* row producing the probe key values.
    outer_keys: Vec<Expr>,
    /// Residual predicate over the concatenated row.
    residual: Option<Expr>,
    /// MVCC snapshot filtering the fetched inner versions.
    snapshot: Snapshot,
    current_outer: Option<Row>,
    pending: std::vec::IntoIter<Row>,
}

impl IndexNestedLoopJoin {
    /// Build the operator.
    pub fn new(
        outer: BoxOp,
        inner_heap: Arc<HeapFile>,
        inner_index: Arc<BTree>,
        inner_arity: usize,
        outer_keys: Vec<Expr>,
        residual: Option<Expr>,
        snapshot: Snapshot,
    ) -> IndexNestedLoopJoin {
        IndexNestedLoopJoin {
            outer,
            inner_heap,
            inner_index,
            inner_arity,
            outer_keys,
            residual,
            snapshot,
            current_outer: None,
            pending: Vec::new().into_iter(),
        }
    }
}

impl Operator for IndexNestedLoopJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(inner) = self.pending.next() {
                let outer = self.current_outer.as_ref().expect("outer set");
                let mut joined = Vec::with_capacity(outer.len() + inner.len());
                joined.extend_from_slice(outer);
                joined.extend(inner);
                match &self.residual {
                    Some(p) if !p.eval(&joined)?.is_true() => continue,
                    _ => return Ok(Some(joined)),
                }
            }
            let Some(outer) = self.outer.next()? else {
                return Ok(None);
            };
            let mut key_vals = Vec::with_capacity(self.outer_keys.len());
            let mut has_null = false;
            for e in &self.outer_keys {
                let v = e.eval(&outer)?;
                has_null |= v.is_null();
                key_vals.push(v);
            }
            if has_null {
                // NULL never equi-joins.
                self.pending = Vec::new().into_iter();
                self.current_outer = Some(outer);
                continue;
            }
            let prefix = encode_key(&key_vals);
            let rids = self.inner_index.scan_prefix(&prefix)?;
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                // Skip dangling entries (rolled-back inserts) and
                // versions invisible to this snapshot.
                let Some(v) = self.inner_heap.get_versioned(rid)? else {
                    continue;
                };
                if !self.snapshot.visible(v.xmin, v.xmax) {
                    continue;
                }
                rows.push(decode_row(&v.body, self.inner_arity)?);
            }
            self.current_outer = Some(outer);
            self.pending = rows.into_iter();
        }
    }

    fn name(&self) -> &'static str {
        "IndexNestedLoopJoin"
    }
}

/// Hash join: build a hash table on the build side's keys, stream the
/// probe side. Output rows are `probe ++ build` or `build ++ probe`
/// depending on `probe_is_left`.
///
/// Build rows live in a contiguous arena (`entries`); the table maps each
/// key to its arena range, and a probe match iterates that range by
/// index — no per-probe clone of the matched row group.
///
/// When the build side exceeds the [`SpillConfig`] budget, the
/// operator switches to a Grace hash join: both inputs are partitioned
/// into [`SPILL_FANOUT`] spill files by a depth-seeded hash of the join
/// key, and each (build, probe) partition pair is joined independently —
/// recursing (with a fresh seed) if a partition is still over budget,
/// up to [`MAX_SPILL_DEPTH`]. NULL keys never equi-join, so both
/// partitioning passes drop them, same as the in-memory build.
pub struct HashJoin {
    /// Unconsumed probe child; taken when Grace partitioning drains it.
    probe: Option<BoxOp>,
    /// Unconsumed build child; taken and hashed on first `next()`.
    build: Option<BoxOp>,
    build_keys: Arc<Vec<Expr>>,
    /// Arena of build rows, grouped so each key's rows are contiguous.
    entries: Vec<Row>,
    /// Key → contiguous range in `entries`.
    table: HashMap<Vec<Value>, std::ops::Range<usize>>,
    probe_keys: Arc<Vec<Expr>>,
    residual: Arc<Option<Expr>>,
    probe_is_left: bool,
    spill: SpillConfig,
    /// Grace recursion depth of this operator (0 = planner-built root).
    depth: usize,
    started: bool,
    /// Set when the build overflowed: partition pairs still to join and
    /// the sub-join currently draining.
    grace: Option<GraceState>,
    current_probe: Option<Row>,
    /// Arena indices of the current probe row's matches.
    pending: std::ops::Range<usize>,
}

struct GraceState {
    /// Remaining (build, probe) partition pairs.
    parts: std::vec::IntoIter<(SpillFile, SpillFile)>,
    /// Sub-join over the current partition pair.
    current: Option<Box<HashJoin>>,
}

impl HashJoin {
    /// Join `probe` against `build` (hashed by `build_keys` on first
    /// `next()`), streaming `probe` with `probe_keys`, under `spill`'s
    /// memory budget (fully in memory when the budget is `None`).
    pub fn new(
        probe: BoxOp,
        build: BoxOp,
        probe_keys: Vec<Expr>,
        build_keys: Vec<Expr>,
        residual: Option<Expr>,
        probe_is_left: bool,
        spill: SpillConfig,
    ) -> HashJoin {
        HashJoin {
            probe: Some(probe),
            build: Some(build),
            build_keys: Arc::new(build_keys),
            entries: Vec::new(),
            table: HashMap::new(),
            probe_keys: Arc::new(probe_keys),
            residual: Arc::new(residual),
            probe_is_left,
            spill,
            depth: 0,
            started: false,
            grace: None,
            current_probe: None,
            pending: 0..0,
        }
    }

    fn eval_key(keys: &[Expr], row: &Row) -> Result<Option<Vec<Value>>> {
        let mut key = Vec::with_capacity(keys.len());
        for e in keys {
            let v = e.eval(row)?;
            if v.is_null() {
                // NULL never equi-joins.
                return Ok(None);
            }
            key.push(v);
        }
        Ok(Some(key))
    }

    /// Drain the build child. Either fills the in-memory arena + range
    /// table, or — if the budget overflows mid-drain — partitions both
    /// sides to disk and arms `self.grace`.
    fn start(&mut self) -> Result<()> {
        self.started = true;
        let mut build = self.build.take().expect("build once");
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
        let mut bytes = 0usize;
        let may_spill = self.spill.budget.is_some() && self.depth < MAX_SPILL_DEPTH;
        while let Some(row) = build.next()? {
            let Some(key) = Self::eval_key(&self.build_keys, &row)? else { continue };
            bytes += encoded_len(&key) + encoded_len(&row);
            keyed.push((key, row));
            if may_spill && self.spill.over(bytes) {
                return self.grace_partition(keyed, build);
            }
        }
        // Build side fits: group into the contiguous arena.
        let mut groups: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        for (key, row) in keyed {
            groups.entry(key).or_default().push(row);
        }
        self.entries.reserve(groups.values().map(Vec::len).sum());
        for (key, rows) in groups {
            let start = self.entries.len();
            self.entries.extend(rows);
            self.table.insert(key, start..self.entries.len());
        }
        Ok(())
    }

    /// Scatter the (partially collected) build side and the whole probe
    /// side into per-partition spill files.
    fn grace_partition(&mut self, keyed: Vec<(Vec<Value>, Row)>, mut build: BoxOp) -> Result<()> {
        let spill = self.spill.clone();
        crate::metrics::count(|s| s.engine.join_partitions += SPILL_FANOUT as u64);

        let mut build_writers = new_writers(&spill)?;
        for (key, row) in keyed {
            build_writers[partition_of(&key, self.depth)].add(&row)?;
        }
        while let Some(row) = build.next()? {
            let Some(key) = Self::eval_key(&self.build_keys, &row)? else { continue };
            build_writers[partition_of(&key, self.depth)].add(&row)?;
        }
        let build_files = seal_writers(build_writers)?;

        let mut probe = self.probe.take().expect("probe not yet consumed");
        let mut probe_writers = new_writers(&spill)?;
        while let Some(row) = probe.next()? {
            let Some(key) = Self::eval_key(&self.probe_keys, &row)? else { continue };
            probe_writers[partition_of(&key, self.depth)].add(&row)?;
        }
        let probe_files = seal_writers(probe_writers)?;

        // A pair with an empty side can produce no matches; dropping it
        // here deletes both files immediately.
        let parts: Vec<(SpillFile, SpillFile)> = build_files
            .into_iter()
            .zip(probe_files)
            .filter(|(b, p)| b.rows() > 0 && p.rows() > 0)
            .collect();
        self.grace = Some(GraceState { parts: parts.into_iter(), current: None });
        Ok(())
    }

    fn grace_next(&mut self) -> Result<Option<Row>> {
        // Clone the shared plan pieces up front so constructing sub-joins
        // below doesn't fight the `grace` borrow.
        let probe_keys = self.probe_keys.clone();
        let build_keys = self.build_keys.clone();
        let residual = self.residual.clone();
        let (probe_is_left, spill, depth) = (self.probe_is_left, self.spill.clone(), self.depth);
        let g = self.grace.as_mut().expect("grace armed");
        loop {
            if let Some(sub) = &mut g.current {
                if let Some(row) = sub.next()? {
                    return Ok(Some(row));
                }
                g.current = None;
            }
            let Some((build_file, probe_file)) = g.parts.next() else {
                return Ok(None);
            };
            let sub = HashJoin::new(
                Box::new(SpillScan::new(probe_file)),
                Box::new(SpillScan::new(build_file)),
                Vec::new(),
                Vec::new(),
                None,
                probe_is_left,
                spill.clone(),
            );
            g.current = Some(Box::new(HashJoin {
                probe_keys: probe_keys.clone(),
                build_keys: build_keys.clone(),
                residual: residual.clone(),
                depth: depth + 1,
                ..sub
            }));
        }
    }
}

fn new_writers(spill: &SpillConfig) -> Result<Vec<SpillWriter>> {
    (0..SPILL_FANOUT).map(|_| spill.manager.create()).collect()
}

fn seal_writers(writers: Vec<SpillWriter>) -> Result<Vec<SpillFile>> {
    writers.into_iter().map(SpillWriter::finish).collect()
}

impl Operator for HashJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.started {
            self.start()?;
        }
        if self.grace.is_some() {
            return self.grace_next();
        }
        loop {
            if let Some(idx) = self.pending.next() {
                let build_row = &self.entries[idx];
                let probe_row = self.current_probe.as_ref().expect("probe set");
                let joined = if self.probe_is_left {
                    let mut j = probe_row.clone();
                    j.extend_from_slice(build_row);
                    j
                } else {
                    let mut j = build_row.clone();
                    j.extend_from_slice(probe_row);
                    j
                };
                match self.residual.as_ref() {
                    Some(p) if !p.eval(&joined)?.is_true() => continue,
                    _ => return Ok(Some(joined)),
                }
            }
            let Some(probe_row) =
                self.probe.as_mut().expect("probe not consumed by grace").next()?
            else {
                return Ok(None);
            };
            let mut key = Vec::with_capacity(self.probe_keys.len());
            let mut has_null = false;
            for e in self.probe_keys.iter() {
                let v = e.eval(&probe_row)?;
                has_null |= v.is_null();
                key.push(v);
            }
            self.pending =
                if has_null { 0..0 } else { self.table.get(&key).cloned().unwrap_or(0..0) };
            self.current_probe = Some(probe_row);
        }
    }

    fn name(&self) -> &'static str {
        "HashJoin"
    }
}

/// Sort-merge join on equi-keys: each side is routed through a [`Sort`](super::sort::Sort)
/// on its key expressions (the external merge sort when the
/// [`SpillConfig`] has a budget), then merged streaming. Only the
/// current right-side duplicate group is buffered, so peak memory is
/// one sort budget per side plus the widest equal-key group.
///
/// NULL keys never equi-join; they sort first (NULLs-first contract)
/// and are skipped as the merge reads each side.
pub struct MergeJoin {
    /// Unconsumed children and keys; sorted lazily on first `next()`.
    inputs: Option<MergeInputs>,
    spill: SpillConfig,
    state: Option<MergeState>,
}

struct MergeInputs {
    left: BoxOp,
    right: BoxOp,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    residual: Option<Expr>,
}

struct MergeState {
    left: BoxOp,
    right: BoxOp,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    residual: Option<Expr>,
    /// Current left head (key + row).
    lhead: Option<(Vec<Value>, Row)>,
    /// Right head not yet folded into a group.
    rhead: Option<(Vec<Value>, Row)>,
    /// Buffered right rows equal to `rgroup_key`.
    rgroup: Vec<Row>,
    rgroup_key: Vec<Value>,
    /// Cross-product cursor of `lhead` × `rgroup`.
    rpos: usize,
}

impl MergeJoin {
    /// Join `left` and `right` on their key expressions (work deferred to
    /// first `next()`), sorting each side under `spill`'s memory budget.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
        spill: SpillConfig,
    ) -> MergeJoin {
        MergeJoin {
            inputs: Some(MergeInputs { left, right, left_keys, right_keys, residual }),
            spill,
            state: None,
        }
    }

    fn start(&mut self) -> Result<()> {
        let MergeInputs { left, right, left_keys, right_keys, residual } =
            self.inputs.take().expect("start once");
        let sorted = |op: BoxOp, keys: &[Expr]| -> BoxOp {
            let sort_keys: Vec<crate::exec::SortKey> =
                keys.iter().map(|e| crate::exec::SortKey { expr: e.clone(), asc: true }).collect();
            Box::new(crate::exec::Sort::new(op, sort_keys, self.spill.clone()))
        };
        let mut state = MergeState {
            left: sorted(left, &left_keys),
            right: sorted(right, &right_keys),
            left_keys,
            right_keys,
            residual,
            lhead: None,
            rhead: None,
            rgroup: Vec::new(),
            rgroup_key: Vec::new(),
            rpos: 0,
        };
        state.lhead = read_keyed(&mut state.left, &state.left_keys)?;
        state.rhead = read_keyed(&mut state.right, &state.right_keys)?;
        self.state = Some(state);
        Ok(())
    }
}

/// Read the next row with a fully non-NULL key from `op`, returning the
/// evaluated key alongside it.
fn read_keyed(op: &mut BoxOp, keys: &[Expr]) -> Result<Option<(Vec<Value>, Row)>> {
    while let Some(row) = op.next()? {
        if let Some(key) = HashJoin::eval_key(keys, &row)? {
            return Ok(Some((key, row)));
        }
    }
    Ok(None)
}

impl MergeState {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            let Some((lk, lrow)) = &self.lhead else {
                return Ok(None);
            };
            if !self.rgroup.is_empty() && *lk == self.rgroup_key {
                if self.rpos < self.rgroup.len() {
                    let mut joined = lrow.clone();
                    joined.extend_from_slice(&self.rgroup[self.rpos]);
                    self.rpos += 1;
                    match &self.residual {
                        Some(p) if !p.eval(&joined)?.is_true() => continue,
                        _ => return Ok(Some(joined)),
                    }
                }
                // Crossed this left row against the whole group; advance.
                self.lhead = read_keyed(&mut self.left, &self.left_keys)?;
                self.rpos = 0;
                continue;
            }
            let Some((rk, _)) = &self.rhead else {
                // Right exhausted and the buffered group doesn't match.
                return Ok(None);
            };
            match lk.cmp(rk) {
                std::cmp::Ordering::Less => {
                    self.lhead = read_keyed(&mut self.left, &self.left_keys)?;
                    self.rpos = 0;
                }
                std::cmp::Ordering::Greater => {
                    self.rhead = read_keyed(&mut self.right, &self.right_keys)?;
                }
                std::cmp::Ordering::Equal => {
                    // Buffer the full right group for this key.
                    let (key, row) = self.rhead.take().expect("checked above");
                    self.rgroup_key = key;
                    self.rgroup = vec![row];
                    loop {
                        match read_keyed(&mut self.right, &self.right_keys)? {
                            Some((k, r)) if k == self.rgroup_key => self.rgroup.push(r),
                            other => {
                                self.rhead = other;
                                break;
                            }
                        }
                    }
                    self.rpos = 0;
                }
            }
        }
    }
}

impl Operator for MergeJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.state.is_none() {
            self.start()?;
        }
        self.state.as_mut().expect("started").next()
    }

    fn name(&self) -> &'static str {
        "MergeJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::expr::CmpOp;
    use crate::tempdir::TempDir;

    fn left() -> BoxOp {
        // (id, name)
        Box::new(Values::new(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(2), Value::str("b2")],
            vec![Value::Int(3), Value::str("c")],
            vec![Value::Null, Value::str("n")],
        ]))
    }

    fn right() -> BoxOp {
        // (ref, tag)
        Box::new(Values::new(vec![
            vec![Value::Int(2), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
            vec![Value::Int(3), Value::str("z")],
            vec![Value::Int(9), Value::str("w")],
            vec![Value::Null, Value::str("nn")],
        ]))
    }

    fn expected_pairs() -> Vec<(i64, String, String)> {
        vec![
            (2, "b".into(), "x".into()),
            (2, "b".into(), "y".into()),
            (2, "b2".into(), "x".into()),
            (2, "b2".into(), "y".into()),
            (3, "c".into(), "z".into()),
        ]
    }

    fn normalize(rows: Vec<Row>) -> Vec<(i64, String, String)> {
        let mut v: Vec<(i64, String, String)> = rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_int().unwrap(),
                    r[1].as_str().unwrap().to_string(),
                    r[3].as_str().unwrap().to_string(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn nested_loop_equi() {
        let pred = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::col(2));
        let j = NestedLoopJoin::new(left(), right(), Some(pred));
        assert_eq!(normalize(collect(Box::new(j)).unwrap()), expected_pairs());
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let j = HashJoin::new(
            left(),
            right(),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            true,
            SpillConfig::unbounded(),
        );
        assert_eq!(normalize(collect(Box::new(j)).unwrap()), expected_pairs());
    }

    #[test]
    fn merge_join_matches_nested_loop() {
        let unbounded = SpillConfig::unbounded();
        let j = MergeJoin::new(
            left(),
            right(),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            unbounded,
        );
        assert_eq!(normalize(collect(Box::new(j)).unwrap()), expected_pairs());
    }

    #[test]
    fn cross_product_without_predicate() {
        let j = NestedLoopJoin::new(left(), right(), None);
        assert_eq!(collect(Box::new(j)).unwrap().len(), 25);
    }

    /// A spill-enabled config writing under a fresh directory; keep the
    /// [`TempDir`] alive while the config is in use.
    fn spill_config(tag: &str, budget: usize) -> (TempDir, SpillConfig) {
        let dir = TempDir::new(&format!("ordb-join-test-{tag}")).unwrap();
        let cfg = SpillConfig {
            budget: Some(budget),
            manager: Arc::new(crate::storage::spill::SpillManager::new(dir.path())),
        };
        (dir, cfg)
    }

    fn big_sides() -> (Vec<Row>, Vec<Row>) {
        // ~60 B/row build side so a small budget forces Grace mode, with
        // duplicate keys on both sides and NULLs sprinkled in.
        let left: Vec<Row> = (0..300)
            .map(|i| {
                let key = if i % 17 == 0 { Value::Null } else { Value::Int(i % 40) };
                vec![key, Value::str(format!("left-{i:04}-padpadpad"))]
            })
            .collect();
        let right: Vec<Row> = (0..200)
            .map(|i| {
                let key = if i % 13 == 0 { Value::Null } else { Value::Int(i % 55) };
                vec![key, Value::str(format!("right-{i:04}-padpadpad"))]
            })
            .collect();
        (left, right)
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }

    #[test]
    fn grace_join_matches_in_memory_and_cleans_up() {
        let (l, r) = big_sides();
        let in_mem = collect(Box::new(HashJoin::new(
            Box::new(Values::new(l.clone())),
            Box::new(Values::new(r.clone())),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            true,
            SpillConfig::unbounded(),
        )))
        .unwrap();
        for budget in [256usize, 1024, 4096] {
            let (_dir, cfg) = spill_config(&format!("grace-{budget}"), budget);
            let manager = cfg.manager.clone();
            let registry = crate::metrics::MetricsRegistry::new();
            let scope = registry.scope();
            let grace = collect(Box::new(HashJoin::new(
                Box::new(Values::new(l.clone())),
                Box::new(Values::new(r.clone())),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
                None,
                true,
                cfg,
            )))
            .unwrap();
            // Grace emits partition by partition, so compare as multisets.
            assert_eq!(sorted(grace), sorted(in_mem.clone()), "budget {budget}");
            let partitions = scope.finish().engine.join_partitions;
            assert!(partitions > 0, "budget {budget} should have partitioned");
            assert_eq!(manager.live_files(), 0, "spill files must be gone after the join");
        }
    }

    #[test]
    fn merge_join_with_spill_matches_in_memory() {
        let (l, r) = big_sides();
        let in_mem = collect(Box::new(MergeJoin::new(
            Box::new(Values::new(l.clone())),
            Box::new(Values::new(r.clone())),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            SpillConfig::unbounded(),
        )))
        .unwrap();
        let (_dir, cfg) = spill_config("merge", 512);
        let manager = cfg.manager.clone();
        let spilled = collect(Box::new(MergeJoin::new(
            Box::new(Values::new(l)),
            Box::new(Values::new(r)),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            cfg,
        )))
        .unwrap();
        assert_eq!(spilled, in_mem);
        assert_eq!(manager.live_files(), 0);
    }

    #[test]
    fn hash_join_residual() {
        // join on id, but keep only tag = 'y'
        let residual = Expr::cmp(CmpOp::Eq, Expr::col(3), Expr::lit("y"));
        let j = HashJoin::new(
            left(),
            right(),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            Some(residual),
            true,
            SpillConfig::unbounded(),
        );
        let rows = collect(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 2); // b-y and b2-y
    }
}
