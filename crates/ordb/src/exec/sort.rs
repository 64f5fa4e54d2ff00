//! Sort: in-memory when the input fits the memory budget, external
//! merge sort (spilled runs + k-way merge) when it does not.

use std::cmp::Ordering;

use crate::error::Result;
use crate::exec::{BoxOp, Operator};
use crate::expr::Expr;
use crate::storage::spill::{SpillConfig, SpillFile, SpillReader};
use crate::tuple::encoded_len;
use crate::types::{Row, Value};

/// One ORDER BY key.
pub struct SortKey {
    /// Key expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub asc: bool,
}

/// Compare key tuples under per-key direction flags. NULLs order first
/// regardless of direction — the same contract as the index key
/// encoding, so an index scan and an explicit sort agree on output
/// order even under `DESC`.
pub(crate) fn cmp_keys(a: &[Value], b: &[Value], descending: &[bool]) -> Ordering {
    for (i, (ka, kb)) in a.iter().zip(b).enumerate() {
        let ord = match (ka.is_null(), kb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => {
                let ord = ka.cmp(kb);
                if descending[i] {
                    ord.reverse()
                } else {
                    ord
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Materialize the child, sort, then emit. NULLs order first (matching
/// the index key encoding), for ascending *and* descending keys.
///
/// With a [`SpillConfig`] whose budget is exceeded, the build switches
/// to an external merge sort: each budget-sized chunk is sorted in
/// memory and written as a run (key columns prepended, so the merge
/// never re-evaluates key expressions), then all runs are merged k-way
/// on read-back. Runs are consecutive input chunks and ties prefer the
/// earliest run, so the external path is stable and produces exactly
/// the same row order as the in-memory `sort_by`.
pub struct Sort {
    child: Option<BoxOp>,
    keys: Vec<SortKey>,
    spill: Option<SpillConfig>,
    sorted: std::vec::IntoIter<Row>,
    merge: Option<KWayMerge>,
    done_build: bool,
}

impl Sort {
    /// Sort `child` by `keys`, fully in memory (no budget).
    pub fn new(child: BoxOp, keys: Vec<SortKey>) -> Sort {
        Sort {
            child: Some(child),
            keys,
            spill: None,
            sorted: Vec::new().into_iter(),
            merge: None,
            done_build: false,
        }
    }

    /// Sort `child` by `keys` under `spill`'s memory budget.
    pub fn with_spill(child: BoxOp, keys: Vec<SortKey>, spill: SpillConfig) -> Sort {
        Sort {
            child: Some(child),
            keys,
            spill: Some(spill),
            sorted: Vec::new().into_iter(),
            merge: None,
            done_build: false,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut child = self.child.take().expect("build once");
        let descending: Vec<bool> = self.keys.iter().map(|k| !k.asc).collect();
        let mut chunk: Vec<(Vec<Value>, Row)> = Vec::new();
        let mut chunk_bytes = 0usize;
        let mut runs: Vec<SpillFile> = Vec::new();
        let mut row_count = 0u64;
        while let Some(row) = child.next()? {
            row_count += 1;
            let mut k = Vec::with_capacity(self.keys.len());
            for sk in &self.keys {
                k.push(sk.expr.eval(&row)?);
            }
            chunk_bytes += encoded_len(&k) + encoded_len(&row);
            chunk.push((k, row));
            if let Some(spill) = &self.spill {
                if spill.over(chunk_bytes) {
                    runs.push(write_run(&mut chunk, &descending, spill)?);
                    chunk_bytes = 0;
                }
            }
        }
        crate::metrics::ENGINE.sort_rows.fetch_add(row_count, std::sync::atomic::Ordering::Relaxed);
        chunk.sort_by(|a, b| cmp_keys(&a.0, &b.0, &descending));
        if runs.is_empty() {
            // Everything fit: emit straight from memory.
            self.sorted = chunk.into_iter().map(|(_, r)| r).collect::<Vec<_>>().into_iter();
        } else {
            if !chunk.is_empty() {
                let spill = self.spill.as_ref().expect("runs imply spill config");
                runs.push(write_sorted_run(&chunk, spill)?);
            }
            self.merge = Some(KWayMerge::open(runs, descending, self.keys.len())?);
        }
        self.done_build = true;
        Ok(())
    }
}

/// Stable-sort `chunk`, write it as one run (key ++ row records), and
/// leave `chunk` empty.
fn write_run(
    chunk: &mut Vec<(Vec<Value>, Row)>,
    descending: &[bool],
    spill: &SpillConfig,
) -> Result<SpillFile> {
    chunk.sort_by(|a, b| cmp_keys(&a.0, &b.0, descending));
    let file = write_sorted_run(chunk, spill)?;
    chunk.clear();
    Ok(file)
}

fn write_sorted_run(chunk: &[(Vec<Value>, Row)], spill: &SpillConfig) -> Result<SpillFile> {
    let mut w = spill.manager.create()?;
    let mut rec: Row = Vec::new();
    for (key, row) in chunk {
        rec.clear();
        rec.extend(key.iter().cloned());
        rec.extend(row.iter().cloned());
        w.add(&rec)?;
    }
    crate::metrics::ENGINE.sort_spills.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    w.finish()
}

/// K-way merge over sorted runs. Each `next()` scans the run heads for
/// the minimum key; strict less-than keeps the earliest run on ties,
/// which preserves input order (stability) because runs are consecutive
/// input chunks.
struct KWayMerge {
    /// Keeps the temp files alive (and thus on disk) until the merge is
    /// dropped.
    _files: Vec<SpillFile>,
    readers: Vec<SpillReader>,
    heads: Vec<Option<(Vec<Value>, Row)>>,
    descending: Vec<bool>,
    key_len: usize,
}

impl KWayMerge {
    fn open(files: Vec<SpillFile>, descending: Vec<bool>, key_len: usize) -> Result<KWayMerge> {
        let mut readers = Vec::with_capacity(files.len());
        for f in &files {
            readers.push(f.open()?);
        }
        let mut m = KWayMerge { _files: files, readers, heads: Vec::new(), descending, key_len };
        for i in 0..m.readers.len() {
            let head = m.read_head(i)?;
            m.heads.push(head);
        }
        Ok(m)
    }

    fn read_head(&mut self, i: usize) -> Result<Option<(Vec<Value>, Row)>> {
        Ok(self.readers[i].next()?.map(|mut rec| {
            let row = rec.split_off(self.key_len);
            (rec, row)
        }))
    }

    fn next(&mut self) -> Result<Option<Row>> {
        let mut best: Option<usize> = None;
        for i in 0..self.heads.len() {
            let Some((key, _)) = &self.heads[i] else { continue };
            best = match best {
                None => Some(i),
                Some(b) => {
                    let (bk, _) = self.heads[b].as_ref().expect("best head present");
                    if cmp_keys(key, bk, &self.descending) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(i) = best else { return Ok(None) };
        let (_, row) = self.heads[i].take().expect("selected head present");
        self.heads[i] = self.read_head(i)?;
        Ok(Some(row))
    }
}

impl Operator for Sort {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.done_build {
            self.build()?;
        }
        match &mut self.merge {
            Some(m) => m.next(),
            None => Ok(self.sorted.next()),
        }
    }

    fn name(&self) -> &'static str {
        "Sort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::storage::spill::SpillManager;
    use crate::tempdir::TempDir;
    use std::sync::Arc;

    #[test]
    fn sorts_ascending_and_descending() {
        let rows = vec![
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("c")],
            vec![Value::Int(2), Value::str("a")],
            vec![Value::Null, Value::str("z")],
        ];
        let op = Sort::new(
            Box::new(Values::new(rows)),
            vec![
                SortKey { expr: Expr::col(0), asc: true },
                SortKey { expr: Expr::col(1), asc: false },
            ],
        );
        let out = collect(Box::new(op)).unwrap();
        let snapshot: Vec<(Option<i64>, &str)> =
            out.iter().map(|r| (r[0].as_int(), r[1].as_str().unwrap())).collect();
        assert_eq!(snapshot, [(None, "z"), (Some(1), "c"), (Some(2), "b"), (Some(2), "a")]);
    }

    #[test]
    fn desc_keeps_nulls_first() {
        // Regression: DESC used to reverse NULLs to the end, violating
        // the documented NULLs-first contract.
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Int(3)],
            vec![Value::Null],
            vec![Value::Int(2)],
        ];
        let op = Sort::new(
            Box::new(Values::new(rows)),
            vec![SortKey { expr: Expr::col(0), asc: false }],
        );
        let out = collect(Box::new(op)).unwrap();
        let snapshot: Vec<Option<i64>> = out.iter().map(|r| r[0].as_int()).collect();
        assert_eq!(snapshot, [None, None, Some(3), Some(2), Some(1)]);
    }

    /// A spill-enabled config writing under a fresh directory; keep the
    /// [`TempDir`] alive while the config is in use.
    fn spill_config(tag: &str, budget: usize) -> (TempDir, SpillConfig) {
        let dir = TempDir::new(&format!("ordb-sort-test-{tag}")).unwrap();
        let cfg =
            SpillConfig { budget: Some(budget), manager: Arc::new(SpillManager::new(dir.path())) };
        (dir, cfg)
    }

    #[test]
    fn external_sort_matches_in_memory_and_cleans_up() {
        let rows: Vec<Row> = (0..500)
            .map(|i| vec![Value::Int((i * 37) % 101), Value::str(format!("pad-{i:04}"))])
            .collect();
        let keys = || {
            vec![
                SortKey { expr: Expr::col(0), asc: true },
                SortKey { expr: Expr::col(1), asc: false },
            ]
        };
        let in_mem =
            collect(Box::new(Sort::new(Box::new(Values::new(rows.clone())), keys()))).unwrap();
        let (_dir, cfg) = spill_config("ext", 512);
        let manager = cfg.manager.clone();
        let external =
            collect(Box::new(Sort::with_spill(Box::new(Values::new(rows)), keys(), cfg))).unwrap();
        assert_eq!(external, in_mem);
        assert_eq!(manager.live_files(), 0, "spill files must be gone after the query");
    }

    #[test]
    fn external_sort_is_stable() {
        // Equal keys must keep input order across the spill path. Column
        // 1 records input position but is not a sort key.
        let rows: Vec<Row> = (0..200).map(|i| vec![Value::Int(i % 3), Value::Int(i)]).collect();
        let (_dir, cfg) = spill_config("stable", 256);
        let out = collect(Box::new(Sort::with_spill(
            Box::new(Values::new(rows)),
            vec![SortKey { expr: Expr::col(0), asc: true }],
            cfg,
        )))
        .unwrap();
        let mut last = (-1, -1);
        for r in &out {
            let cur = (r[0].as_int().unwrap(), r[1].as_int().unwrap());
            assert!(cur > last, "not stable: {cur:?} after {last:?}");
            last = cur;
        }
    }
}
