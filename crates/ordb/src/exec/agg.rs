//! Grouping, aggregation, and duplicate elimination.
//!
//! Both blocking operators here ([`HashAggregate`], [`Distinct`]) honour
//! an optional [`SpillConfig`] memory budget with a partition-and-retry
//! scheme: when the in-memory working set overflows, input not yet
//! absorbed is hash-partitioned into spill files and each partition is
//! re-processed recursively (depth-seeded hash, capped at
//! [`MAX_SPILL_DEPTH`]). Without a budget they behave exactly as the
//! historical all-in-memory versions.

use std::collections::{HashMap, HashSet};

use crate::error::{DbError, Result};
use crate::exec::{BoxOp, Operator, SpillScan};
use crate::expr::Expr;
use crate::storage::spill::{
    partition_of, SpillConfig, SpillFile, SpillWriter, MAX_SPILL_DEPTH, SPILL_FANOUT,
};
use crate::tuple::encoded_len;
use crate::types::{Row, Value};
use std::sync::Arc;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` (argument ignored) or `COUNT(expr)` (non-NULLs).
    Count,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
    /// `SUM(expr)` over integers.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// One aggregate call in the select list.
pub struct AggCall {
    /// Which function.
    pub func: AggFunc,
    /// Argument (`None` only for `COUNT(*)`).
    pub arg: Option<Expr>,
}

/// Rough heap footprint of one [`AggState`], used for budget accounting
/// (variable-size state growth is reported by [`AggState::update`]).
const AGG_STATE_BYTES: usize = 32;

enum AggState {
    Count(i64),
    CountDistinct(HashSet<Value>),
    Sum(Option<i64>),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold `v` in, returning the bytes of state growth (only
    /// `COUNT(DISTINCT)` retains per-value memory).
    fn update(&mut self, v: Option<Value>) -> Result<usize> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) passes None; COUNT(expr) passes Some(v) and
                // counts only non-NULL values.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let grow = encoded_len(std::slice::from_ref(&val));
                        if set.insert(val) {
                            return Ok(grow);
                        }
                    }
                }
            }
            AggState::Sum(acc) => {
                if let Some(Value::Int(i)) = v {
                    let sum = acc
                        .unwrap_or(0)
                        .checked_add(i)
                        .ok_or_else(|| DbError::Exec("SUM overflow".into()))?;
                    *acc = Some(sum);
                } else if let Some(Value::Null) = v {
                    // NULLs ignored
                } else if let Some(other) = v {
                    return Err(DbError::Exec(format!("SUM over non-integer {other:?}")));
                }
            }
            AggState::Min(acc) => {
                if let Some(val) = v {
                    if !val.is_null() && acc.as_ref().is_none_or(|a| val < *a) {
                        *acc = Some(val);
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(val) = v {
                    if !val.is_null() && acc.as_ref().is_none_or(|a| val > *a) {
                        *acc = Some(val);
                    }
                }
            }
        }
        Ok(0)
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Sum(acc) => acc.map_or(Value::Null, Value::Int),
            AggState::Min(acc) | AggState::Max(acc) => acc.unwrap_or(Value::Null),
        }
    }
}

/// Hash aggregation: output rows are `group values ++ aggregate values`.
/// With no group keys a single global group is produced (even on empty
/// input, per SQL).
///
/// Spilling is hybrid: groups resident when the budget fills keep
/// absorbing their rows in place; rows of *new* keys are hash-partitioned
/// to disk and each partition is aggregated recursively. A key is thus
/// finalized exactly once — either resident or in exactly one partition —
/// so spilled results equal in-memory results up to group order (resident
/// groups first, then per-partition first-seen order).
pub struct HashAggregate {
    child: Option<BoxOp>,
    group_exprs: Arc<Vec<Expr>>,
    aggs: Arc<Vec<AggCall>>,
    spill: Option<SpillConfig>,
    depth: usize,
    output: std::vec::IntoIter<Row>,
    grace: Option<AggGrace>,
    built: bool,
}

struct AggGrace {
    /// Remaining overflow partitions.
    parts: std::vec::IntoIter<SpillFile>,
    /// Sub-aggregate over the current partition.
    current: Option<Box<HashAggregate>>,
}

impl HashAggregate {
    /// Group `child` by `group_exprs` and compute `aggs` per group,
    /// fully in memory.
    pub fn new(child: BoxOp, group_exprs: Vec<Expr>, aggs: Vec<AggCall>) -> HashAggregate {
        Self::build_agg(child, Arc::new(group_exprs), Arc::new(aggs), None, 0)
    }

    /// Like [`HashAggregate::new`] but honouring `spill`'s memory budget
    /// via partition-and-retry.
    pub fn with_spill(
        child: BoxOp,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggCall>,
        spill: SpillConfig,
    ) -> HashAggregate {
        Self::build_agg(child, Arc::new(group_exprs), Arc::new(aggs), Some(spill), 0)
    }

    fn build_agg(
        child: BoxOp,
        group_exprs: Arc<Vec<Expr>>,
        aggs: Arc<Vec<AggCall>>,
        spill: Option<SpillConfig>,
        depth: usize,
    ) -> HashAggregate {
        HashAggregate {
            child: Some(child),
            group_exprs,
            aggs,
            spill,
            depth,
            output: Vec::new().into_iter(),
            grace: None,
            built: false,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut child = self.child.take().expect("build once");
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        // Preserve first-seen group order for deterministic output.
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut bytes = 0usize;
        // Armed on overflow; from then on rows of non-resident keys are
        // scattered to these partitions instead of growing `groups`.
        let mut writers: Option<Vec<SpillWriter>> = None;
        // Partitioning a single global group is pointless (its state is
        // O(1) anyway and one key can never be split by hash).
        let may_spill = self.spill.as_ref().is_some_and(|s| s.budget.is_some())
            && self.depth < MAX_SPILL_DEPTH
            && !self.group_exprs.is_empty();
        while let Some(row) = child.next()? {
            let mut key = Vec::with_capacity(self.group_exprs.len());
            for e in self.group_exprs.iter() {
                key.push(e.eval(&row)?);
            }
            let states = match groups.get_mut(&key) {
                Some(s) => s,
                None => {
                    if let Some(ws) = writers.as_mut() {
                        // Resident set is frozen: defer this key's rows.
                        ws[partition_of(&key, self.depth)].add(&row)?;
                        continue;
                    }
                    bytes += encoded_len(&key) + AGG_STATE_BYTES * self.aggs.len();
                    order.push(key.clone());
                    groups.entry(key).or_insert_with(|| {
                        self.aggs.iter().map(|a| AggState::new(a.func)).collect()
                    })
                }
            };
            for (state, call) in states.iter_mut().zip(self.aggs.iter()) {
                let v = match &call.arg {
                    Some(e) => Some(e.eval(&row)?),
                    None => None,
                };
                bytes += state.update(v)?;
            }
            if may_spill && writers.is_none() && self.spill.as_ref().expect("checked").over(bytes) {
                let spill = self.spill.as_ref().expect("checked");
                crate::metrics::ENGINE
                    .agg_spills
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                writers =
                    Some((0..SPILL_FANOUT).map(|_| spill.manager.create()).collect::<Result<_>>()?);
            }
        }
        if let Some(ws) = writers {
            let parts: Vec<SpillFile> = ws
                .into_iter()
                .map(SpillWriter::finish)
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .filter(|f| f.rows() > 0)
                .collect();
            self.grace = Some(AggGrace { parts: parts.into_iter(), current: None });
        }
        if groups.is_empty() && self.group_exprs.is_empty() {
            // Global aggregate over empty input still yields one row.
            order.push(Vec::new());
            groups.insert(Vec::new(), self.aggs.iter().map(|a| AggState::new(a.func)).collect());
        }
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let states = groups.remove(&key).expect("tracked group");
            let mut row = key;
            row.extend(states.into_iter().map(AggState::finish));
            out.push(row);
        }
        self.output = out.into_iter();
        self.built = true;
        Ok(())
    }

    fn grace_next(&mut self) -> Result<Option<Row>> {
        let (group_exprs, aggs) = (self.group_exprs.clone(), self.aggs.clone());
        let (spill, depth) = (self.spill.clone(), self.depth);
        let Some(g) = self.grace.as_mut() else {
            return Ok(None);
        };
        loop {
            if let Some(sub) = &mut g.current {
                if let Some(row) = sub.next()? {
                    return Ok(Some(row));
                }
                g.current = None;
            }
            let Some(file) = g.parts.next() else {
                return Ok(None);
            };
            g.current = Some(Box::new(HashAggregate::build_agg(
                Box::new(SpillScan::new(file)),
                group_exprs.clone(),
                aggs.clone(),
                spill.clone(),
                depth + 1,
            )));
        }
    }
}

impl Operator for HashAggregate {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.built {
            self.build()?;
        }
        if let Some(row) = self.output.next() {
            return Ok(Some(row));
        }
        self.grace_next()
    }

    fn name(&self) -> &'static str {
        "HashAggregate"
    }
}

/// Rough heap footprint of one seen-set entry beyond its encoded bytes.
const SEEN_ENTRY_BYTES: usize = 16;

/// Hash-based duplicate elimination over whole rows.
///
/// Streams while the seen-set fits the budget. On overflow the seen
/// rows are spilled with an "already emitted" marker and the remaining
/// input follows, hash-partitioned by row; each partition is then
/// deduplicated recursively — marked rows suppress re-emission but
/// still participate in dedup, so every distinct row is emitted exactly
/// once.
pub struct Distinct {
    child: BoxOp,
    seen: HashSet<Row>,
    bytes: usize,
    spill: Option<SpillConfig>,
    depth: usize,
    /// Rows from `child` carry a leading emitted-marker column (true for
    /// the recursive partition passes).
    flagged: bool,
    grace: Option<DistinctGrace>,
}

struct DistinctGrace {
    parts: std::vec::IntoIter<SpillFile>,
    current: Option<Box<Distinct>>,
}

impl Distinct {
    /// Deduplicate `child`, fully in memory.
    pub fn new(child: BoxOp) -> Distinct {
        Self::build_distinct(child, None, 0, false)
    }

    /// Like [`Distinct::new`] but honouring `spill`'s memory budget.
    pub fn with_spill(child: BoxOp, spill: SpillConfig) -> Distinct {
        Self::build_distinct(child, Some(spill), 0, false)
    }

    fn build_distinct(
        child: BoxOp,
        spill: Option<SpillConfig>,
        depth: usize,
        flagged: bool,
    ) -> Distinct {
        Distinct { child, seen: HashSet::new(), bytes: 0, spill, depth, flagged, grace: None }
    }

    /// Spill the seen-set (marked emitted) and the rest of the input
    /// (original markers) into hash partitions, then arm `grace`.
    fn overflow(&mut self) -> Result<()> {
        let spill = self.spill.clone().expect("overflow requires a spill config");
        crate::metrics::ENGINE.agg_spills.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut writers: Vec<SpillWriter> =
            (0..SPILL_FANOUT).map(|_| spill.manager.create()).collect::<Result<_>>()?;
        let mut rec: Row = Vec::new();
        let mut write = |writers: &mut Vec<SpillWriter>, emitted: bool, row: &[Value]| {
            rec.clear();
            rec.push(Value::Int(emitted as i64));
            rec.extend(row.iter().cloned());
            writers[partition_of(row, self.depth)].add(&rec)
        };
        for row in self.seen.drain() {
            write(&mut writers, true, &row)?;
        }
        self.bytes = 0;
        while let Some(row) = self.child.next()? {
            let (emitted, payload) = split_flag(row, self.flagged);
            write(&mut writers, emitted, &payload)?;
        }
        let parts: Vec<SpillFile> = writers
            .into_iter()
            .map(SpillWriter::finish)
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .filter(|f| f.rows() > 0)
            .collect();
        self.grace = Some(DistinctGrace { parts: parts.into_iter(), current: None });
        Ok(())
    }

    fn grace_next(&mut self) -> Result<Option<Row>> {
        let (spill, depth) = (self.spill.clone(), self.depth);
        let g = self.grace.as_mut().expect("grace armed");
        loop {
            if let Some(sub) = &mut g.current {
                if let Some(row) = sub.next()? {
                    return Ok(Some(row));
                }
                g.current = None;
            }
            let Some(file) = g.parts.next() else {
                return Ok(None);
            };
            g.current = Some(Box::new(Distinct::build_distinct(
                Box::new(SpillScan::new(file)),
                spill.clone(),
                depth + 1,
                true,
            )));
        }
    }
}

/// Split the leading emitted-marker column off `row` when present.
fn split_flag(mut row: Row, flagged: bool) -> (bool, Row) {
    if flagged {
        let payload = row.split_off(1);
        (row[0] == Value::Int(1), payload)
    } else {
        (false, row)
    }
}

impl Operator for Distinct {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if self.grace.is_some() {
                return self.grace_next();
            }
            let Some(row) = self.child.next()? else {
                return Ok(None);
            };
            let (emitted, payload) = split_flag(row, self.flagged);
            if self.seen.contains(&payload) {
                continue;
            }
            self.bytes += encoded_len(&payload) + SEEN_ENTRY_BYTES;
            self.seen.insert(payload.clone());
            if self.depth < MAX_SPILL_DEPTH
                && self.spill.as_ref().is_some_and(|s| s.over(self.bytes))
            {
                self.overflow()?;
                // The row that tipped the budget is in the spilled seen-
                // set (marked emitted), so emit it now if it was fresh.
                if !emitted {
                    return Ok(Some(payload));
                }
                continue;
            }
            if !emitted {
                return Ok(Some(payload));
            }
        }
    }

    fn name(&self) -> &'static str {
        "Distinct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::storage::spill::SpillManager;
    use crate::tempdir::TempDir;

    fn rows() -> BoxOp {
        Box::new(Values::new(vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::str("b"), Value::Int(2)],
            vec![Value::str("a"), Value::Int(3)],
            vec![Value::str("a"), Value::Null],
            vec![Value::str("b"), Value::Int(2)],
        ]))
    }

    #[test]
    fn count_star_and_count_expr() {
        let op = HashAggregate::new(
            rows(),
            vec![Expr::col(0)],
            vec![
                AggCall { func: AggFunc::Count, arg: None },
                AggCall { func: AggFunc::Count, arg: Some(Expr::col(1)) },
            ],
        );
        let mut out = collect(Box::new(op)).unwrap();
        out.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(out[0], vec![Value::str("a"), Value::Int(3), Value::Int(2)]);
        assert_eq!(out[1], vec![Value::str("b"), Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn count_distinct_sum_min_max() {
        let op = HashAggregate::new(
            rows(),
            vec![],
            vec![
                AggCall { func: AggFunc::CountDistinct, arg: Some(Expr::col(0)) },
                AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)) },
            ],
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(8), Value::Int(1), Value::Int(3)]]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![])),
            vec![],
            vec![AggCall { func: AggFunc::Count, arg: None }],
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![])),
            vec![Expr::col(0)],
            vec![AggCall { func: AggFunc::Count, arg: None }],
        );
        assert!(collect(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn distinct_dedups() {
        let out = collect(Box::new(Distinct::new(rows()))).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn sum_overflow_is_an_error_not_a_panic() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![vec![Value::Int(i64::MAX)], vec![Value::Int(1)]])),
            vec![],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(0)) }],
        );
        let err = collect(Box::new(op)).unwrap_err();
        assert!(matches!(&err, DbError::Exec(m) if m == "SUM overflow"), "{err}");
    }

    #[test]
    fn sum_at_i64_max_without_overflow_is_fine() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![vec![Value::Int(i64::MAX - 1)], vec![Value::Int(1)]])),
            vec![],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(0)) }],
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(i64::MAX)]]);
    }

    /// A spill-enabled config writing under a fresh directory; keep the
    /// [`TempDir`] alive while the config is in use.
    fn spill_config(tag: &str, budget: usize) -> (TempDir, SpillConfig) {
        let dir = TempDir::new(&format!("ordb-agg-test-{tag}")).unwrap();
        let cfg =
            SpillConfig { budget: Some(budget), manager: Arc::new(SpillManager::new(dir.path())) };
        (dir, cfg)
    }

    fn many_rows() -> Vec<Row> {
        (0..400)
            .map(|i| vec![Value::str(format!("group-{:02}", i % 37)), Value::Int(i % 7)])
            .collect()
    }

    #[test]
    fn spilled_aggregate_matches_in_memory() {
        let aggs = || {
            vec![
                AggCall { func: AggFunc::Count, arg: None },
                AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::CountDistinct, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)) },
            ]
        };
        let mut in_mem = collect(Box::new(HashAggregate::new(
            Box::new(Values::new(many_rows())),
            vec![Expr::col(0)],
            aggs(),
        )))
        .unwrap();
        for budget in [128usize, 512, 2048] {
            let (_dir, cfg) = spill_config(&format!("agg-{budget}"), budget);
            let manager = cfg.manager.clone();
            let mut spilled = collect(Box::new(HashAggregate::with_spill(
                Box::new(Values::new(many_rows())),
                vec![Expr::col(0)],
                aggs(),
                cfg,
            )))
            .unwrap();
            // Group order differs between the two paths; compare sorted.
            in_mem.sort_by(|a, b| a[0].cmp(&b[0]));
            spilled.sort_by(|a, b| a[0].cmp(&b[0]));
            assert_eq!(spilled, in_mem, "budget {budget}");
            assert_eq!(manager.live_files(), 0, "spill files must be gone, budget {budget}");
        }
    }

    #[test]
    fn spilled_distinct_matches_in_memory() {
        let rows: Vec<Row> = (0..500)
            .map(|i| vec![Value::Int(i % 91), Value::str(format!("v{}", i % 13))])
            .collect();
        let mut in_mem =
            collect(Box::new(Distinct::new(Box::new(Values::new(rows.clone()))))).unwrap();
        for budget in [64usize, 256, 1024] {
            let (_dir, cfg) = spill_config(&format!("distinct-{budget}"), budget);
            let manager = cfg.manager.clone();
            let mut spilled =
                collect(Box::new(Distinct::with_spill(Box::new(Values::new(rows.clone())), cfg)))
                    .unwrap();
            assert_eq!(spilled.len(), in_mem.len(), "budget {budget}");
            in_mem.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            spilled.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            assert_eq!(spilled, in_mem, "budget {budget}");
            assert_eq!(manager.live_files(), 0, "budget {budget}");
        }
    }
}
