//! Statistics helpers: tail percentiles with their sample counts, the
//! geomean of per-query medians, operator self time, and the result
//! digest that answer checks compare.

use std::time::Duration;

use ordb::metrics::OperatorProfile;
use ordb::tuple::encode_row;
use ordb::Row;

/// Samples that must lie beyond a reported tail percentile.
pub(crate) const MIN_BEYOND: usize = 10;

/// A percentile read off a sample set, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Percentile {
    /// The quantile actually reported (may be below the one asked for).
    pub(crate) quantile: f64,
    /// The sample at that quantile.
    pub(crate) value: f64,
    /// Samples in the set.
    pub(crate) samples: usize,
    /// Samples strictly beyond the reported one.
    pub(crate) beyond: usize,
}

/// A uniform random sample of at most `cap` values from a stream
/// (Vitter's algorithm R), so that a long or fast run keeps a fixed
/// amount of memory: peak RSS must not grow with throughput.
#[derive(Debug, Clone)]
pub(crate) struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
    rng: crate::Rng,
}

impl Reservoir {
    /// An empty reservoir of `cap` values; `seed` drives replacement.
    pub(crate) fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir { cap, seen: 0, samples: Vec::new(), rng: crate::Rng::new(seed) }
    }

    /// Offer one value.
    pub(crate) fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    /// Values offered so far.
    pub(crate) fn seen(&self) -> u64 {
        self.seen
    }

    /// The values kept (all of them while fewer than `cap` were offered).
    pub(crate) fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Nearest-rank median of `samples` (need not be sorted); 0 when empty.
pub(crate) fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(n - 1) / 2],
    }
}

/// The `q` quantile of `samples`, lowered where needed so that at least
/// [`MIN_BEYOND`] samples lie beyond it: with 50 samples a requested p99
/// is reported as the 39th of 50 (p78) instead of resting on one sample.
/// A set too small to leave ten beyond reports its minimum.
pub(crate) fn tail_percentile(samples: &[f64], q: f64) -> Percentile {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Percentile { quantile: q, value: 0.0, samples: 0, beyond: 0 };
    }
    let want = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let ix = want.min(n.saturating_sub(MIN_BEYOND + 1));
    let quantile = if ix == want { q } else { (ix + 1) as f64 / n as f64 };
    Percentile { quantile, value: v[ix], samples: n, beyond: n - 1 - ix }
}

/// Geometric mean of each sample set's median, so that a fast query
/// weighs as much as a slow one. 0 when any median is not positive.
pub(crate) fn geomean_of_medians(sets: &[&[f64]]) -> f64 {
    let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    if medians.is_empty() || medians.iter().any(|&m| m <= 0.0) {
        return 0.0;
    }
    (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp()
}

/// An operator's self time: its inclusive time minus its children's
/// inclusive time, clamped at zero (timer granularity can make the
/// children's sum overshoot).
pub(crate) fn self_time(op: &OperatorProfile) -> Duration {
    let children: Duration = op.children.iter().map(|c| c.elapsed).sum();
    op.elapsed.saturating_sub(children)
}

/// Rows an operator consumed: its children's output, or for a leaf
/// (a scan) the rows it produced.
pub(crate) fn rows_in(op: &OperatorProfile) -> u64 {
    if op.children.is_empty() {
        op.rows_out
    } else {
        op.children.iter().map(|c| c.rows_out).sum()
    }
}

/// Order-insensitive digest of a result: FNV-1a over the sorted row
/// encodings, with a separator byte after each row (the digest of the
/// golden-results suite).
pub(crate) fn digest(rows: &[Row]) -> u64 {
    let mut encs: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            encode_row(r, &mut buf);
            buf
        })
        .collect();
    encs.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for enc in &encs {
        for &b in enc {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordb::Value;

    fn op(label: &str, ms: u64, rows: u64, children: Vec<OperatorProfile>) -> OperatorProfile {
        OperatorProfile {
            label: label.into(),
            next_calls: rows + 1,
            rows_out: rows,
            elapsed: Duration::from_millis(ms),
            start_ns: Some(0),
            children,
        }
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_fixed_sample() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples(), (0..50).map(f64::from).collect::<Vec<_>>());
        for i in 50..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!((r.seen(), r.samples().len()), (100_000, 100));
        // A uniform sample of 0..100000: its median is near the middle.
        let m = median(r.samples());
        assert!((30_000.0..70_000.0).contains(&m), "median {m}");
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail_percentile(&big, 0.99);
        assert_eq!((p.quantile, p.value, p.samples, p.beyond), (0.99, 990.0, 1000, 10));

        // 50 samples: p99 would rest on one sample; fall back to the 40th.
        let small: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        let p = tail_percentile(&small, 0.99);
        assert_eq!((p.value, p.samples, p.beyond), (40.0, 50, 10));
        assert!((p.quantile - 0.8).abs() < 1e-12);

        // Fewer than eleven samples: the minimum, flagged by `beyond`.
        let p = tail_percentile(&[5.0, 7.0, 6.0], 0.9);
        assert_eq!((p.value, p.beyond), (5.0, 2));
        assert_eq!(tail_percentile(&[], 0.5).samples, 0);
    }

    #[test]
    fn geomean_weighs_queries_equally() {
        let sets: [&[f64]; 2] = [&[1.0, 100.0, 1.0], &[100.0, 100.0, 1.0]];
        assert!((geomean_of_medians(&sets) - 10.0).abs() < 1e-9);
        assert_eq!(geomean_of_medians(&[&[0.0]]), 0.0);
        assert_eq!(geomean_of_medians(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let scan_a = op("SeqScan a", 10, 100, vec![]);
        let scan_b = op("IndexScan(=) b", 5, 7, vec![]);
        let join = op("HashJoin b", 40, 30, vec![scan_a, scan_b]);
        let root = op("Project", 45, 30, vec![join.clone()]);
        assert_eq!(self_time(&root), Duration::from_millis(5));
        assert_eq!(self_time(&join), Duration::from_millis(25));
        assert_eq!(self_time(&join.children[0]), Duration::from_millis(10));
        assert_eq!(rows_in(&join), 107);
        assert_eq!(rows_in(&join.children[1]), 7);
        // Children timed longer than the parent: zero, not an underflow.
        let skewed = op("Filter", 3, 1, vec![op("SeqScan t", 4, 9, vec![])]);
        assert_eq!(self_time(&skewed), Duration::ZERO);
    }

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = vec![vec![Value::Int(1), Value::str("x")], vec![Value::Int(2), Value::Null]];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&a[..1]));
        let c = vec![vec![Value::Int(1), Value::str("y")], a[1].clone()];
        assert_ne!(digest(&a), digest(&c));
        // Row boundaries count: one two-column row differs from two rows.
        let joined = vec![vec![Value::Int(1), Value::Int(2)]];
        let split = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        assert_ne!(digest(&joined), digest(&split));
    }
}
