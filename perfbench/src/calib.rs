//! Machine-speed calibration.
//!
//! On a shared VM the speed at which this engine's code runs drifts by
//! up to 1.6× over minutes, with other tenants' cache and memory traffic,
//! and no statistic taken inside one run removes a drift that outlasts
//! it. A paper-workload run therefore interleaves short passes of a
//! fixed, engine-independent [`probe`] with the work it measures, and scales
//! every reported time by [`REFERENCE_MS`] / (median probe time): times
//! read as if on a machine where one probe pass takes that long. An engine
//! change moves the reported times in full, since the probe does not run
//! engine code; a machine slowdown moves both and cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// [`probe`] time, in milliseconds, that reported times are scaled to.
pub(crate) const REFERENCE_MS: f64 = 7.5;

/// One pass of engine-like work over a working set of a few MB: build
/// and probe a string-keyed hash table, materialize, clone and sort
/// rows, and tokenize XML-like text — the shapes of the engine's joins,
/// operators and XADT methods. Returns its wall time.
pub(crate) fn probe() -> Duration {
    let start = Instant::now();
    let keys: Vec<String> = (0..10_000u64).map(|i| format!("key-{:08x}", mix(i))).collect();
    let mut table: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, k) in keys.iter().enumerate() {
        table.entry(k.as_str()).or_default().push(i);
    }
    let mut hits = 0usize;
    for i in 0..20_000u64 {
        hits += table.get(keys[(mix(i) % 10_000) as usize].as_str()).map_or(0, Vec::len);
    }
    let mut rows: Vec<Vec<(u64, String)>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| vec![(i as u64, k.clone()), (mix(i as u64), k[4..].to_string())])
        .collect();
    let copies: Vec<Vec<(u64, String)>> = rows.iter().step_by(2).cloned().collect();
    rows.sort_by(|a, b| a[1].1.cmp(&b[1].1));
    let text = TEXT.repeat(1_000);
    let mut tags = 0usize;
    let mut rest = text.as_str();
    while let Some(open) = rest.find('<') {
        let end = rest[open..].find('>').map_or(rest.len(), |e| open + e);
        tags += black_box(rest[open + 1..end].to_string()).len();
        rest = &rest[end..];
    }
    black_box((hits, rows.len(), copies.len(), tags));
    start.elapsed()
}

const TEXT: &str = "<SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>To be, or not to be: that is \
                    the question</LINE><LINE>Whether 'tis nobler in the mind</LINE></SPEECH>";

fn mix(x: u64) -> u64 {
    let z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^ (z >> 31)
}

/// The probe passes of one run.
#[derive(Debug, Default)]
pub(crate) struct Speed {
    probes: Vec<f64>,
    spent: Duration,
}

impl Speed {
    /// Run one probe pass and keep its time.
    pub(crate) fn probe(&mut self) {
        let d = probe();
        self.probes.push(d.as_secs_f64() * 1e3);
        self.spent += d;
    }

    /// The factor that scales a time measured in this run to the
    /// reference speed (1 before any pass).
    pub(crate) fn scale(&self) -> f64 {
        if self.probes.is_empty() {
            1.0
        } else {
            REFERENCE_MS / median(&self.probes)
        }
    }

    /// Median probe time in milliseconds, and the number of passes.
    pub(crate) fn summary(&self) -> (f64, usize) {
        (median(&self.probes), self.probes.len())
    }

    /// Wall time spent probing.
    pub(crate) fn spent(&self) -> Duration {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_median_probe() {
        let mut s = Speed::default();
        assert_eq!(s.scale(), 1.0);
        s.probe();
        s.probe();
        let (m, n) = s.summary();
        assert_eq!(n, 2);
        assert!(m > 0.0);
        assert!((s.scale() - REFERENCE_MS / m).abs() < 1e-12);
        assert!(s.spent() > Duration::ZERO);
    }
}
