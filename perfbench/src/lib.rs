//! # perfbench — the repository benchmark
//!
//! One command sets up a workload from a seed, runs it closed-loop with
//! tracing off, checks every answer, and prints the end-to-end metrics
//! as one JSON line. With `--trace 1` it instead does a separate traced
//! run that splits the time by layer. `BENCHMARK.json` at the repository
//! root names the command, the workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hybrid-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! ## Workloads
//!
//! Each runs in one process with at most two client threads, with the
//! default planner and executor and a 256 × 8 KiB = 2 MiB buffer pool per
//! database. The corpora are the generator defaults (DSx1): Shakespeare
//! is 12 plays (≈ 815 KB of XML), SIGMOD 400 documents (≈ 1.9 MB).
//!
//! * `hybrid-paper` — one embedded client loops rounds of QS1–QS6 over
//!   Shakespeare and QG1–QG6 over SIGMOD under the Hybrid mapping with
//!   the advisor's indexes. Every query joins and none calls a UDF; the
//!   databases (≈ 4.5 MB and ≈ 4.0 MB) are larger than the pool, so the
//!   join and buffer-pool layers do most of the work.
//! * `xorator-paper` — the same rounds under the XORator mapping. The
//!   databases (≈ 1.4 MB and ≈ 1.2 MB) fit in the pool and QS4 is the only
//!   join, so the XADT/UDF layer does most of the work: a join or pool
//!   change should not move it, and an XADT change should not move
//!   `hybrid-paper`.
//! * `wire-rw` — Shakespeare Hybrid behind an in-process `ordb::net`
//!   server on loopback. A reader connection loops the 40-statement
//!   point-lookup/point-join mix (keys drawn from the seed); a writer
//!   connection loops `BEGIN; DELETE; INSERT; COMMIT` over a fixed
//!   indexed key range of table `churn`, with `VACUUM` every 1,000
//!   commits. Statements take microseconds, so parse, plan and the wire
//!   dominate; it is the only workload with writes (WAL, group commit,
//!   MVCC, vacuum).
//!
//! ## End-to-end metrics (tracing off)
//!
//! Every workload reports every metric, each never 0. A *read* is one
//! statement execution: one paper query, or one reader round trip on
//! `wire-rw`; a *round* is one pass over the workload's read list (the
//! 12 paper queries, or the 40-statement reader mix). Latencies are
//! kept in fixed-size uniform reservoirs (`stats::Reservoir`), so
//! memory does not grow with throughput.
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | median of five set-ups, each open → load → advisor → runstats → flush (plus table `churn` on `wire-rw`) → one warm-up round, which the timed phase does not count |
//! | `peak_rss_mb` | MB | process `VmHWM` at exit |
//! | `bytes_per_xml_byte` | ratio | (data + index bytes) / XML bytes loaded |
//! | `round_p50_ms` | ms | sum of the read latencies of one round |
//! | `query_geomean_ms` | ms | geomean over the round's statements of each one's median latency, so a 1 ms query counts as much as a 50 ms one |
//! | `read_p50_us`, `read_p90_us` | us | latency of one read |
//! | `reads_per_s` | 1/s | reads completed per second |
//! | `db_growth_ratio` | ratio | database file bytes after the timed phase / before it: 1 on the read-only paper workloads; vacuum should hold it near 1 on `wire-rw` |
//!
//! On the paper workloads, times (and `reads_per_s`) are scaled to a
//! reference machine speed measured in the same run by an
//! engine-independent probe (`calib`) after every set-up and every
//! round. `wire-rw` reports raw times: its reads are mostly kernel round
//! trips, which the probe does not track, and scaling widened its
//! run-to-run spread from about 10 % to 20 %. The raw figures and the
//! scale are printed before the JSON line.
//!
//! A tail percentile is lowered until ten samples lie beyond it
//! (`stats::tail_percentile`). The round p90 and read p99 are printed
//! with their sample counts but not gated: on `wire-rw` they moved 2–3×
//! between runs, as the few-millisecond stalls of a shared 2-vCPU VM hit
//! about 1 % of microsecond reads. The writer's commit latency and rate
//! (`commit_p50_us`, `commit_p99_us`, `commits_per_s`) exist only on
//! `wire-rw`, so the traced run reports them with the `wal`/`txn` layer.
//!
//! ## Layer map (traced run)
//!
//! The traced run times calls into each layer's public functions from
//! outside the engine and keeps the spans in memory (`trace`); they are
//! written to `$CARGO_TARGET_DIR/perfbench/trace-<workload>-<seed>.json`
//! at the end. Engine counters are process-global, so the paper
//! workloads trace single-stream (`explain_analyze` in place of `query`),
//! and `wire-rw` reports whole-phase `metrics_snapshot` deltas.
//!
//! | layer | metrics | should move | heavy on | near zero on |
//! |---|---|---|---|---|
//! | `xmlkit`, `core` | `xmlkit.parse_ms`, `core.shred_ms`, `core.load_ms`, `core.advisor_ms`, `core.runstats_ms`, `wal.load_bytes` | `setup_s` | `hybrid-paper` | `xorator-paper` |
//! | `sql`, `plan` | `sql.parse_us`, `plan.plan_us` per statement | `read_p50_us` | `wire-rw` | paper workloads |
//! | `exec` | `exec.<kind>.self_ms`, `exec.<kind>.rows_in` per round | `round_p50_ms`, `query_geomean_ms` | `hash_join` on `hybrid-paper`; `project`/`unnest` on `xorator-paper` | the other paper workload |
//! | `udf`, `xadt` | `udf.<fn>.calls`, `udf.<fn>.bytes` per round; `xadt.unnest_calls`, `xadt.unnest_bytes`; `xadt.get_elm_us_per_kb`, `xadt.find_key_us_per_kb`, `xadt.unnest_us_per_kb` | `query_geomean_ms` | `xorator-paper` | `hybrid-paper` (0 calls) |
//! | `pool`, `index` | `pool.fetches`, `pool.misses`, `pool.evictions`, `pool.hit_ratio`, `index.probes` | `round_p50_ms`, `read_p50_us` | `hybrid-paper` (DB > pool) | `xorator-paper` (fits) |
//! | `net` | `net.wire_overhead_us`, `net.bytes_per_read` | `read_p50_us`, `reads_per_s` | `wire-rw` | paper workloads |
//! | `wal`, `txn` | `commit_p50_us`, `commit_p99_us`, `commits_per_s`, `wal.bytes_per_commit`, `wal.fsyncs_per_commit`, `txn.conflicts`, `vacuum.ms`, `vacuum.reclaimed_versions`, `vacuum.freed_pages`, `heap.reused_slots` | `db_growth_ratio`, `read_p90_us` (writes beside reads) | `wire-rw` | paper workloads (read-only) |
//! | tracing | `trace.overhead` | n/a | | |
//!
//! Definitions:
//!
//! * `<kind>` is one of `seq_scan`, `index_scan`, `filter`, `hash_join`,
//!   `other_join` (nested-loop, index nested-loop, merge), `agg` (hash
//!   aggregate, distinct), `sort`, `unnest` and `project` (project,
//!   limit). Self time is the operator's inclusive time minus its
//!   children's (`stats::self_time`); rows in are the children's
//!   output, or a scan's own output.
//! * `<fn>` is one of `getElm`, `findKeyInElm`, `getElmIndex`, `xtext`;
//!   bytes are the bytes marshalled into the function.
//! * Per-round figures are means over the traced rounds; on `wire-rw` a
//!   round is one pass of the reader mix, and the pool, index, WAL, txn
//!   and vacuum counters cover the whole concurrent phase (a fixed
//!   amount of work: two vacuum intervals of commits beside the reader).
//! * `xadt.*_us_per_kb` time direct `xadt::` calls over every stored
//!   fragment (0 where the mapping stores none).
//! * `wal.load_bytes` is the WAL written during set-up; the other `wal`
//!   metrics cover the measured phase and are 0 on the read-only paper
//!   workloads. Commit latency runs from sending `BEGIN` to the `COMMIT`
//!   acknowledgement.
//! * `net.wire_overhead_us` is the wire p50 minus the embedded `query`
//!   p50 over the same reader statements; `net.bytes_per_read` is the
//!   server's bytes in + out per reader statement.
//! * `trace.overhead` is the traced over the untraced round p50, the two
//!   kinds of round interleaved in one run.
//! * Per-layer times are raw, not scaled by the probe.
//!
//! ## Answer checks
//!
//! Every operation counts as attempted and as failed on any `DbError`,
//! wire error or unexpected conflict, or an answer that differs from its
//! reference. Paper queries are checked against their row count and
//! `stats::digest` under a reference plan (forced merge joins and
//! sequential scans); reader statements against their embedded result,
//! after a check that wire and embedded agree; and after the writer
//! stops, `churn` must hold each key once through its index and through
//! a sequential scan.

#![warn(missing_docs)]

mod calib;
mod paper;
mod scratch;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::time::Duration;

use datagen::{ShakespeareConfig, SigmodConfig};
use ordb::{Database, DbOptions};

use crate::scratch::ScratchDir;
use crate::stats::Reservoir;

/// Set-ups per timed run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 5;

/// Buffer-pool frames per database (256 × 8 KiB = 2 MiB).
pub(crate) const POOL_FRAMES: usize = 256;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 12 paper queries under the Hybrid mapping.
    HybridPaper,
    /// The 12 paper queries under the XORator mapping.
    XoratorPaper,
    /// Wire reader plus transactional writer over Shakespeare Hybrid.
    WireRw,
}

impl Workload {
    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hybrid-paper" => Some(Workload::HybridPaper),
            "xorator-paper" => Some(Workload::XoratorPaper),
            "wire-rw" => Some(Workload::WireRw),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HybridPaper => "hybrid-paper",
            Workload::XoratorPaper => "xorator-paper",
            Workload::WireRw => "wire-rw",
        }
    }
}

/// Corpus size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The generator defaults (DSx1).
    Paper,
    /// A few documents, for tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed for the corpora and the key choices.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Corpus size.
    pub scale: Scale,
}

/// Operation accounting: every operation is attempted; a failed one
/// keeps its first few messages for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations.
    pub tally: Tally,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines (sample counts, sizes) printed before the
    /// JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Latencies of a closed loop over a fixed list of read statements, kept
/// in fixed-size reservoirs.
#[derive(Debug)]
pub(crate) struct ReadPhase {
    /// Per statement, execution latencies in µs.
    pub(crate) by_stmt: Vec<Reservoir>,
    /// Every execution's latency in µs.
    pub(crate) all: Reservoir,
    /// Per completed pass over the list, the sum of its latencies in ms.
    pub(crate) rounds: Reservoir,
    current: Duration,
}

impl ReadPhase {
    /// An empty phase over `statements` statements.
    pub(crate) fn new(statements: usize) -> ReadPhase {
        ReadPhase {
            by_stmt: (0..statements).map(|i| Reservoir::new(2_000, i as u64)).collect(),
            all: Reservoir::new(50_000, u64::MAX),
            rounds: Reservoir::new(10_000, u64::MAX - 1),
            current: Duration::ZERO,
        }
    }

    /// Record one execution of statement `stmt`; the last statement of
    /// the list closes a round.
    pub(crate) fn record(&mut self, stmt: usize, latency: Duration) {
        self.by_stmt[stmt].push(us(latency));
        self.all.push(us(latency));
        self.current += latency;
        if stmt + 1 == self.by_stmt.len() {
            self.rounds.push(ms(std::mem::take(&mut self.current)));
        }
    }

    /// Report `round_p50_ms`, `query_geomean_ms`, `read_p50_us`,
    /// `read_p90_us` and `reads_per_s` (over `active`, the phase's wall
    /// time less any probe passes), times multiplied by `scale` (see
    /// `calib`). The raw figures, and the ungated round p90 and read p99
    /// with their sample counts, go to the notes.
    pub(crate) fn report(&self, active: Duration, scale: f64, report: &mut Report) {
        let per_stmt: Vec<&[f64]> = self.by_stmt.iter().map(Reservoir::samples).collect();
        let round_p50 = stats::median(self.rounds.samples());
        let geomean = stats::geomean_of_medians(&per_stmt) / 1e3;
        let read_p50 = stats::median(self.all.samples());
        let read_p90 = stats::tail_percentile(self.all.samples(), 0.9);
        let reads_per_s = self.all.seen() as f64 / active.as_secs_f64();
        let round_p90 = stats::tail_percentile(self.rounds.samples(), 0.9);
        let read_p99 = stats::tail_percentile(self.all.samples(), 0.99);
        report.notes.push(format!(
            "scale {scale:.4}; raw: round p50 {round_p50:.3} ms, geomean {geomean:.4} ms, \
             read p50 {read_p50:.1} us, read p90 {:.1} us, {reads_per_s:.1} reads/s",
            read_p90.value
        ));
        for (name, p, unit) in
            [("round", round_p90, "ms"), ("read", read_p90, "us"), ("read", read_p99, "us")]
        {
            report.notes.push(format!(
                "{name} p{:.2} = {:.3} {unit} (raw) over {} of {} samples, {} beyond",
                p.quantile * 100.0,
                p.value,
                p.samples,
                if name == "round" { self.rounds.seen() } else { self.all.seen() },
                p.beyond
            ));
        }
        report.metric("round_p50_ms", round_p50 * scale, "ms");
        report.metric("query_geomean_ms", geomean * scale, "ms");
        report.metric("read_p50_us", read_p50 * scale, "us");
        report.metric("read_p90_us", read_p90.value * scale, "us");
        report.metric("reads_per_s", reads_per_s / scale, "1/s");
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = match cfg.workload {
        Workload::HybridPaper | Workload::XoratorPaper => paper::run(cfg)?,
        Workload::WireRw => wire::run(cfg)?,
    };
    if !cfg.trace {
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(report)
}

/// The Shakespeare corpus for `seed`.
pub(crate) fn shakespeare_docs(seed: u64, scale: Scale) -> Vec<String> {
    let cfg = match scale {
        Scale::Paper => ShakespeareConfig { seed, ..Default::default() },
        Scale::Tiny => ShakespeareConfig {
            seed,
            plays: 2,
            acts: 2,
            scenes_per_act: 2,
            speeches_per_scene: 6,
            ..Default::default()
        },
    };
    datagen::generate_shakespeare(&cfg)
}

/// The SIGMOD corpus for `seed`.
pub(crate) fn sigmod_docs(seed: u64, scale: Scale) -> Vec<String> {
    let cfg = match scale {
        Scale::Paper => SigmodConfig { seed, ..Default::default() },
        Scale::Tiny => SigmodConfig { seed, documents: 20, ..Default::default() },
    };
    datagen::generate_sigmod(&cfg)
}

/// A database in its own scratch directory. The database drops before
/// the directory is removed.
pub(crate) struct ScratchDb {
    /// The database.
    pub(crate) db: Database,
    /// Its directory (removed on drop).
    pub(crate) dir: ScratchDir,
}

impl ScratchDb {
    /// Open a fresh database with the benchmark's pool size.
    pub(crate) fn open(tag: &str) -> Result<ScratchDb, String> {
        let dir = ScratchDir::new(tag).map_err(|e| format!("scratch dir: {e}"))?;
        let opts = DbOptions { pool_frames: POOL_FRAMES, ..Default::default() };
        let db = Database::open_with(dir.path(), opts).map_err(|e| format!("open: {e}"))?;
        Ok(ScratchDb { db, dir })
    }

    /// Data plus index bytes on disk.
    pub(crate) fn file_bytes(&self) -> Result<u64, String> {
        let data = self.db.data_size_bytes().map_err(|e| e.to_string())?;
        let index = self.db.index_size_bytes().map_err(|e| e.to_string())?;
        Ok(data + index)
    }
}

/// splitmix64: a small deterministic generator for key choices.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo).max(0) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }
}

/// Milliseconds as a float.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as a float.
pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where
/// `/proc/self/status` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_phase_closes_a_round_on_the_last_statement() {
        let mut p = ReadPhase::new(2);
        p.record(0, Duration::from_millis(1));
        p.record(1, Duration::from_millis(2));
        p.record(0, Duration::from_millis(4));
        assert_eq!(p.rounds.samples(), [3.0]);
        assert_eq!(p.all.seen(), 3);
        assert_eq!(p.by_stmt[0].samples(), [1000.0, 4000.0]);
        let mut r = Report::default();
        p.report(Duration::from_secs(1), 1.0, &mut r);
        assert_eq!(r.get("round_p50_ms"), Some(3.0));
        assert_eq!(r.get("reads_per_s"), Some(3.0));
        assert!((r.get("query_geomean_ms").unwrap() - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn report_json_has_the_four_keys() {
        let mut r = Report::default();
        r.tally.record(Ok(()));
        r.metric("setup_s", 1.25, "s");
        r.metric("x", f64::NAN, "count");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        r.tally.record(Err("boom".into()));
        assert!(r.to_json().starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            let v = a.range(3, 9);
            assert_eq!(v, b.range(3, 9));
            assert!((3..=9).contains(&v));
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
