//! `hybrid-paper` and `xorator-paper`: rounds of the paper's 12 queries
//! (QS1–QS6 over Shakespeare, QG1–QG6 over SIGMOD) under one mapping.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ordb::metrics::OperatorProfile;
use ordb::{Database, ForcedAccess, ForcedJoin, PlanForcing, QueryResult, Value};
use xadt::XadtValue;
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;
use xorator::queries::QueryPair;

use crate::calib::Speed;
use crate::stats::{digest, median, rows_in, self_time, tail_percentile};
use crate::trace::{span, Tracer};
use crate::{ms, us, Config, ReadPhase, Report, ScratchDb, Tally, Workload, SETUP_REPS};

/// The plan answers are checked against: every join a merge join, every
/// table read by a sequential scan, so the default plan's hash joins and
/// index scans are checked by a different plan.
pub(crate) fn reference_plan() -> PlanForcing {
    PlanForcing {
        join: Some(ForcedJoin::Merge),
        access: Some(ForcedAccess::SeqScan),
        ..Default::default()
    }
}

/// Operator kinds the traced run splits execution time into.
pub(crate) const KINDS: [&str; 9] = [
    "seq_scan",
    "index_scan",
    "filter",
    "hash_join",
    "other_join",
    "agg",
    "sort",
    "unnest",
    "project",
];

/// UDFs whose calls and marshalled bytes the traced run reports.
pub(crate) const UDFS: [&str; 4] = ["getElm", "findKeyInElm", "getElmIndex", "xtext"];

/// The operator kind of a profile label (see the crate docs), by index
/// into [`KINDS`].
pub(crate) fn kind_of(label: &str) -> Option<usize> {
    let head = label.split([' ', '(']).next().unwrap_or("");
    let kind = match head {
        "SeqScan" => "seq_scan",
        "IndexScan" => "index_scan",
        "Filter" => "filter",
        "HashJoin" => "hash_join",
        "NestedLoopJoin" | "IndexNestedLoopJoin" | "MergeJoin" => "other_join",
        "HashAggregate" | "Distinct" => "agg",
        "Sort" => "sort",
        "UnnestScan" => "unnest",
        "Project" | "Limit" => "project",
        _ => return None,
    };
    KINDS.iter().position(|k| *k == kind)
}

/// Expected answer of one query: row count and order-insensitive digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Answer {
    /// Rows.
    pub(crate) rows: usize,
    /// [`digest`] of the rows.
    pub(crate) digest: u64,
}

impl Answer {
    /// The answer `result` gives.
    pub(crate) fn of(result: &QueryResult) -> Answer {
        Answer { rows: result.len(), digest: digest(&result.rows) }
    }
}

/// One loaded corpus.
pub(crate) struct Corpus {
    /// The database.
    pub(crate) sdb: ScratchDb,
    /// The mapping it was loaded under.
    pub(crate) mapping: Mapping,
    /// XML bytes loaded.
    pub(crate) xml_bytes: u64,
}

/// Open a fresh database, load `docs` under `mapping`, apply the
/// advisor's indexes for `advisor_sql`, collect statistics and flush.
/// With a tracer, each layer's share is timed by direct calls as well:
/// `xmlkit.parse` and `core.shred` over every document, then
/// `core.load`, `core.advisor`, `core.runstats` and `core.flush`.
pub(crate) fn load(
    tag: &str,
    mapping: Mapping,
    docs: &[String],
    advisor_sql: &[&str],
    tracer: Option<&Tracer>,
) -> Result<Corpus, String> {
    let sdb = ScratchDb::open(tag)?;
    let db = &sdb.db;
    let xml_bytes = docs.iter().map(|d| d.len() as u64).sum();
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{tag} {what}: {e}");
    if let Some(t) = tracer {
        let (format, _) = choose_format(&mapping, docs, LoadOptions::default().sample_docs)
            .map_err(|e| err("format", &e))?;
        let mut shredder = Shredder::new(&mapping, format);
        for text in docs {
            let doc = t
                .span("xmlkit.parse", 0, 0, || xmlkit::parse_document(text))
                .map_err(|e| err("parse", &e))?;
            t.span("core.shred", 0, 0, || shredder.shred_document(&doc))
                .map_err(|e| err("shred", &e))?;
        }
    }
    span(tracer, "core.load", 0, 0, || load_corpus(db, &mapping, docs, LoadOptions::default()))
        .map_err(|e| err("load", &e))?;
    span(tracer, "core.advisor", 0, 0, || advise_and_apply(db, &mapping, advisor_sql))
        .map_err(|e| err("advisor", &e))?;
    span(tracer, "core.runstats", 0, 0, || db.runstats_all()).map_err(|e| err("runstats", &e))?;
    span(tracer, "core.flush", 0, 0, || db.flush()).map_err(|e| err("flush", &e))?;
    Ok(Corpus { sdb, mapping, xml_bytes })
}

/// Both paper corpora loaded under one mapping, with the round's queries.
struct Setup {
    corpora: Vec<Corpus>,
    /// `(id, sql, corpus index)` in round order.
    queries: Vec<(&'static str, &'static str, usize)>,
}

fn load_setup(
    cfg: &Config,
    docs: &[Vec<String>; 2],
    tracer: Option<&Tracer>,
) -> Result<Setup, String> {
    let hybrid = cfg.workload == Workload::HybridPaper;
    let sets: [(&str, &str, Vec<QueryPair>); 2] = [
        ("shakespeare", xorator::dtds::SHAKESPEARE_DTD, shakespeare_queries()),
        ("sigmod", xorator::dtds::SIGMOD_DTD, sigmod_queries()),
    ];
    let mut corpora = Vec::new();
    let mut queries = Vec::new();
    for (i, (tag, dtd, pairs)) in sets.into_iter().enumerate() {
        let simple = simplify(&parse_dtd(dtd).map_err(|e| format!("{tag} dtd: {e}"))?);
        let mapping = if hybrid { map_hybrid(&simple) } else { map_xorator(&simple) };
        let advisor_sql: Vec<&str> = pairs.iter().flat_map(|q| [q.hybrid, q.xorator]).collect();
        let tag = format!("{}-{tag}", cfg.workload.name());
        corpora.push(load(&tag, mapping, &docs[i], &advisor_sql, tracer)?);
        queries.extend(pairs.iter().map(|q| (q.id, if hybrid { q.hybrid } else { q.xorator }, i)));
    }
    Ok(Setup { corpora, queries })
}

/// Compare a query outcome with its expected answer.
fn check(id: &str, got: ordb::Result<Answer>, want: Option<Answer>) -> Result<(), String> {
    match (got, want) {
        (Err(e), _) => Err(format!("{id}: {e}")),
        (Ok(_), None) => Err(format!("{id}: no reference answer")),
        (Ok(got), Some(want)) if got != want => Err(format!("{id}: got {got:?}, want {want:?}")),
        _ => Ok(()),
    }
}

/// Run the workload.
pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let docs =
        [crate::shakespeare_docs(cfg.seed, cfg.scale), crate::sigmod_docs(cfg.seed, cfg.scale)];
    if cfg.trace {
        return run_traced(cfg, &docs);
    }
    let mut tally = Tally::default();

    // Set-up, timed several times; the last instance is measured. A
    // probe pass follows each set-up and each round (see `calib`).
    let mut speed = Speed::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t0 = Instant::now();
        let s = load_setup(cfg, &docs, None)?;
        for &(_, sql, c) in &s.queries {
            let _ = s.corpora[c].sdb.db.query(sql);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
        speed.probe();
    }
    let setup = setup.expect("at least one set-up");
    let before: Vec<u64> =
        setup.corpora.iter().map(|c| c.sdb.file_bytes()).collect::<Result<_, _>>()?;
    let expected = reference_answers(&setup, &mut tally);

    // Timed phase: closed-loop rounds until the deadline.
    let mut phase = ReadPhase::new(setup.queries.len());
    let probing = speed.spent();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    while phase.rounds.seen() == 0 || Instant::now() < deadline {
        for (qi, &(id, sql, c)) in setup.queries.iter().enumerate() {
            let t = Instant::now();
            let result = setup.corpora[c].sdb.db.query(sql);
            phase.record(qi, t.elapsed());
            tally.record(check(id, result.map(|r| Answer::of(&r)), expected[qi]));
        }
        speed.probe();
    }
    let active = t0.elapsed().saturating_sub(speed.spent() - probing);

    let mut report = Report { tally, ..Default::default() };
    let (mut stored, mut after) = (0, 0);
    for (c, bytes) in setup.corpora.iter().zip(&before) {
        let now = c.sdb.file_bytes()?;
        after += now;
        stored += bytes;
        report.notes.push(format!(
            "{}: {} tables, {:.2} MB stored for {:.2} MB of XML",
            c.sdb.dir.path().display(),
            c.sdb.db.table_count(),
            now as f64 / 1048576.0,
            c.xml_bytes as f64 / 1048576.0,
        ));
    }
    let xml: u64 = setup.corpora.iter().map(|c| c.xml_bytes).sum();
    report.notes.push(format!("set-ups: {setup_s:?} s"));
    for (qi, &(id, ..)) in setup.queries.iter().enumerate() {
        report.notes.push(format!("{id}: median {:.1} us", median(phase.by_stmt[qi].samples())));
    }
    let (probe_ms, probes) = speed.summary();
    report.notes.push(format!("speed: {probes} probe passes, median {probe_ms:.3} ms"));
    report.metric("setup_s", median(&setup_s) * speed.scale(), "s");
    report.metric("bytes_per_xml_byte", stored as f64 / xml as f64, "ratio");
    phase.report(active, speed.scale(), &mut report);
    report.metric("db_growth_ratio", after as f64 / stored as f64, "ratio");
    Ok(report)
}

/// Run each query once under [`reference_plan`]; a failure leaves that
/// query without an expected answer, so each later run of it fails.
fn reference_answers(setup: &Setup, tally: &mut Tally) -> Vec<Option<Answer>> {
    setup
        .queries
        .iter()
        .map(|&(id, sql, c)| {
            let r = setup.corpora[c].sdb.db.query_with_forcing(sql, Some(reference_plan()));
            let answer = r.as_ref().ok().map(Answer::of);
            tally.record(r.map(drop).map_err(|e| format!("{id} reference plan: {e}")));
            answer
        })
        .collect()
}

/// Per-round layer counters summed from `explain_analyze` reports.
#[derive(Debug, Default)]
pub(crate) struct LayerSums {
    /// Statements analysed.
    pub(crate) statements: u64,
    /// Plan time inside the engine.
    pub(crate) plan: Duration,
    /// Per kind: self time and rows in.
    pub(crate) exec: [(Duration, u64); KINDS.len()],
    /// Per UDF: calls and marshalled bytes.
    pub(crate) udfs: BTreeMap<String, (u64, u64)>,
    /// `unnest` calls and bytes.
    pub(crate) unnest: (u64, u64),
    /// Pool hits, misses, evictions.
    pub(crate) pool: (u64, u64, u64),
    /// B+Tree probes.
    pub(crate) index_probes: u64,
    /// WAL bytes and fsyncs.
    pub(crate) wal: (u64, u64),
}

impl LayerSums {
    /// Fold one statement's metrics in.
    pub(crate) fn add(&mut self, m: &ordb::QueryMetrics) {
        self.statements += 1;
        self.plan += m.plan;
        if let Some(root) = &m.root {
            self.add_ops(root);
        }
        for u in &m.udfs {
            let e = self.udfs.entry(u.name.clone()).or_default();
            e.0 += u.calls;
            e.1 += u.marshalled_bytes;
        }
        self.unnest.0 += m.engine.unnest_calls;
        self.unnest.1 += m.engine.unnest_bytes;
        self.pool.0 += m.pool.hits;
        self.pool.1 += m.pool.misses;
        self.pool.2 += m.pool.evictions;
        self.index_probes += m.engine.index_probes;
        self.wal.0 += m.wal.bytes;
        self.wal.1 += m.wal.fsyncs;
    }

    fn add_ops(&mut self, op: &OperatorProfile) {
        if let Some(k) = kind_of(&op.label) {
            self.exec[k].0 += self_time(op);
            self.exec[k].1 += rows_in(op);
        }
        for c in &op.children {
            self.add_ops(c);
        }
    }

    /// Report the exec, UDF, XADT-counter and statement metrics, each
    /// divided by `rounds`.
    pub(crate) fn report_per_round(&self, rounds: f64, report: &mut Report) {
        let per_stmt = self.statements.max(1) as f64;
        report.metric("plan.plan_us", us(self.plan) / per_stmt, "us");
        for (k, kind) in KINDS.iter().enumerate() {
            report.metric(format!("exec.{kind}.self_ms"), ms(self.exec[k].0) / rounds, "ms");
            report.metric(format!("exec.{kind}.rows_in"), self.exec[k].1 as f64 / rounds, "count");
        }
        for f in UDFS {
            let (calls, bytes) = self.udfs.get(f).copied().unwrap_or_default();
            report.metric(format!("udf.{f}.calls"), calls as f64 / rounds, "count");
            report.metric(format!("udf.{f}.bytes"), bytes as f64 / rounds, "bytes");
        }
        report.metric("xadt.unnest_calls", self.unnest.0 as f64 / rounds, "count");
        report.metric("xadt.unnest_bytes", self.unnest.1 as f64 / rounds, "bytes");
    }
}

/// Pool and index metrics from raw counts, divided by `per`.
pub(crate) fn report_pool(
    hits: u64,
    misses: u64,
    evictions: u64,
    probes: u64,
    per: f64,
    r: &mut Report,
) {
    let fetches = hits + misses;
    r.metric("pool.fetches", fetches as f64 / per, "count");
    r.metric("pool.misses", misses as f64 / per, "count");
    r.metric("pool.evictions", evictions as f64 / per, "count");
    r.metric(
        "pool.hit_ratio",
        if fetches == 0 { 0.0 } else { hits as f64 / fetches as f64 },
        "ratio",
    );
    r.metric("index.probes", probes as f64 / per, "count");
}

/// Set-up layer metrics from a traced load.
pub(crate) fn report_setup_layers(tracer: &Tracer, wal_load_bytes: u64, report: &mut Report) {
    report.metric("xmlkit.parse_ms", ms(tracer.total("xmlkit.parse")), "ms");
    report.metric("core.shred_ms", ms(tracer.total("core.shred")), "ms");
    report.metric("core.load_ms", ms(tracer.total("core.load")), "ms");
    report.metric("core.advisor_ms", ms(tracer.total("core.advisor")), "ms");
    report.metric("core.runstats_ms", ms(tracer.total("core.runstats")), "ms");
    report.metric("wal.load_bytes", wal_load_bytes as f64, "bytes");
}

/// Mean `ordb::sql::parse_statement` time per statement, from direct
/// calls (`reps` per statement) recorded as `sql.parse` spans.
pub(crate) fn parse_us(tracer: &Tracer, statements: &[&str], reps: usize) -> Result<f64, String> {
    for sql in statements {
        for _ in 0..reps {
            tracer
                .span("sql.parse", 0, 0, || ordb::sql::parse_statement(sql))
                .map_err(|e| format!("parse {sql}: {e}"))?;
        }
    }
    Ok(us(tracer.total("sql.parse")) / tracer.count("sql.parse").max(1) as f64)
}

/// Wall time of `xadt` method passes over every stored fragment, in
/// microseconds per KB of fragment text: `(getElm, findKeyInElm,
/// unnest)`, each the median of three passes. Zeros when the databases
/// store no fragments (the Hybrid mapping).
fn xadt_us_per_kb(corpora: &[Corpus], tracer: &Tracer) -> Result<[f64; 3], String> {
    let mut frags: Vec<(XadtValue, String)> = Vec::new();
    for c in corpora {
        for (table, col) in c.mapping.xadt_columns() {
            let r =
                c.sdb.db.query(&format!("SELECT {col} FROM {table}")).map_err(|e| e.to_string())?;
            for row in r.rows {
                if let Some(Value::Xadt(x)) = row.into_iter().next() {
                    let top = first_tag(&x).map_err(|e| e.to_string())?;
                    if let Some(tag) = top {
                        frags.push((x, tag));
                    }
                }
            }
        }
    }
    let kb: f64 = frags.iter().map(|(x, _)| x.to_plain().len() as f64).sum::<f64>() / 1024.0;
    if frags.is_empty() || kb == 0.0 {
        return Ok([0.0; 3]);
    }
    let pass = |name: &'static str,
                f: &dyn Fn(&XadtValue, &str) -> Result<(), xadt::FragmentError>| {
        let mut times = Vec::new();
        for _ in 0..3 {
            let open = tracer.open(name, 0, 0);
            for (x, tag) in &frags {
                f(x, tag).map_err(|e| format!("{name}: {e}"))?;
            }
            times.push(us(tracer.close(open)) / kb);
        }
        Ok::<f64, String>(median(&times))
    };
    Ok([
        pass("xadt.get_elm", &|x, tag| xadt::get_elm(x, tag, tag, "", None).map(drop))?,
        pass("xadt.find_key", &|x, tag| xadt::find_key_in_elm(x, tag, "\u{1}absent").map(drop))?,
        pass("xadt.unnest", &|x, tag| xadt::unnest(x, tag).map(drop))?,
    ])
}

/// The name of a fragment's first element.
fn first_tag(x: &XadtValue) -> Result<Option<String>, xadt::FragmentError> {
    let mut events = x.events()?;
    while let Some(ev) = events.next()? {
        if let xadt::Event::Start { name, .. } = ev {
            return Ok(Some(name.to_string()));
        }
    }
    Ok(None)
}

/// The traced run: a traced set-up, then rounds alternating plain
/// `query` (timed, for the overhead ratio) with `explain_analyze`
/// (spans per statement, profiles and counter deltas) until the
/// deadline, then direct parse and XADT calls.
fn run_traced(cfg: &Config, docs: &[Vec<String>; 2]) -> Result<Report, String> {
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let setup = load_setup(cfg, docs, Some(&tracer))?;
    let wal_load: u64 = setup.corpora.iter().map(|c| wal_bytes(&c.sdb.db)).sum();
    let expected = reference_answers(&setup, &mut tally);

    let mut sums = LayerSums::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut stmt = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while traced.len() < 2 || Instant::now() < deadline {
        let t = Instant::now();
        for (qi, &(id, sql, c)) in setup.queries.iter().enumerate() {
            let r = setup.corpora[c].sdb.db.query(sql);
            tally.record(check(id, r.map(|r| Answer::of(&r)), expected[qi]));
        }
        plain.push(ms(t.elapsed()));

        let round = tracer.open("round", 0, 0);
        for (qi, &(id, sql, c)) in setup.queries.iter().enumerate() {
            stmt += 1;
            let db = &setup.corpora[c].sdb.db;
            let r = tracer.span("ordb.explain_analyze", round.id, stmt, || db.explain_analyze(sql));
            if let Ok(rep) = &r {
                sums.add(&rep.metrics);
            }
            tally.record(check(id, r.map(|r| Answer::of(&r.result)), expected[qi]));
        }
        traced.push(ms(tracer.close(round)));
    }

    let rounds = traced.len() as f64;
    let mut report = Report { tally, ..Default::default() };
    report_setup_layers(&tracer, wal_load, &mut report);
    let sqls: Vec<&str> = setup.queries.iter().map(|q| q.1).collect();
    report.metric("sql.parse_us", parse_us(&tracer, &sqls, 20)?, "us");
    sums.report_per_round(rounds, &mut report);
    let [get_elm, find_key, unnest] = xadt_us_per_kb(&setup.corpora, &tracer)?;
    report.metric("xadt.get_elm_us_per_kb", get_elm, "us/KB");
    report.metric("xadt.find_key_us_per_kb", find_key, "us/KB");
    report.metric("xadt.unnest_us_per_kb", unnest, "us/KB");
    let (hits, misses, evictions) = sums.pool;
    report_pool(hits, misses, evictions, sums.index_probes, rounds, &mut report);
    report.metric("net.wire_overhead_us", 0.0, "us");
    report.metric("net.bytes_per_read", 0.0, "bytes");
    let writes = WriteSums { wal_bytes: sums.wal.0, fsyncs: sums.wal.1, ..Default::default() };
    writes.report(&mut report);
    report.metric("trace.overhead", median(&traced) / median(&plain), "ratio");
    report.notes.push(format!("traced rounds: {}; plain rounds: {}", traced.len(), plain.len()));
    write_trace(cfg, &tracer, &mut report);
    Ok(report)
}

/// Write-path totals of a measured phase.
#[derive(Debug, Default)]
pub(crate) struct WriteSums {
    /// Transactions committed.
    pub(crate) commits: u64,
    /// Commit latencies in µs (all of them, or a uniform sample).
    pub(crate) commit_us: Vec<f64>,
    /// Length of the phase.
    pub(crate) elapsed: Duration,
    /// WAL bytes appended.
    pub(crate) wal_bytes: u64,
    /// WAL fsyncs.
    pub(crate) fsyncs: u64,
    /// Write-write conflicts.
    pub(crate) conflicts: u64,
    /// `VACUUM` passes and their total time.
    pub(crate) vacuums: (u64, Duration),
    /// Versions reclaimed and pages freed by vacuum.
    pub(crate) reclaimed: (u64, u64),
    /// Heap slots reused by inserts.
    pub(crate) reused_slots: u64,
}

impl WriteSums {
    /// Report the commit latency, `wal`, `txn`, `vacuum` and `heap`
    /// metrics. Per-commit figures divide by at least one commit, so a
    /// read-only phase that wrote anything still shows it.
    pub(crate) fn report(&self, r: &mut Report) {
        let secs = self.elapsed.as_secs_f64();
        let per_s = if secs > 0.0 { self.commits as f64 / secs } else { 0.0 };
        r.metric("commit_p50_us", median(&self.commit_us), "us");
        r.metric("commit_p99_us", tail_percentile(&self.commit_us, 0.99).value, "us");
        r.metric("commits_per_s", per_s, "1/s");
        let commits = self.commits.max(1) as f64;
        r.metric("wal.bytes_per_commit", self.wal_bytes as f64 / commits, "bytes");
        r.metric("wal.fsyncs_per_commit", self.fsyncs as f64 / commits, "count");
        r.metric("txn.conflicts", self.conflicts as f64, "count");
        let vacuum_ms = ms(self.vacuums.1) / self.vacuums.0.max(1) as f64;
        r.metric("vacuum.ms", vacuum_ms, "ms");
        r.metric("vacuum.reclaimed_versions", self.reclaimed.0 as f64, "count");
        r.metric("vacuum.freed_pages", self.reclaimed.1 as f64, "count");
        r.metric("heap.reused_slots", self.reused_slots as f64, "count");
    }
}

/// WAL bytes appended since the database opened.
pub(crate) fn wal_bytes(db: &Database) -> u64 {
    db.wal_stats().map_or(0, |w| w.bytes)
}

/// Write the spans under the benchmark's directory and note where.
pub(crate) fn write_trace(cfg: &Config, tracer: &Tracer, report: &mut Report) {
    let path =
        crate::scratch::base_dir().join(format!("trace-{}-{}.json", cfg.workload.name(), cfg.seed));
    match tracer.write_json(&path) {
        Ok(()) => report.notes.push(format!("spans written to {}", path.display())),
        Err(e) => report.notes.push(format!("spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_map_to_kinds() {
        let kind = |l: &str| kind_of(l).map(|k| KINDS[k]);
        assert_eq!(kind("SeqScan speech"), Some("seq_scan"));
        assert_eq!(kind("IndexScan(=) speech"), Some("index_scan"));
        assert_eq!(kind("Filter (join edge)"), Some("filter"));
        assert_eq!(kind("HashJoin line"), Some("hash_join"));
        assert_eq!(kind("IndexNestedLoopJoin author"), Some("other_join"));
        assert_eq!(kind("NestedLoopJoin (cross) x"), Some("other_join"));
        assert_eq!(kind("MergeJoin a"), Some("other_join"));
        assert_eq!(kind("HashAggregate"), Some("agg"));
        assert_eq!(kind("UnnestScan u1"), Some("unnest"));
        assert_eq!(kind("Limit 5"), Some("project"));
        assert_eq!(kind("Mystery"), None);
    }
}
