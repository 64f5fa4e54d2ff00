//! `wire-rw`: Shakespeare Hybrid served over loopback to one reader and
//! one transactional writer connection.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ordb::{Client, Database, ForcedAccess, PlanForcing, QueryResult, Row, Server, Value};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;

use crate::paper::{self, LayerSums, WriteSums};
use crate::stats::{median, Reservoir};
use crate::trace::{span, Tracer};
use crate::{us, Config, ReadPhase, Report, Rng, Scale, ScratchDb, Tally, SETUP_REPS};

/// Keys of table `churn`, each held by exactly one row.
pub(crate) const CHURN_KEYS: i64 = 256;

/// Commits between the writer's `VACUUM` statements.
pub(crate) fn vacuum_every(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 1000,
        Scale::Tiny => 50,
    }
}

/// The loaded database and what the clients send it.
struct Setup {
    sdb: ScratchDb,
    /// The reader's statements.
    mix: Vec<String>,
    /// The writer's key order.
    keys: Vec<i64>,
}

/// Load Shakespeare under Hybrid with the advisor's indexes, create and
/// fill `churn`, and draw the reader mix and writer key order from the
/// seed.
fn load_setup(cfg: &Config, docs: &[String], tracer: Option<&Tracer>) -> Result<Setup, String> {
    let simple =
        simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).map_err(|e| format!("dtd: {e}"))?);
    let pairs = shakespeare_queries();
    let advisor_sql: Vec<&str> = pairs.iter().flat_map(|q| [q.hybrid, q.xorator]).collect();
    let corpus = paper::load("wire-rw", map_hybrid(&simple), docs, &advisor_sql, tracer)?;
    let sdb = corpus.sdb;
    let db = &sdb.db;
    let err = |e: ordb::DbError| format!("churn set-up: {e}");
    db.execute("CREATE TABLE churn (k INTEGER, v VARCHAR)").map_err(err)?;
    db.execute("CREATE INDEX churn_k ON churn (k)").map_err(err)?;
    let rows: Vec<Row> =
        (0..CHURN_KEYS).map(|k| vec![Value::Int(k), Value::str(format!("v{k}-init"))]).collect();
    db.insert_rows("churn", rows).map_err(err)?;
    db.flush().map_err(err)?;

    let mut rng = Rng::new(cfg.seed);
    let mix = reader_mix(db, &mut rng)?;
    let mut keys: Vec<i64> = (0..CHURN_KEYS).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.range(0, i as i64) as usize);
    }
    Ok(Setup { sdb, mix, keys })
}

/// The serving mix: 16 point lookups by speech ID, 16 lookups by parent
/// ID and 8 speech ⋈ speaker point joins. Keys are drawn from the seed,
/// one from each equal slice of the ID range: a parent-ID lookup finds
/// rows only for the low IDs that parent tables also use, so unstratified
/// draws would change the mix's cost from seed to seed.
fn reader_mix(db: &Database, rng: &mut Rng) -> Result<Vec<String>, String> {
    let r = db
        .query("SELECT MIN(speechID), MAX(speechID) FROM speech")
        .map_err(|e| format!("id range: {e}"))?;
    let lo = r.rows[0][0].as_int().unwrap_or(0);
    let hi = r.rows[0][1].as_int().unwrap_or(lo);
    let span = hi - lo + 1;
    let mut key = |slice: i64, slices: i64| lo + (span * slice + rng.range(0, span - 1)) / slices;
    let mut mix = Vec::new();
    for i in 0..16 {
        let id = key(i, 16);
        mix.push(format!(
            "SELECT speech_parentID, speech_parentCODE FROM speech WHERE speechID = {id}"
        ));
        mix.push(format!("SELECT speechID FROM speech WHERE speech_parentID = {id}"));
    }
    for i in 0..8 {
        let id = key(i, 8);
        mix.push(format!(
            "SELECT speechID, speaker_value FROM speech, speaker \
             WHERE speaker_parentID = speechID AND speechID = {id}"
        ));
    }
    Ok(mix)
}

/// A running server over the set-up database. [`Served::finish`] stops
/// it and waits until every connection has let go of the database.
struct Served {
    db: Arc<Database>,
    dir: crate::scratch::ScratchDir,
    handle: ordb::ServerHandle,
    addr: SocketAddr,
}

impl Served {
    fn start(sdb: ScratchDb) -> Result<Served, String> {
        let db = Arc::new(sdb.db);
        let server = Server::bind(db.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        Ok(Served { db, dir: sdb.dir, handle: server.spawn(), addr })
    }

    fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Stop serving, then drop the database before its directory.
    fn finish(self) {
        self.handle.stop();
        let mut db = self.db;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Arc::try_unwrap(db) {
                Ok(db) => {
                    drop(db);
                    break;
                }
                Err(shared) if Instant::now() < deadline => {
                    db = shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        drop(self.dir);
    }
}

/// What the reader did.
struct ReaderRun {
    tally: Tally,
    /// Plain reads.
    plain: ReadPhase,
    /// Reads inside `wire.read` spans (traced run only).
    traced: ReadPhase,
}

/// Loop the reader mix until `stop`, checking each result against the
/// embedded one. With a tracer every other pass over the mix records a
/// `wire.read` span per statement.
fn reader(
    c: &mut Client,
    mix: &[String],
    expected: &[QueryResult],
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> ReaderRun {
    let mut run = ReaderRun {
        tally: Tally::default(),
        plain: ReadPhase::new(mix.len()),
        traced: ReadPhase::new(mix.len()),
    };
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let q = i % mix.len();
        let traced = tracer.filter(|_| (i / mix.len()) % 2 == 1);
        let t = Instant::now();
        let r = span(traced, "wire.read", 0, i as u64 + 1, || c.query(&mix[q]));
        let phase = if traced.is_some() { &mut run.traced } else { &mut run.plain };
        phase.record(q, t.elapsed());
        run.tally.record(match r {
            Ok(r) if r == expected[q] => Ok(()),
            Ok(r) => {
                Err(format!("read {q}: {} rows over the wire, want {}", r.len(), expected[q].len()))
            }
            Err(e) => Err(format!("read {q}: {e}")),
        });
        i += 1;
    }
    run
}

/// One writer transaction on key `k`: BEGIN, DELETE, INSERT, COMMIT,
/// each expected to affect exactly one row (0 for BEGIN/COMMIT).
fn transaction(
    c: &mut Client,
    k: i64,
    n: u64,
    tracer: Option<&Tracer>,
    parent: u64,
) -> Result<(), String> {
    let stmts = [
        ("BEGIN".to_string(), 0),
        (format!("DELETE FROM churn WHERE k = {k}"), 1),
        (format!("INSERT INTO churn VALUES ({k}, 'v{k}-{n:08}')"), 1),
        ("COMMIT".to_string(), 0),
    ];
    for (sql, want) in &stmts {
        let got = span(tracer, "wire.execute", parent, n + 1, || c.execute(sql));
        match got {
            Ok(got) if got == *want => {}
            Ok(got) => return Err(format!("{sql}: {got} rows affected, want {want}")),
            Err(e) => return Err(format!("{sql}: {e}")),
        }
    }
    Ok(())
}

/// What the writer did.
struct WriterRun {
    tally: Tally,
    /// Latency of each committed transaction, BEGIN sent to COMMIT
    /// acknowledged, in µs.
    commits: Reservoir,
    /// `VACUUM` statements and their total time.
    vacuums: (u64, Duration),
}

/// Commit transactions round the key order until `stop` (or `limit`
/// commits), with `VACUUM` every `vacuum_every` commits. A failed
/// transaction is rolled back so the next one starts clean.
fn writer(
    c: &mut Client,
    keys: &[i64],
    vacuum_every: u64,
    stop: &AtomicBool,
    limit: Option<u64>,
    tracer: Option<&Tracer>,
) -> WriterRun {
    let mut run = WriterRun {
        tally: Tally::default(),
        commits: Reservoir::new(50_000, 0),
        vacuums: (0, Duration::ZERO),
    };
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) && limit.is_none_or(|l| n < l) {
        let k = keys[n as usize % keys.len()];
        let start = Instant::now();
        let open = tracer.map(|tr| tr.open("wire.txn", 0, n + 1));
        let r = transaction(c, k, n, tracer, open.as_ref().map_or(0, |o| o.id));
        if let (Some(tr), Some(open)) = (tracer, open) {
            tr.close(open);
        }
        if r.is_ok() {
            run.commits.push(us(start.elapsed()));
        } else {
            let _ = c.execute("ROLLBACK");
        }
        run.tally.record(r);
        n += 1;
        if n.is_multiple_of(vacuum_every) {
            let t = Instant::now();
            let r = span(tracer, "wire.vacuum", 0, 0, || c.execute("VACUUM"));
            run.vacuums.0 += 1;
            run.vacuums.1 += t.elapsed();
            run.tally.record(r.map(drop).map_err(|e| format!("VACUUM: {e}")));
        }
    }
    run
}

/// Wire and embedded results of every reader statement must agree; the
/// embedded ones become the expected answers.
fn verify_mix(
    served: &Served,
    mix: &[String],
    tally: &mut Tally,
) -> Result<Vec<QueryResult>, String> {
    let mut c = served.connect()?;
    let mut expected = Vec::new();
    for (q, sql) in mix.iter().enumerate() {
        let local = served.db.query(sql);
        let remote = c.query(sql);
        tally.record(match (&local, &remote) {
            (Ok(l), Ok(r)) if l == r => Ok(()),
            (Ok(_), Ok(_)) => Err(format!("read {q}: wire and embedded results differ")),
            (Err(e), _) | (_, Err(e)) => Err(format!("read {q}: {e}")),
        });
        expected.push(local.unwrap_or(QueryResult { columns: Vec::new(), rows: Vec::new() }));
    }
    let _ = c.close();
    Ok(expected)
}

/// After the writer stops, `churn` must hold every key exactly once,
/// read through its index and through a sequential scan.
fn verify_churn(db: &Database, tally: &mut Tally) {
    for access in [ForcedAccess::IndexScan, ForcedAccess::SeqScan] {
        let forcing = PlanForcing { access: Some(access), ..Default::default() };
        let r = db.query_with_forcing("SELECT k FROM churn WHERE k >= 0", Some(forcing));
        tally.record(match r {
            Ok(r) => {
                let mut keys: Vec<i64> = r.rows.iter().filter_map(|row| row[0].as_int()).collect();
                keys.sort_unstable();
                if keys == (0..CHURN_KEYS).collect::<Vec<_>>() {
                    Ok(())
                } else {
                    Err(format!("churn via {access:?}: {} rows, keys not each once", keys.len()))
                }
            }
            Err(e) => Err(format!("churn via {access:?}: {e}")),
        });
    }
}

/// Run the workload.
pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let docs = crate::shakespeare_docs(cfg.seed, cfg.scale);
    if cfg.trace {
        return run_traced(cfg, &docs);
    }
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take());
        let t0 = Instant::now();
        let s = load_setup(cfg, &docs, None)?;
        for sql in &s.mix {
            let _ = s.sdb.db.query(sql);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let Setup { sdb, mix, keys } = setup.expect("at least one set-up");
    let before = sdb.file_bytes()?;
    let served = Served::start(sdb)?;
    let expected = verify_mix(&served, &mix, &mut tally)?;

    let (mut rc, mut wc) = (served.connect()?, served.connect()?);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (reads, writes) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(&mut rc, &mix, &expected, &stop, None));
        let w = s.spawn(|| writer(&mut wc, &keys, vacuum_every(cfg.scale), &stop, None, None));
        std::thread::sleep(Duration::from_secs_f64(cfg.seconds));
        stop.store(true, Ordering::Relaxed);
        (r.join().expect("reader thread"), w.join().expect("writer thread"))
    });
    let elapsed = t0.elapsed();
    let _ = rc.close();
    let _ = wc.close();
    let after = served.db.data_size_bytes().map_err(|e| e.to_string())?
        + served.db.index_size_bytes().map_err(|e| e.to_string())?;
    verify_churn(&served.db, &mut tally);
    served.finish();

    let mut report = Report::default();
    let xml: usize = docs.iter().map(String::len).sum();
    report.notes.push(format!(
        "set-ups: {setup_s:?} s; file bytes {before} -> {after}; {} commits at p50 {:.1} us, \
         {} vacuums",
        writes.commits.seen(),
        median(writes.commits.samples()),
        writes.vacuums.0
    ));
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("bytes_per_xml_byte", before as f64 / xml as f64, "ratio");
    // Unscaled: a wire read is mostly kernel round trip, which the probe
    // does not track; scaling widened the spread between runs.
    reads.plain.report(elapsed, 1.0, &mut report);
    report.metric("db_growth_ratio", after as f64 / before as f64, "ratio");
    tally.merge(reads.tally);
    tally.merge(writes.tally);
    report.tally = tally;
    Ok(report)
}

/// The traced run: a traced set-up; single-stream embedded
/// `explain_analyze` and `query` passes of the reader mix until the
/// deadline; wire passes for the wire overhead; then the reader beside a
/// writer doing two vacuum intervals of commits, with whole-phase
/// counter deltas.
fn run_traced(cfg: &Config, docs: &[String]) -> Result<Report, String> {
    let tracer = Tracer::default();
    let mut tally = Tally::default();
    let Setup { sdb, mix, keys } = load_setup(cfg, docs, Some(&tracer))?;
    let wal_load = paper::wal_bytes(&sdb.db);
    let served = Served::start(sdb)?;
    let db = &served.db;
    let expected = verify_mix(&served, &mix, &mut tally)?;
    let mut report = Report::default();
    paper::report_setup_layers(&tracer, wal_load, &mut report);
    let sqls: Vec<&str> = mix.iter().map(String::as_str).collect();
    report.metric("sql.parse_us", paper::parse_us(&tracer, &sqls, 20)?, "us");

    // Single-stream until the deadline: per-statement profiles, and the
    // embedded p50 that the wire p50 is compared with. Spans cover the
    // first passes only, to keep the trace file small.
    let mut sums = LayerSums::default();
    let mut embedded = Vec::new();
    let mut stmt = 0u64;
    let mut passes = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while passes < 2 || Instant::now() < deadline {
        passes += 1;
        for (q, sql) in mix.iter().enumerate() {
            stmt += 1;
            let traced = (passes <= 50).then_some(&tracer);
            let r = span(traced, "ordb.explain_analyze", 0, stmt, || db.explain_analyze(sql));
            if let Ok(rep) = &r {
                sums.add(&rep.metrics);
            }
            tally.record(match r {
                Ok(rep) if rep.result == expected[q] => Ok(()),
                Ok(_) => Err(format!("read {q}: analyzed result differs")),
                Err(e) => Err(format!("read {q}: {e}")),
            });
            let t = Instant::now();
            let r = db.query(sql);
            embedded.push(us(t.elapsed()));
            tally.record(r.map(drop).map_err(|e| format!("read {q}: {e}")));
        }
    }
    sums.report_per_round(passes as f64, &mut report);
    report.metric("xadt.get_elm_us_per_kb", 0.0, "us/KB");
    report.metric("xadt.find_key_us_per_kb", 0.0, "us/KB");
    report.metric("xadt.unnest_us_per_kb", 0.0, "us/KB");

    let mut c = served.connect()?;
    let net0 = db.metrics_snapshot();
    let mut wire = Vec::new();
    for _ in 0..20 {
        for (q, sql) in mix.iter().enumerate() {
            let t = Instant::now();
            let r = c.query(sql);
            wire.push(us(t.elapsed()));
            tally.record(match r {
                Ok(r) if r == expected[q] => Ok(()),
                Ok(_) => Err(format!("read {q}: wire result differs")),
                Err(e) => Err(format!("read {q}: {e}")),
            });
        }
    }
    let net = db.metrics_snapshot().since(&net0).net;
    let net_bytes_per_read = (net.bytes_in + net.bytes_out) as f64 / wire.len() as f64;

    // Concurrent phase: the reader runs beside two vacuum intervals of
    // commits, so inserts after the first pass can reuse its slots;
    // counters are whole-phase deltas.
    let mut wc = served.connect()?;
    let stop = AtomicBool::new(false);
    let before = db.metrics_snapshot();
    let t0 = Instant::now();
    let (reads, writes) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(&mut c, &mix, &expected, &stop, Some(&tracer)));
        let every = vacuum_every(cfg.scale);
        let w =
            writer(&mut wc, &keys, every, &AtomicBool::new(false), Some(2 * every), Some(&tracer));
        stop.store(true, Ordering::Relaxed);
        (r.join().expect("reader thread"), w)
    });
    let phase_elapsed = t0.elapsed();
    let d = db.metrics_snapshot().since(&before);
    let _ = c.close();
    let _ = wc.close();
    verify_churn(db, &mut tally);

    paper::report_pool(
        d.pool.hits,
        d.pool.misses,
        d.pool.evictions,
        d.engine.index_probes,
        1.0,
        &mut report,
    );
    report.metric("net.wire_overhead_us", median(&wire) - median(&embedded), "us");
    report.metric("net.bytes_per_read", net_bytes_per_read, "bytes");
    WriteSums {
        commits: writes.commits.seen(),
        commit_us: writes.commits.samples().to_vec(),
        elapsed: phase_elapsed,
        wal_bytes: d.wal.bytes,
        fsyncs: d.wal.fsyncs,
        conflicts: d.txn.conflicts,
        vacuums: writes.vacuums,
        reclaimed: (d.engine.vacuumed_versions, d.engine.freed_pages),
        reused_slots: d.engine.reused_slots,
    }
    .report(&mut report);
    let overhead = median(reads.traced.rounds.samples()) / median(reads.plain.rounds.samples());
    report.metric("trace.overhead", overhead, "ratio");
    report.notes.push(format!(
        "concurrent phase: {} plain + {} traced reads beside {} commits",
        reads.plain.all.seen(),
        reads.traced.all.seen(),
        writes.commits.seen()
    ));
    served.finish();
    tally.merge(reads.tally);
    tally.merge(writes.tally);
    report.tally = tally;
    paper::write_trace(cfg, &tracer, &mut report);
    Ok(report)
}
