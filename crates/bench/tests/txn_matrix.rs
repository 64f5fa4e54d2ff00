//! The transaction crash matrix: interleaved committed and uncommitted
//! transactions crossed with randomized crash points, verified by the
//! MVCC recovery contract.
//!
//! Protocol per round:
//!
//! 1. Commit one batch durably through the explicit-transaction path
//!    (`BEGIN; INSERT …; COMMIT` — the group-commit fsync).
//! 2. Open a second transaction that inserts an "orphan" batch and
//!    claims (deletes) one previously-committed row, then *never*
//!    commits.
//! 3. Arm the fault injector with a randomized plan and `checkpoint()`
//!    — the simulated process death lands mid-flush, with uncommitted
//!    versions potentially durable in the data files.
//! 4. Reopen. The undo pass must leave exactly the committed history:
//!    no orphan row visible, every committed row visible (including the
//!    one the orphan transaction tried to delete), and the index path
//!    agreeing with the sequential path row-for-row.
//!
//! The crash plan is randomized from `CRASH_SEED` (the CI matrix pins
//! three seeds); `CRASH_POINTS` bounds the rounds. On divergence the
//! test writes a WAL dump captured *before* the reopen consumed the log
//! to `target/txn-matrix/` and panics with the path — CI uploads the
//! directory as an artifact.

use ordb::{
    CrashMode, Database, DbOptions, FaultInjector, FaultPlan, FaultScope, ForcedAccess,
    PlanForcing, Session, Value,
};
use xorator_bench::scratch_dir;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

const BATCH: i64 = 16;

fn open(dir: &std::path::Path, inj: &std::sync::Arc<FaultInjector>) -> Database {
    let opts = DbOptions { fault: Some(inj.clone()), ..Default::default() };
    Database::open_with(dir, opts).expect("open txn-matrix db")
}

/// Persist `dump` for CI artifact upload and panic with context.
fn fail_with_waldump(seed: u64, round: u64, ctx: &str, dump: &str, msg: String) -> ! {
    let dir = std::path::Path::new("target/txn-matrix");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("waldump-seed{seed}-round{round}.txt"));
    let _ = std::fs::write(&path, format!("{ctx}\n\n{dump}"));
    panic!("{msg}\n[{ctx}]\nWAL dump written to {}", path.display());
}

#[test]
fn txn_matrix_crash_points_never_leak_uncommitted_versions() {
    let seed = env_u64("CRASH_SEED", 1);
    let default_points = if cfg!(debug_assertions) { 5 } else { 30 };
    let rounds = env_u64("CRASH_POINTS", default_points);

    let dir = scratch_dir(&format!("txn-matrix-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::new();
    let mut db = open(&dir, &inj);
    db.execute("CREATE TABLE tlog (id INTEGER, tag VARCHAR)").expect("create");
    db.execute("CREATE INDEX tlog_id ON tlog (id)").expect("index");

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut crashes = 0u64;
    for round in 0..rounds {
        // 1. A durably committed batch through the explicit txn path.
        let base = 1_000 + round as i64 * BATCH;
        let mut committer = Session::new();
        db.run("BEGIN", &mut committer).expect("begin committer");
        for i in 0..BATCH {
            db.run(&format!("INSERT INTO tlog VALUES ({}, 'keep')", base + i), &mut committer)
                .expect("committed insert");
        }
        db.run("COMMIT", &mut committer).expect("durable commit");

        // 2. An orphan transaction: inserts plus one delete claim on a
        //    committed row, never committed. Its id slot dies with the
        //    process below.
        let orphan_base = 9_000_000 + round as i64 * BATCH;
        let mut orphan = Session::new();
        db.run("BEGIN", &mut orphan).expect("begin orphan");
        for i in 0..BATCH {
            db.run(
                &format!("INSERT INTO tlog VALUES ({}, 'orphan')", orphan_base + i),
                &mut orphan,
            )
            .expect("orphan insert");
        }
        db.run(&format!("DELETE FROM tlog WHERE id = {base}"), &mut orphan)
            .expect("orphan delete claim");

        // 3. Crash somewhere inside the checkpoint's write storm.
        let plan = FaultPlan {
            crash_after: xorshift(&mut rng) % 4,
            mode: match xorshift(&mut rng) % 3 {
                0 => CrashMode::Drop,
                1 => CrashMode::Tear,
                _ => CrashMode::BitFlip,
            },
            scope: match xorshift(&mut rng) % 3 {
                0 => FaultScope::All,
                _ => FaultScope::Data,
            },
            seed: xorshift(&mut rng),
        };
        let ctx = format!("seed={seed} round={round} plan={plan:?}");
        inj.arm(plan);
        let result = db.checkpoint();
        if inj.crashed() {
            crashes += 1;
            assert!(result.is_err(), "checkpoint must report the crash [{ctx}]");
        }
        db.abandon();
        inj.disarm();

        // Capture the log before the reopen truncates it.
        let dump = ordb::storage::wal::dump(&dir.join("wal.log")).unwrap_or_default();

        // 4. Reopen and check the MVCC recovery contract.
        db = open(&dir, &inj);
        let committed = (round as i64 + 1) * BATCH;
        let checks: [(String, i64); 3] = [
            ("SELECT COUNT(*) FROM tlog WHERE tag = 'orphan'".into(), 0),
            ("SELECT COUNT(*) FROM tlog WHERE tag = 'keep'".into(), committed),
            // The orphan's delete claim must have been cleared.
            (format!("SELECT COUNT(*) FROM tlog WHERE id = {base}"), 1),
        ];
        for (sql, want) in &checks {
            let got = db.query(sql).expect(sql).rows[0][0].clone();
            if got != Value::Int(*want) {
                fail_with_waldump(
                    seed,
                    round,
                    &ctx,
                    &dump,
                    format!("{sql}: got {got:?}, want Int({want})"),
                );
            }
        }
        // Index path and sequential path must agree (dangling or
        // aliased index entries after recovery would diverge here).
        let canon = |forcing: Option<PlanForcing>| -> Vec<String> {
            let sql = "SELECT id FROM tlog WHERE id >= 0";
            let mut rows: Vec<String> = db
                .query_with_forcing(sql, forcing)
                .expect(sql)
                .rows
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            rows
        };
        let seq =
            canon(Some(PlanForcing { access: Some(ForcedAccess::SeqScan), ..Default::default() }));
        let via_index = canon(Some(PlanForcing {
            access: Some(ForcedAccess::IndexScan),
            ..Default::default()
        }));
        if seq != via_index {
            fail_with_waldump(
                seed,
                round,
                &ctx,
                &dump,
                format!(
                    "index/seq divergence after recovery: {} seq rows vs {} index rows",
                    seq.len(),
                    via_index.len()
                ),
            );
        }
    }
    assert!(
        crashes >= rounds * 7 / 10,
        "matrix barely crashed ({crashes}/{rounds}) — fault plans are miscalibrated"
    );

    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The vacuum crash matrix: every round commits a batch durably,
/// deletes half of it durably, then kills the process inside the vacuum
/// pass's WAL storm — the whole reclamation reaches disk in one
/// buffered write, so `crash_after: 0` with a randomized mode (drop /
/// tear / bit-flip, tear point seeded per round) replays an arbitrary
/// prefix of the pass on reopen. The recovery contract: the heap, the
/// index, and an oracle maintained outside the database agree exactly,
/// and a clean pass afterwards converges whatever the crash left.
#[test]
fn vacuum_crash_matrix_recovers_heap_index_equivalence() {
    let seed = env_u64("CRASH_SEED", 1);
    let default_points = if cfg!(debug_assertions) { 4 } else { 12 };
    let rounds = env_u64("CRASH_POINTS", default_points);

    let dir = scratch_dir(&format!("vacuum-matrix-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::new();
    // Auto-vacuum off: the matrix arms the injector around explicit
    // passes, and a checkpoint-triggered pass would reclaim the round's
    // garbage before the armed one gets to crash on it.
    let opts = DbOptions { fault: Some(inj.clone()), auto_vacuum: false, ..Default::default() };
    let mut db = Database::open_with(&dir, opts.clone()).expect("open vacuum-matrix db");
    db.execute("CREATE TABLE vlog (id INTEGER, body VARCHAR)").expect("create");
    db.execute("CREATE INDEX vlog_id ON vlog (id)").expect("index");

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut oracle: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
    let mut crashes = 0u64;
    for round in 0..rounds {
        // Durably committed batch (explicit COMMIT = group-commit
        // fsync); every 4th row overflows into a chain so the crashing
        // pass has chain pages in flight, not just slots.
        let base = round as i64 * BATCH;
        let mut w = Session::new();
        db.run("BEGIN", &mut w).expect("begin insert");
        for i in 0..BATCH {
            let id = base + i;
            let body = if i % 4 == 0 { "y".repeat(6000) } else { format!("row-{id}") };
            db.run(&format!("INSERT INTO vlog VALUES ({id}, '{body}')"), &mut w).expect("insert");
            oracle.insert(id);
        }
        db.run("COMMIT", &mut w).expect("durable insert commit");
        // Durably delete the even half — the armed pass's victims.
        db.run("BEGIN", &mut w).expect("begin delete");
        for i in 0..BATCH {
            if i % 2 == 0 {
                let id = base + i;
                db.run(&format!("DELETE FROM vlog WHERE id = {id}"), &mut w).expect("delete");
                oracle.remove(&id);
            }
        }
        db.run("COMMIT", &mut w).expect("durable delete commit");

        let plan = FaultPlan {
            crash_after: 0,
            mode: match xorshift(&mut rng) % 3 {
                0 => CrashMode::Drop,
                1 => CrashMode::Tear,
                _ => CrashMode::BitFlip,
            },
            scope: FaultScope::Wal,
            seed: xorshift(&mut rng),
        };
        let ctx = format!("seed={seed} round={round} plan={plan:?}");
        inj.arm(plan);
        let result = db.vacuum();
        if inj.crashed() {
            crashes += 1;
            assert!(result.is_err(), "vacuum must report the crash [{ctx}]");
        }
        db.abandon();
        inj.disarm();

        let dump = ordb::storage::wal::dump(&dir.join("wal.log")).unwrap_or_default();
        db = Database::open_with(&dir, opts.clone()).expect("reopen after vacuum crash");

        let canon = |db: &Database, access: ForcedAccess| -> Vec<i64> {
            let forcing = PlanForcing { access: Some(access), ..Default::default() };
            let mut ids: Vec<i64> = db
                .query_with_forcing("SELECT id FROM vlog WHERE id >= 0", Some(forcing))
                .expect("recovered query")
                .rows
                .iter()
                .map(|r| r[0].as_int().expect("id"))
                .collect();
            ids.sort_unstable();
            ids
        };
        let want: Vec<i64> = oracle.iter().copied().collect();
        for (label, got) in [
            ("seq", canon(&db, ForcedAccess::SeqScan)),
            ("index", canon(&db, ForcedAccess::IndexScan)),
        ] {
            if got != want {
                fail_with_waldump(
                    seed,
                    round,
                    &ctx,
                    &dump,
                    format!(
                        "{label} path diverged from oracle after mid-vacuum crash: \
                         {} rows vs {} expected",
                        got.len(),
                        want.len()
                    ),
                );
            }
        }
        // A clean pass converges the half-reclaimed state.
        db.vacuum().expect("post-recovery vacuum");
        if canon(&db, ForcedAccess::SeqScan) != want {
            fail_with_waldump(seed, round, &ctx, &dump, "post-recovery vacuum lost rows".into());
        }
    }
    assert_eq!(crashes, rounds, "crash_after=0 must kill every armed pass");

    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commit-then-crash durability through the explicit transaction path:
/// a durable COMMIT survives an immediate process death with *no*
/// checkpoint in between, and an open transaction at death vanishes.
#[test]
fn durable_commit_survives_instant_death() {
    let dir = scratch_dir("txn-matrix-durable");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).expect("open");
    db.execute("CREATE TABLE t (id INTEGER)").expect("create");

    let mut slot = Session::new();
    db.run("BEGIN", &mut slot).expect("begin");
    db.run("INSERT INTO t VALUES (1), (2), (3)", &mut slot).expect("insert");
    db.run("COMMIT", &mut slot).expect("commit");

    db.run("BEGIN", &mut slot).expect("begin 2");
    db.run("INSERT INTO t VALUES (99)", &mut slot).expect("uncommitted insert");
    db.abandon(); // process death: no flush, no checkpoint

    let db = Database::open(&dir).expect("recover");
    let count = db.query("SELECT COUNT(*), MIN(id), MAX(id) FROM t").expect("count");
    assert_eq!(count.rows, vec![vec![Value::Int(3), Value::Int(1), Value::Int(3)]]);
    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}
