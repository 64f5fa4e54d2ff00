//! Golden results for the paper query set: every QS/QE/QG query runs on
//! both mappings over fixed-seed Shakespeare and SIGMOD corpora, and the
//! row count plus an order-insensitive FNV-1a checksum of the encoded
//! rows must match `tests/golden/*.txt`.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_results
//! ```
//!
//! The diff of the golden file then documents exactly which queries
//! changed cardinality or content.

use std::fmt::Write as _;
use std::path::PathBuf;

use datagen::{ShakespeareConfig, SigmodConfig};
use ordb::tuple::encode_row;
use ordb::{Database, TempDir};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;
use xorator::queries::QueryPair;

/// Order-insensitive digest: FNV-1a over the sorted row encodings.
fn digest(rows: &[ordb::Row]) -> u64 {
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
        // Row separator so concatenations can't collide.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn golden_path(corpus: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{corpus}.txt"))
}

/// Run `queries` over both mappings of `dtd` for `docs` and render the
/// golden lines `<id> <mapping> rows=<n> fnv=<hex>`.
fn compute(corpus: &str, dtd: &str, docs: &[String], queries: &[QueryPair]) -> String {
    let simple = simplify(&parse_dtd(dtd).unwrap());
    let workload: Vec<&str> = queries.iter().flat_map(|q| [q.hybrid, q.xorator]).collect();
    let dir = TempDir::new(&format!("xorator-golden-{corpus}")).unwrap();
    let mut out = String::new();
    for (name, mapping) in [("hybrid", map_hybrid(&simple)), ("xorator", map_xorator(&simple))] {
        let db = Database::open(dir.join(name)).unwrap();
        load_corpus(&db, &mapping, docs, LoadOptions::default()).unwrap();
        advise_and_apply(&db, &mapping, &workload).unwrap();
        db.runstats_all().unwrap();
        for q in queries {
            let sql = if name == "hybrid" { q.hybrid } else { q.xorator };
            let r = db.query(sql).unwrap_or_else(|e| panic!("{} {name}: {e}", q.id));
            writeln!(out, "{} {name} rows={} fnv={:016x}", q.id, r.len(), digest(&r.rows)).unwrap();
        }
    }
    out
}

fn check(corpus: &str, actual: String) {
    let path = golden_path(corpus);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run GOLDEN_REGEN=1", path.display())
    });
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("  expected: {e}\n  actual:   {a}"))
            .collect();
        panic!(
            "golden mismatch for {corpus} ({} lines differ):\n{}\n\
             If intentional, regenerate with GOLDEN_REGEN=1 and review the diff.",
            diff.len(),
            diff.join("\n"),
        );
    }
}

#[test]
fn shakespeare_paper_queries_match_golden() {
    let docs = datagen::generate_shakespeare(&ShakespeareConfig {
        plays: 3,
        seed: 7,
        ..Default::default()
    });
    let mut queries = xorator::queries::shakespeare_queries();
    queries.extend(xorator::queries::example_queries());
    check("shakespeare", compute("shakespeare", xorator::dtds::SHAKESPEARE_DTD, &docs, &queries));
}

#[test]
fn sigmod_paper_queries_match_golden() {
    let docs =
        datagen::generate_sigmod(&SigmodConfig { documents: 4, seed: 7, ..Default::default() });
    let queries = xorator::queries::sigmod_queries();
    check("sigmod", compute("sigmod", xorator::dtds::SIGMOD_DTD, &docs, &queries));
}
