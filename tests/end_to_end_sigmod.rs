//! Cross-crate integration: the SIGMOD Proceedings pipeline, checking the
//! deep-DTD mapping (one table, compressed XADT) and answer equivalence
//! between the QG dialects.

use datagen::SigmodConfig;
use ordb::{Database, TempDir};
use xadt::StorageFormat;
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;

struct Env {
    hybrid: Database,
    xorator: Database,
    format: StorageFormat,
    /// Holds the databases' directory; declared last so it drops after them.
    _dir: TempDir,
}

fn setup() -> Env {
    let docs = datagen::generate_sigmod(&SigmodConfig { documents: 60, ..Default::default() });
    let simple = simplify(&parse_dtd(xorator::dtds::SIGMOD_DTD).unwrap());
    let queries = sigmod_queries();
    let workload: Vec<&str> = queries.iter().flat_map(|q| [q.hybrid, q.xorator]).collect();
    let dir = TempDir::new("xorator-it-sig").unwrap();

    let hybrid = Database::open(dir.join("hybrid")).unwrap();
    let hmap = map_hybrid(&simple);
    load_corpus(&hybrid, &hmap, &docs, LoadOptions::default()).unwrap();
    advise_and_apply(&hybrid, &hmap, &workload).unwrap();

    let xorator = Database::open(dir.join("xorator")).unwrap();
    let xmap = map_xorator(&simple);
    let xrep = load_corpus(&xorator, &xmap, &docs, LoadOptions::default()).unwrap();
    advise_and_apply(&xorator, &xmap, &workload).unwrap();

    Env { hybrid, xorator, format: xrep.format, _dir: dir }
}

#[test]
fn deep_dtd_maps_to_one_compressed_table() {
    let env = setup();
    assert_eq!(env.hybrid.table_count(), 7, "paper Table 2");
    assert_eq!(env.xorator.table_count(), 1, "paper Table 2");
    // The deep, tag-repetitive fragments pass the 20 % threshold: the
    // sampling policy picks compression, as the paper reports (§4.4).
    assert_eq!(env.format, StorageFormat::Compressed);
}

#[test]
fn qg_flattening_and_aggregates_agree() {
    let env = setup();
    let queries = sigmod_queries();
    // QG2 (flattening): identical cardinality.
    let q2 = queries.iter().find(|q| q.id == "QG2").unwrap();
    let h = env.hybrid.query(q2.hybrid).unwrap();
    let x = env.xorator.query(q2.xorator).unwrap();
    assert_eq!(h.len(), x.len(), "QG2");
    assert!(h.len() > 100);

    // QG4 (per-author section counts): same groups, same counts.
    let q4 = queries.iter().find(|q| q.id == "QG4").unwrap();
    let h = env.hybrid.query(q4.hybrid).unwrap();
    let x = env.xorator.query(q4.xorator).unwrap();
    let norm = |r: &ordb::QueryResult| {
        let mut v: Vec<(String, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_str().unwrap().to_string(), row[1].as_int().unwrap()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(norm(&h), norm(&x), "QG4 grouped counts");

    // QG5 (scalar count): identical value.
    let q5 = queries.iter().find(|q| q.id == "QG5").unwrap();
    let h = env.hybrid.query(q5.hybrid).unwrap();
    let x = env.xorator.query(q5.xorator).unwrap();
    assert_eq!(h.scalar(), x.scalar(), "QG5 scalar");
}

#[test]
fn qg1_author_totals_match() {
    // Hybrid returns one row per author of a matching paper; XORator one
    // fragment per proceedings. The unnested author totals must agree.
    let env = setup();
    let q1 = sigmod_queries().into_iter().find(|q| q.id == "QG1").unwrap();
    let h = env.hybrid.query(q1.hybrid).unwrap();
    let x = env.xorator.query(q1.xorator).unwrap();
    let mut total = 0;
    for row in &x.rows {
        if let Some(frag) = row[0].as_xadt() {
            total += xadt::unnest(frag, "author").unwrap().len();
        }
    }
    assert_eq!(total, h.len(), "QG1 author totals");
    assert!(total > 0);
}

#[test]
fn qg6_second_authors_match() {
    let env = setup();
    let q6 = sigmod_queries().into_iter().find(|q| q.id == "QG6").unwrap();
    let h = env.hybrid.query(q6.hybrid).unwrap();
    let x = env.xorator.query(q6.xorator).unwrap();
    let mut hv: Vec<String> = h.rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
    let mut xv: Vec<String> = Vec::new();
    for row in &x.rows {
        if let Some(frag) = row[0].as_xadt() {
            for a in xadt::unnest(frag, "author").unwrap() {
                xv.push(xadt::text_content(&a).unwrap());
            }
        }
    }
    hv.sort();
    xv.sort();
    assert_eq!(hv, xv, "QG6 second authors");
}

#[test]
fn compressed_and_plain_loads_give_identical_answers() {
    let docs = datagen::generate_sigmod(&SigmodConfig { documents: 30, ..Default::default() });
    let simple = simplify(&parse_dtd(xorator::dtds::SIGMOD_DTD).unwrap());
    let xmap = map_xorator(&simple);
    let dir = TempDir::new("xorator-it-fmt").unwrap();
    let mut results = Vec::new();
    for (name, policy) in [("plain", FormatPolicy::Plain), ("compressed", FormatPolicy::Compressed)]
    {
        let db = Database::open(dir.join(name)).unwrap();
        load_corpus(&db, &xmap, &docs, LoadOptions { policy, sample_docs: 0 }).unwrap();
        let mut per_query = Vec::new();
        for q in sigmod_queries() {
            let r = db.query(q.xorator).unwrap();
            // Compare logical renderings.
            let rows: Vec<String> = r
                .rows
                .iter()
                .map(|row| row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|"))
                .collect();
            per_query.push((q.id, rows));
        }
        results.push(per_query);
    }
    assert_eq!(results[0], results[1], "storage format must not change answers");
}
