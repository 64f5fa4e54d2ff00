//! Broad SQL conformance suite for the engine: expression semantics,
//! predicate pushdown correctness, joins, aggregation, lateral table
//! functions, NULL handling, and error reporting.

use ordb::{Database, QueryResult, Row, TempDir, Value};

/// A database in a fresh directory; keep the [`TempDir`] alive while the
/// database is in use.
fn db(tag: &str) -> (TempDir, Database) {
    let dir = TempDir::new(&format!("ordb-suite-{tag}")).unwrap();
    let db = Database::open(&dir).unwrap();
    (dir, db)
}

fn ints(r: &QueryResult) -> Vec<i64> {
    r.rows.iter().map(|row| row[0].as_int().unwrap()).collect()
}

fn setup_nums(db: &Database) {
    db.execute("CREATE TABLE nums (n INTEGER, s VARCHAR)").unwrap();
    let rows: Vec<Row> = (1..=10)
        .map(|i| {
            vec![Value::Int(i), if i % 3 == 0 { Value::Null } else { Value::str(format!("s{i}")) }]
        })
        .collect();
    db.insert_rows("nums", rows).unwrap();
}

#[test]
fn arithmetic_expressions() {
    let (_dir, d) = db("arith");
    setup_nums(&d);
    let r = d.query("SELECT n * 2 + 1 FROM nums WHERE n <= 3 ORDER BY n").unwrap();
    assert_eq!(ints(&r), [3, 5, 7]);
    // Precedence: 2 + 3 * 4 = 14, (2 + 3) * 4 = 20.
    let r = d.query("SELECT 2 + 3 * 4 FROM nums LIMIT 1").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(14)));
    let r = d.query("SELECT (2 + 3) * 4 FROM nums LIMIT 1").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(20)));
    // Division, modulo, and their zero errors.
    let r = d.query("SELECT 17 / 5, 17 % 5 FROM nums LIMIT 1").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(3), Value::Int(2)]);
    assert!(d.query("SELECT 1 / 0 FROM nums LIMIT 1").is_err());
    assert!(d.query("SELECT 1 % 0 FROM nums LIMIT 1").is_err());
    // NULL propagation.
    // n > 5 gives 6..=10; s is NULL at 6 and 9, leaving 7, 8, 10.
    let r = d.query("SELECT COUNT(*) FROM nums WHERE n + 0 > 5 AND s IS NOT NULL").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
}

#[test]
fn arithmetic_in_predicates_and_aggregates() {
    let (_dir, d) = db("arith2");
    setup_nums(&d);
    let r = d.query("SELECT SUM(n * n) FROM nums").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(385)));
    let r = d.query("SELECT n FROM nums WHERE n % 2 = 0 ORDER BY n DESC").unwrap();
    assert_eq!(ints(&r), [10, 8, 6, 4, 2]);
}

#[test]
fn null_three_valued_logic() {
    let (_dir, d) = db("nulls");
    setup_nums(&d);
    // s = 'x' is UNKNOWN for NULL s: those rows are excluded both ways.
    let eq = d.query("SELECT COUNT(*) FROM nums WHERE s = 's1'").unwrap();
    let ne = d.query("SELECT COUNT(*) FROM nums WHERE NOT s = 's1'").unwrap();
    let (a, b) = (eq.scalar().unwrap().as_int().unwrap(), ne.scalar().unwrap().as_int().unwrap());
    assert_eq!(a, 1);
    assert_eq!(b, 6); // 10 rows - 3 NULLs - 1 match
    let isnull = d.query("SELECT COUNT(*) FROM nums WHERE s IS NULL").unwrap();
    assert_eq!(isnull.scalar(), Some(&Value::Int(3)));
}

#[test]
fn min_max_and_count_distinct() {
    let (_dir, d) = db("minmax");
    d.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    d.execute("INSERT INTO t VALUES ('a', 3), ('a', 1), ('a', 3), ('b', 7), ('b', NULL)").unwrap();
    let r = d
        .query("SELECT g, MIN(v), MAX(v), COUNT(DISTINCT v) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("a"), Value::Int(1), Value::Int(3), Value::Int(2)],
            vec![Value::str("b"), Value::Int(7), Value::Int(7), Value::Int(1)],
        ]
    );
}

#[test]
fn order_by_aggregate_output() {
    let (_dir, d) = db("orderagg");
    d.execute("CREATE TABLE t (g VARCHAR)").unwrap();
    d.execute("INSERT INTO t VALUES ('x'), ('y'), ('y'), ('z'), ('y'), ('z')").unwrap();
    let r = d.query("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC, g").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("y"), Value::Int(3)],
            vec![Value::str("z"), Value::Int(2)],
            vec![Value::str("x"), Value::Int(1)],
        ]
    );
}

#[test]
fn three_way_join_with_aliases() {
    let (_dir, d) = db("threeway");
    d.execute("CREATE TABLE a (aid INTEGER)").unwrap();
    d.execute("CREATE TABLE b (bid INTEGER, b_a INTEGER)").unwrap();
    d.execute("CREATE TABLE c (cid INTEGER, c_b INTEGER)").unwrap();
    d.execute("INSERT INTO a VALUES (1), (2)").unwrap();
    d.execute("INSERT INTO b VALUES (10, 1), (11, 1), (12, 2)").unwrap();
    d.execute("INSERT INTO c VALUES (100, 10), (101, 11), (102, 12), (103, 12)").unwrap();
    let r = d
        .query(
            "SELECT x.aid, z.cid FROM a x, b y, c z \
             WHERE y.b_a = x.aid AND z.c_b = y.bid ORDER BY z.cid",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(1), Value::Int(101)],
            vec![Value::Int(2), Value::Int(102)],
            vec![Value::Int(2), Value::Int(103)],
        ]
    );
}

#[test]
fn cross_join_without_predicate() {
    let (_dir, d) = db("cross");
    d.execute("CREATE TABLE a (x INTEGER)").unwrap();
    d.execute("CREATE TABLE b (y INTEGER)").unwrap();
    d.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    d.execute("INSERT INTO b VALUES (10), (20)").unwrap();
    let r = d.query("SELECT x, y FROM a, b").unwrap();
    let mut rows = r.rows.clone();
    rows.sort();
    let expected: Vec<Vec<Value>> = [(1, 10), (1, 20), (2, 10), (2, 20), (3, 10), (3, 20)]
        .iter()
        .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
        .collect();
    assert_eq!(rows, expected);
}

#[test]
fn self_join_via_aliases() {
    let (_dir, d) = db("selfjoin");
    d.execute("CREATE TABLE e (id INTEGER, boss INTEGER)").unwrap();
    d.execute("INSERT INTO e VALUES (1, NULL), (2, 1), (3, 1), (4, 2)").unwrap();
    let r = d
        .query(
            "SELECT sub.id, sup.id FROM e sub, e sup \
             WHERE sub.boss = sup.id ORDER BY sub.id",
        )
        .unwrap();
    // NULL boss joins nothing; full ordered comparison.
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)],
            vec![Value::Int(4), Value::Int(2)],
        ]
    );
}

#[test]
fn ambiguous_and_unknown_columns_error() {
    let (_dir, d) = db("errors");
    d.execute("CREATE TABLE a (x INTEGER)").unwrap();
    d.execute("CREATE TABLE b (x INTEGER)").unwrap();
    assert!(d.query("SELECT x FROM a, b").is_err(), "ambiguous");
    assert!(d.query("SELECT nope FROM a").is_err(), "unknown column");
    assert!(d.query("SELECT x FROM nope").is_err(), "unknown table");
    assert!(d.query("SELECT x FROM a, a").is_err(), "duplicate alias");
    assert!(d.query("SELECT unknown_fn(x) FROM a").is_err(), "unknown function");
}

#[test]
fn distinct_over_multiple_columns() {
    let (_dir, d) = db("distinct2");
    d.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
    d.execute("INSERT INTO t VALUES (1,'x'), (1,'x'), (1,'y'), (2,'x')").unwrap();
    let r = d.query("SELECT DISTINCT a, b FROM t").unwrap();
    let mut rows = r.rows.clone();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Str("x".into())],
            vec![Value::Int(1), Value::Str("y".into())],
            vec![Value::Int(2), Value::Str("x".into())],
        ]
    );
}

#[test]
fn lateral_unnest_chains() {
    let (_dir, d) = db("lateral2");
    d.execute("CREATE TABLE docs (body XADT)").unwrap();
    d.execute(
        "INSERT INTO docs VALUES \
         ('<s><p><w>alpha</w><w>beta</w></p><p><w>gamma</w></p></s>')",
    )
    .unwrap();
    // Chain: unnest paragraphs, then words of each paragraph.
    let r = d
        .query(
            "SELECT xtext(w.out) FROM docs, \
             TABLE(unnest(body, 'p')) p, TABLE(unnest(p.out, 'w')) w",
        )
        .unwrap();
    let words: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
    assert_eq!(words, ["alpha", "beta", "gamma"]);
    // Predicates over lateral outputs apply as filters.
    let r = d
        .query(
            "SELECT COUNT(*) FROM docs, TABLE(unnest(body, 'p')) p \
             WHERE countElm(p.out, 'w') = 2",
        )
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn get_attr_udf_in_sql() {
    let (_dir, d) = db("getattr");
    d.execute("CREATE TABLE t (x XADT)").unwrap();
    d.execute("INSERT INTO t VALUES ('<author AuthorPosition=\"2\">B. Field</author>')").unwrap();
    let r = d.query("SELECT getAttr(x, 'author', 'AuthorPosition') FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::str("2")));
}

#[test]
fn wildcard_projection_and_aliases() {
    let (_dir, d) = db("wildcard");
    d.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    let r = d.query("SELECT * FROM t").unwrap();
    assert_eq!(r.columns, vec!["a".to_string(), "b".to_string()]);
    let r = d.query("SELECT a AS alpha, b beta FROM t").unwrap();
    assert_eq!(r.columns, vec!["alpha".to_string(), "beta".to_string()]);
}

#[test]
fn index_scan_with_range_predicates() {
    let (_dir, d) = db("ranges");
    d.execute("CREATE TABLE t (k INTEGER)").unwrap();
    d.insert_rows("t", (0..1000).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    d.execute("CREATE INDEX t_k ON t (k)").unwrap();
    d.runstats("t").unwrap();
    for (sql, expected) in [
        ("SELECT COUNT(*) FROM t WHERE k = 500", 1i64),
        ("SELECT COUNT(*) FROM t WHERE k < 10", 10),
        ("SELECT COUNT(*) FROM t WHERE k <= 10", 11),
        ("SELECT COUNT(*) FROM t WHERE k > 990", 9),
        ("SELECT COUNT(*) FROM t WHERE k >= 990", 10),
        ("SELECT COUNT(*) FROM t WHERE k >= 100 AND k < 200", 100),
    ] {
        let r = d.query(sql).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(expected)), "{sql}");
    }
}

#[test]
fn like_and_not_like() {
    let (_dir, d) = db("like2");
    setup_nums(&d);
    let r = d.query("SELECT COUNT(*) FROM nums WHERE s LIKE 's1%'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2))); // s1, s10
    let r = d.query("SELECT COUNT(*) FROM nums WHERE s NOT LIKE 's1%'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(5))); // 7 non-null - 2
}

#[test]
fn limit_and_order_stability() {
    let (_dir, d) = db("limit2");
    setup_nums(&d);
    let r = d.query("SELECT n FROM nums ORDER BY n LIMIT 3").unwrap();
    assert_eq!(ints(&r), [1, 2, 3]);
    let r = d.query("SELECT n FROM nums ORDER BY n DESC LIMIT 0").unwrap();
    assert!(r.is_empty());
}

#[test]
fn global_aggregate_over_empty_result() {
    let (_dir, d) = db("emptyagg");
    setup_nums(&d);
    let r = d.query("SELECT COUNT(*), SUM(n), MIN(n) FROM nums WHERE n > 999").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
}

#[test]
fn in_and_between_desugar() {
    let (_dir, d) = db("inbetween");
    setup_nums(&d);
    let r = d.query("SELECT n FROM nums WHERE n IN (2, 4, 99) ORDER BY n").unwrap();
    assert_eq!(ints(&r), [2, 4]);
    let r = d.query("SELECT n FROM nums WHERE s IN ('s1', 's5') ORDER BY n").unwrap();
    assert_eq!(ints(&r), [1, 5]);
    let r = d.query("SELECT n FROM nums WHERE n BETWEEN 3 AND 5 ORDER BY n").unwrap();
    assert_eq!(ints(&r), [3, 4, 5]);
    let r = d.query("SELECT COUNT(*) FROM nums WHERE n NOT BETWEEN 3 AND 5").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(7)));
    let r = d.query("SELECT COUNT(*) FROM nums WHERE n NOT IN (1, 2)").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(8)));
    assert!(d.query("SELECT n FROM nums WHERE n IN ()").is_err());
}
