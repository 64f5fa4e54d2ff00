//! End-to-end smoke test of the `xorshell` binary: drives a scripted
//! session over stdin (DDL, DML, query, corpus load, EXPLAIN ANALYZE)
//! and asserts on the captured stdout.

use std::io::Write;
use std::process::{Command, Stdio};

use ordb::TempDir;

#[test]
fn scripted_session_over_stdin() {
    let dir = TempDir::new("xorshell-smoke").unwrap();

    let script = "\
CREATE TABLE kv (k INTEGER, v VARCHAR)
INSERT INTO kv VALUES (1, 'one'), (2, 'two')
SELECT k, v FROM kv
.load shakespeare 1
.tables
\\analyze SELECT COUNT(*) FROM speech
.metrics
\\spans
\\hist
.quit
";

    let mut child = Command::new(env!("CARGO_BIN_EXE_xorshell"))
        .arg(dir.path())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xorshell");
    child.stdin.take().expect("stdin piped").write_all(script.as_bytes()).expect("write script");
    let out = child.wait_with_output().expect("xorshell exits");
    drop(dir);

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "xorshell failed: {stderr}\n{stdout}");
    assert!(stderr.trim().is_empty(), "no command in the script may error: {stderr}");

    // Banner and DDL/DML acknowledgements.
    assert!(stdout.contains("xorshell —"), "greeting missing:\n{stdout}");
    assert!(stdout.contains("ok (2 rows affected)"), "INSERT ack missing:\n{stdout}");
    // The SELECT echoes both rows.
    assert!(stdout.contains("one") && stdout.contains("two"), "SELECT rows missing:\n{stdout}");
    // After .load, the XORator Shakespeare tables exist with rows.
    assert!(stdout.contains("speech ("), ".tables must list speech:\n{stdout}");
    assert!(stdout.contains("play ("), ".tables must list play:\n{stdout}");
    // EXPLAIN ANALYZE prints an operator tree and the result cardinality.
    assert!(stdout.contains("(1 rows)"), "COUNT(*) returns one row:\n{stdout}");
    // .metrics reports buffer-pool counters.
    assert!(stdout.contains("buffer pool:"), "metrics output missing:\n{stdout}");
    // \spans shows the last query's phase tree (with an operator under
    // exec — the COUNT aggregate) and per-span total/self times.
    assert!(stdout.contains("query"), "span tree missing query phase:\n{stdout}");
    for phase in ["parse", "plan", "exec"] {
        assert!(stdout.contains(phase), "span tree missing {phase} phase:\n{stdout}");
    }
    assert!(stdout.contains("total") && stdout.contains("self"), "span times:\n{stdout}");
    // \hist summarizes the session latency histogram.
    assert!(stdout.contains("latency: count="), "histogram summary missing:\n{stdout}");
    assert!(stdout.contains("p999="), "histogram quantiles missing:\n{stdout}");
}
