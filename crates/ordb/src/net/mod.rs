//! Wire protocol, server, and client for serving a
//! [`Database`](crate::Database) over TCP.
//!
//! This is ROADMAP open item 1: the client/server boundary that turns
//! the embedded engine into something that can serve remote traffic, the
//! deployment model the XML query-processing literature assumes for
//! relational-backed XML stores. Everything is `std::net` + threads —
//! no async runtime — because the engine's operators are blocking and a
//! thread-per-connection model serves the paper's workloads comfortably.
//!
//! Layers (DESIGN.md §13 has the byte-level layout):
//!
//! * `frame` — the 5-byte `XORD` + version handshake, `u32`-LE
//!   length-prefixed frames, and a bounds-checked payload [`Reader`]
//!   that turns every malformed byte sequence into
//!   [`DbError::Protocol`] instead of a panic or hang;
//! * [`Request`] / [`Response`] — the tagged message bodies. Row batches
//!   reuse the storage layer's [`encode_row`] framing, so a value
//!   round-trips the wire in exactly its heap-file representation;
//! * [`Session`] — per-connection state: `SET`-style option overrides
//!   mapped onto [`PlanForcing`] (and a reserved home for a future
//!   `PREPARE` statement map);
//! * [`Server`] / [`ServerHandle`] — accept loop plus
//!   thread-per-connection serving, counting traffic into the owning
//!   database's [`MetricsRegistry`](crate::metrics::MetricsRegistry);
//! * [`Client`] — a small blocking client, used by `xord-client`, the
//!   bench saturation driver, and the integration tests.

mod client;
mod frame;
mod server;

pub use client::Client;
pub use frame::{
    client_handshake, put_str, read_frame, server_handshake, write_frame, Reader, MAGIC, MAX_FRAME,
    VERSION,
};
pub use server::{Server, ServerHandle};

use std::collections::BTreeMap;

use crate::db::QueryResult;
use crate::error::{DbError, Result};
use crate::plan::{ForcedAccess, ForcedJoin, PlanForcing};
use crate::tuple::{decode_row, encode_row};

// ---- request / response tags --------------------------------------------

const REQ_PING: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_EXPLAIN: u8 = 0x03;
const REQ_EXECUTE: u8 = 0x04;
const REQ_COMMIT: u8 = 0x05;
const REQ_SET: u8 = 0x06;
const REQ_CLOSE: u8 = 0x07;

const RESP_PONG: u8 = 0x81;
const RESP_ROWS: u8 = 0x82;
const RESP_PLAN: u8 = 0x83;
const RESP_AFFECTED: u8 = 0x84;
const RESP_OK: u8 = 0x85;
const RESP_ERROR: u8 = 0x86;
const RESP_BYE: u8 = 0x87;

/// A client→server message (one frame body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Run a SELECT; answered with [`Response::Rows`].
    Query(String),
    /// Plan a SELECT without executing; answered with [`Response::Plan`].
    Explain(String),
    /// Run DDL/DML; answered with [`Response::Affected`].
    Execute(String),
    /// Durably commit; answered with [`Response::Affected`] (pages logged).
    Commit,
    /// Set a session option (see [`Session::set`]); answered with
    /// [`Response::Ok`].
    Set {
        /// Option name, e.g. `force_join`.
        key: String,
        /// Option value, e.g. `hash`.
        value: String,
    },
    /// Orderly goodbye; answered with [`Response::Bye`], then both ends
    /// close.
    Close,
}

impl Request {
    /// Serialize into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Query(sql) => {
                out.push(REQ_QUERY);
                put_str(&mut out, sql);
            }
            Request::Explain(sql) => {
                out.push(REQ_EXPLAIN);
                put_str(&mut out, sql);
            }
            Request::Execute(sql) => {
                out.push(REQ_EXECUTE);
                put_str(&mut out, sql);
            }
            Request::Commit => out.push(REQ_COMMIT),
            Request::Set { key, value } => {
                out.push(REQ_SET);
                put_str(&mut out, key);
                put_str(&mut out, value);
            }
            Request::Close => out.push(REQ_CLOSE),
        }
        out
    }

    /// Parse a frame body. Any malformation is a [`DbError::Protocol`].
    pub fn decode(body: &[u8]) -> Result<Request> {
        let mut r = Reader::new(body);
        let tag = r.u8("request tag")?;
        let req = match tag {
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query(r.str("query sql")?),
            REQ_EXPLAIN => Request::Explain(r.str("explain sql")?),
            REQ_EXECUTE => Request::Execute(r.str("execute sql")?),
            REQ_COMMIT => Request::Commit,
            REQ_SET => Request::Set { key: r.str("set key")?, value: r.str("set value")? },
            REQ_CLOSE => Request::Close,
            other => return Err(DbError::Protocol(format!("unknown request tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

/// A server→client message (one frame body).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A SELECT's column names and row batch.
    Rows(QueryResult),
    /// EXPLAIN output lines.
    Plan(Vec<String>),
    /// Affected-row count (DML) or pages logged (commit).
    Affected(u64),
    /// Acknowledges a [`Request::Set`].
    Ok,
    /// The statement failed; `code` maps back onto a [`DbError`] variant
    /// (see [`error_code`] / [`decode_error`]).
    Error {
        /// Variant discriminant, see [`error_code`].
        code: u8,
        /// The error's display string.
        message: String,
    },
    /// Answer to [`Request::Close`].
    Bye,
}

impl Response {
    /// Serialize into a frame body. Rows use the storage engine's
    /// [`encode_row`] framing: `u16` column count, the column names,
    /// `u32` row count, then each row as a length-prefixed
    /// `encode_row` record of exactly `ncols` fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(RESP_PONG),
            Response::Rows(res) => {
                out.push(RESP_ROWS);
                out.extend_from_slice(&(res.columns.len() as u16).to_le_bytes());
                for c in &res.columns {
                    put_str(&mut out, c);
                }
                out.extend_from_slice(&(res.rows.len() as u32).to_le_bytes());
                let mut buf = Vec::new();
                for row in &res.rows {
                    buf.clear();
                    encode_row(row, &mut buf);
                    out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
                    out.extend_from_slice(&buf);
                }
            }
            Response::Plan(lines) => {
                out.push(RESP_PLAN);
                out.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                for l in lines {
                    put_str(&mut out, l);
                }
            }
            Response::Affected(n) => {
                out.push(RESP_AFFECTED);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Ok => out.push(RESP_OK),
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(*code);
                put_str(&mut out, message);
            }
            Response::Bye => out.push(RESP_BYE),
        }
        out
    }

    /// Parse a frame body. Any malformation is a [`DbError::Protocol`].
    pub fn decode(body: &[u8]) -> Result<Response> {
        let mut r = Reader::new(body);
        let tag = r.u8("response tag")?;
        let resp = match tag {
            RESP_PONG => Response::Pong,
            RESP_ROWS => {
                let ncols = r.u16("column count")? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str("column name")?);
                }
                let nrows = r.u32("row count")? as usize;
                let mut rows = Vec::new();
                for _ in 0..nrows {
                    let rec = r.bytes("row record")?;
                    let row = decode_row(rec, ncols).map_err(|e| {
                        DbError::Protocol(format!("row record failed to decode: {e}"))
                    })?;
                    rows.push(row);
                }
                Response::Rows(QueryResult { columns, rows })
            }
            RESP_PLAN => {
                let n = r.u32("plan line count")? as usize;
                let mut lines = Vec::with_capacity(n);
                for _ in 0..n {
                    lines.push(r.str("plan line")?);
                }
                Response::Plan(lines)
            }
            RESP_AFFECTED => Response::Affected(r.u64("affected count")?),
            RESP_OK => Response::Ok,
            RESP_ERROR => {
                let code = r.u8("error code")?;
                Response::Error { code, message: r.str("error message")? }
            }
            RESP_BYE => Response::Bye,
            other => return Err(DbError::Protocol(format!("unknown response tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Build the error response for a failed statement.
    pub fn from_error(e: &DbError) -> Response {
        Response::Error { code: error_code(e), message: e.to_string() }
    }
}

// ---- error mapping ------------------------------------------------------

/// Wire discriminant for a [`DbError`] variant.
pub fn error_code(e: &DbError) -> u8 {
    match e {
        DbError::Io(_) => 1,
        DbError::Parse(_) => 2,
        DbError::Plan(_) => 3,
        DbError::Exec(_) => 4,
        DbError::Catalog(_) => 5,
        DbError::Corrupt(_) => 6,
        DbError::Fragment(_) => 7,
        DbError::Protocol(_) => 8,
        DbError::TxnConflict(_) => 9,
    }
}

/// Reconstruct a [`DbError`] from an [`Response::Error`] payload.
/// Structured payloads (`Io`'s source, `Fragment`'s typed error) cannot
/// cross the wire, so those variants come back as message-preserving
/// stand-ins (`Io` wraps the text, `Fragment` becomes `Exec`).
pub fn decode_error(code: u8, message: &str) -> DbError {
    match code {
        1 => DbError::Io(std::io::Error::other(message.to_string())),
        2 => DbError::Parse(message.to_string()),
        3 => DbError::Plan(message.to_string()),
        4 => DbError::Exec(message.to_string()),
        5 => DbError::Catalog(message.to_string()),
        6 => DbError::Corrupt(message.to_string()),
        7 => DbError::Exec(format!("remote fragment error: {message}")),
        8 => DbError::Protocol(message.to_string()),
        9 => DbError::TxnConflict(message.to_string()),
        other => DbError::Protocol(format!("unknown error code {other}: {message}")),
    }
}

// ---- per-connection session state ---------------------------------------

/// Per-connection server state. Holds the session's `SET` options (today
/// the plan-forcing knobs; the option map is the future home of
/// `PREPARE` slots and other session-scoped settings) so concurrent
/// sessions can force different plans without touching the database-wide
/// [`Database::set_forcing`](crate::db::Database::set_forcing) state.
#[derive(Debug, Default)]
pub struct Session {
    forcing: Option<PlanForcing>,
    options: BTreeMap<String, String>,
    /// The connection's open explicit transaction, if a `BEGIN` ran.
    /// The server auto-aborts it when the connection ends (cleanly or
    /// not) so a dropped client can never wedge the watermark.
    txn: Option<crate::txn::TxnId>,
}

impl Session {
    /// A fresh session with no overrides.
    pub fn new() -> Session {
        Session::default()
    }

    /// The session's forcing override, if any `SET force_*` was issued.
    /// `None` means "use the database-wide knobs".
    pub fn forcing(&self) -> Option<PlanForcing> {
        self.forcing
    }

    /// Raw key→value options set so far (most recent value wins).
    pub fn options(&self) -> &BTreeMap<String, String> {
        &self.options
    }

    /// The open explicit transaction, if any.
    pub fn txn(&self) -> Option<crate::txn::TxnId> {
        self.txn
    }

    /// Mutable access to the transaction slot (the server threads it
    /// through [`Database::execute_txn`](crate::db::Database::execute_txn)).
    pub fn txn_mut(&mut self) -> &mut Option<crate::txn::TxnId> {
        &mut self.txn
    }

    /// Apply one `SET key value`. Supported keys:
    ///
    /// * `force_join` — `nested` | `hash` | `merge` | `cost`
    /// * `force_access` — `seq` | `index` | `cost`
    /// * `force_order` — `declared` | `cost`
    ///
    /// `cost` restores the cost-based default for that knob. Unknown
    /// keys or values fail with [`DbError::Exec`] and leave the session
    /// unchanged.
    pub fn set(&mut self, key: &str, value: &str) -> Result<()> {
        let mut forcing = self.forcing.unwrap_or_default();
        let key_lc = key.to_ascii_lowercase();
        let val_lc = value.to_ascii_lowercase();
        match key_lc.as_str() {
            "force_join" => {
                forcing.join = match val_lc.as_str() {
                    "nested" => Some(ForcedJoin::NestedLoop),
                    "hash" => Some(ForcedJoin::Hash),
                    "merge" => Some(ForcedJoin::Merge),
                    "cost" => None,
                    other => {
                        return Err(DbError::Exec(format!(
                            "bad force_join value {other:?} (want nested|hash|merge|cost)"
                        )))
                    }
                }
            }
            "force_access" => {
                forcing.access = match val_lc.as_str() {
                    "seq" => Some(ForcedAccess::SeqScan),
                    "index" => Some(ForcedAccess::IndexScan),
                    "cost" => None,
                    other => {
                        return Err(DbError::Exec(format!(
                            "bad force_access value {other:?} (want seq|index|cost)"
                        )))
                    }
                }
            }
            "force_order" => {
                forcing.declared_order = match val_lc.as_str() {
                    "declared" => true,
                    "cost" => false,
                    other => {
                        return Err(DbError::Exec(format!(
                            "bad force_order value {other:?} (want declared|cost)"
                        )))
                    }
                }
            }
            other => return Err(DbError::Exec(format!("unknown session option {other:?}"))),
        }
        self.forcing = Some(forcing);
        self.options.insert(key_lc, val_lc);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;
    use xadt::XadtValue;

    #[test]
    fn request_codec_round_trips() {
        let reqs = [
            Request::Ping,
            Request::Query("SELECT 1".into()),
            Request::Explain("SELECT * FROM t".into()),
            Request::Execute("INSERT INTO t VALUES (1)".into()),
            Request::Commit,
            Request::Set { key: "force_join".into(), value: "hash".into() },
            Request::Close,
        ];
        for req in &reqs {
            let body = req.encode();
            assert_eq!(&Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_codec_round_trips() {
        let rows = QueryResult {
            columns: vec!["a".into(), "b".into(), "x".into(), "c".into()],
            rows: vec![
                vec![
                    Value::Int(i64::MIN),
                    Value::Str("héllo".into()),
                    Value::Xadt(XadtValue::Plain("<LINE>adieu</LINE>".into())),
                    Value::Null,
                ],
                vec![
                    Value::Int(7),
                    Value::Str(String::new()),
                    Value::Xadt(XadtValue::Compressed(vec![1, 2, 255, 0].into())),
                    Value::Int(-1),
                ],
            ],
        };
        let resps = [
            Response::Pong,
            Response::Rows(rows),
            Response::Rows(QueryResult { columns: vec![], rows: vec![] }),
            Response::Plan(vec!["SeqScan t".into(), "  Filter a = 1".into()]),
            Response::Affected(u64::MAX),
            Response::Ok,
            Response::Error { code: 2, message: "parse error: nope".into() },
            Response::Bye,
        ];
        for resp in &resps {
            let body = resp.encode();
            assert_eq!(&Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn garbage_and_truncated_bodies_are_protocol_errors() {
        assert!(matches!(Request::decode(&[]), Err(DbError::Protocol(_))));
        assert!(matches!(Request::decode(&[0xFF]), Err(DbError::Protocol(_))));
        assert!(matches!(Response::decode(&[0x00]), Err(DbError::Protocol(_))));
        // Trailing garbage after a well-formed request.
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(DbError::Protocol(_))));
        // Every truncation of a structured response fails cleanly.
        let full = Response::Rows(QueryResult {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Str("x".into())]],
        })
        .encode();
        for cut in 0..full.len() {
            assert!(
                matches!(Response::decode(&full[..cut]), Err(DbError::Protocol(_))),
                "cut={cut}"
            );
        }
        // A row record whose bytes are not a valid tuple is caught by
        // the decode_row bridge, reported as Protocol.
        let bogus = {
            let mut out = vec![super::RESP_ROWS];
            out.extend_from_slice(&1u16.to_le_bytes());
            put_str(&mut out, "a");
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&3u32.to_le_bytes());
            out.extend_from_slice(&[99, 99, 99]); // unknown tuple tag
            out
        };
        assert!(matches!(Response::decode(&bogus), Err(DbError::Protocol(_))));
    }

    #[test]
    fn error_codes_round_trip_per_variant() {
        let errs = [
            DbError::Io(std::io::Error::other("disk gone")),
            DbError::Parse("p".into()),
            DbError::Plan("pl".into()),
            DbError::Exec("e".into()),
            DbError::Catalog("c".into()),
            DbError::Corrupt("co".into()),
            DbError::Protocol("pr".into()),
        ];
        for e in &errs {
            let resp = Response::from_error(e);
            let Response::Error { code, message } = &resp else { panic!() };
            let back = decode_error(*code, message);
            assert_eq!(error_code(&back), *code, "{e} -> {back}");
            assert!(back.to_string().contains(message.as_str().split(": ").last().unwrap()));
        }
        // Fragment degrades to Exec but keeps its message.
        let back = decode_error(7, "bad fragment");
        assert!(matches!(back, DbError::Exec(ref m) if m.contains("bad fragment")));
        // Unknown codes never panic.
        assert!(matches!(decode_error(42, "?"), DbError::Protocol(_)));
    }

    #[test]
    fn session_set_maps_onto_forcing() {
        let mut s = Session::new();
        assert_eq!(s.forcing(), None);
        s.set("force_join", "hash").unwrap();
        assert_eq!(s.forcing().unwrap().join, Some(ForcedJoin::Hash));
        s.set("FORCE_ACCESS", "SEQ").unwrap();
        let f = s.forcing().unwrap();
        assert_eq!(f.join, Some(ForcedJoin::Hash), "knobs compose");
        assert_eq!(f.access, Some(ForcedAccess::SeqScan));
        s.set("force_order", "declared").unwrap();
        assert!(s.forcing().unwrap().declared_order);
        s.set("force_join", "cost").unwrap();
        assert_eq!(s.forcing().unwrap().join, None);
        // Bad key/value: error, state unchanged.
        let before = s.forcing();
        assert!(s.set("force_join", "quantum").is_err());
        assert!(s.set("fsync", "off").is_err());
        // There is one executor, so there is no executor knob.
        let err = s.set("force_executor", "batch").unwrap_err();
        assert!(err.to_string().contains("unknown session option"), "{err}");
        assert_eq!(s.forcing(), before);
        assert_eq!(s.options().get("force_access").map(String::as_str), Some("seq"));
    }
}
