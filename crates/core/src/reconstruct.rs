//! Reconstruction: rebuild XML documents from a shredded database.
//!
//! The paper's introduction describes the full round trip — "the results
//! of the SQL queries are then converted to XML documents before
//! returning the answer to the user". This module implements the
//! storage-side half: given a loaded database and its [`Mapping`],
//! reassemble the original documents. It doubles as a *losslessness
//! check* for both mapping algorithms: `tests in this module` and the
//! round-trip integration test prove that shredding preserves every
//! element, attribute, and text run.
//!
//! Ordering caveat (inherent to the paper's schema, not this code): the
//! `childOrder` column records order *among same-named siblings*, so the
//! interleaving of differently-named children of one element is not
//! recoverable from the relational side; reconstruction emits child
//! groups in DTD declaration order. Within-XADT order is exact, because
//! fragments store the original serialization. Comparisons therefore use
//! [`canonical`] form (sibling groups keyed by element name).

use std::collections::HashMap;

use ordb::{Database, Value};
use xmlkit::{Document, NodeId};

use crate::error::{CoreError, Result};
use crate::schema::{ColumnKind, Mapping};

/// One shredded tuple, decoded and grouped for reassembly.
struct TupleNode {
    id: i64,
    parent_id: Option<i64>,
    parent_code: Option<String>,
    order: i64,
    row: Vec<Value>,
}

/// Rebuild every document in `db` (one per root-table tuple), in load
/// order.
pub fn reconstruct_documents(db: &Database, mapping: &Mapping) -> Result<Vec<Document>> {
    // Load every table fully, grouped by element.
    let mut tuples: Vec<Vec<TupleNode>> = Vec::with_capacity(mapping.tables.len());
    for t in &mapping.tables {
        let r = db.query(&format!("SELECT * FROM {}", t.name)).map_err(CoreError::Db)?;
        let id_col = t.id_col();
        let parent_col = t.col_of_kind(&ColumnKind::ParentId);
        let code_col = t.col_of_kind(&ColumnKind::ParentCode);
        let order_col = t.col_of_kind(&ColumnKind::ChildOrder);
        let mut rows: Vec<TupleNode> = r
            .rows
            .into_iter()
            .map(|row| TupleNode {
                id: row[id_col].as_int().unwrap_or_default(),
                parent_id: parent_col.and_then(|c| row[c].as_int()),
                parent_code: code_col.and_then(|c| row[c].as_str().map(str::to_string)),
                order: order_col.and_then(|c| row[c].as_int()).unwrap_or(0),
                row,
            })
            .collect();
        rows.sort_by_key(|n| (n.parent_id, n.order, n.id));
        tuples.push(rows);
    }

    // Index children by (table idx, parent element, parent id).
    let mut children: HashMap<(usize, String, i64), Vec<usize>> = HashMap::new();
    for (ti, rows) in tuples.iter().enumerate() {
        for (ri, n) in rows.iter().enumerate() {
            if let Some(pid) = n.parent_id {
                let code = match &n.parent_code {
                    Some(c) => c.clone(),
                    // Single-parent tables have no code column.
                    None => mapping.tables[ti].parent_tables.first().cloned().unwrap_or_default(),
                };
                children.entry((ti, code, pid)).or_default().push(ri);
            }
        }
    }

    let root_ti = mapping
        .table_index(&mapping.root_element)
        .ok_or_else(|| CoreError::Shred("mapping has no root table".into()))?;
    let mut docs = Vec::new();
    for ri in 0..tuples[root_ti].len() {
        let mut doc = Document::new(mapping.root_element.clone());
        let root = doc.root();
        emit(mapping, &tuples, &children, root_ti, ri, &mut doc, root)?;
        docs.push(doc);
    }
    Ok(docs)
}

/// Fill element `node` from tuple `ri` of table `ti`.
fn emit(
    mapping: &Mapping,
    tuples: &[Vec<TupleNode>],
    children: &HashMap<(usize, String, i64), Vec<usize>>,
    ti: usize,
    ri: usize,
    doc: &mut Document,
    node: NodeId,
) -> Result<()> {
    let table = &mapping.tables[ti];
    let tuple = &tuples[ti][ri];

    // Scalar/attribute/XADT columns, in column order.
    for (ci, col) in table.columns.iter().enumerate() {
        let v = &tuple.row[ci];
        if v.is_null() {
            continue;
        }
        match &col.kind {
            ColumnKind::Id
            | ColumnKind::ParentId
            | ColumnKind::ParentCode
            | ColumnKind::ChildOrder => {}
            ColumnKind::Value => {
                if let Some(s) = v.as_str() {
                    doc.add_text(node, s);
                }
            }
            ColumnKind::OwnAttribute(a) => {
                if let Some(s) = v.as_str() {
                    doc.set_attribute(node, a.clone(), s);
                }
            }
            ColumnKind::InlineText { path } => {
                if let Some(s) = v.as_str() {
                    let leaf = ensure_path(doc, node, path);
                    doc.add_text(leaf, s);
                }
            }
            ColumnKind::InlineAttribute { path, attr } => {
                if let Some(s) = v.as_str() {
                    let leaf = ensure_path(doc, node, path);
                    doc.set_attribute(leaf, attr.clone(), s);
                }
            }
            ColumnKind::Xadt { .. } => {
                let frag = v
                    .as_xadt()
                    .ok_or_else(|| CoreError::Shred("XADT column holds a non-XADT value".into()))?;
                attach_fragment(doc, node, &frag.to_plain())?;
            }
        }
    }

    // Child relations, per child table in DTD order, by childOrder.
    for child_elem in table.child_tables.clone() {
        let cti = mapping
            .table_index(&child_elem)
            .ok_or_else(|| CoreError::Shred(format!("missing child table {child_elem}")))?;
        let key = (cti, table.element.clone(), tuple.id);
        if let Some(rows) = children.get(&key) {
            for &cri in rows {
                let child_node = doc.add_element(node, child_elem.clone());
                emit(mapping, tuples, children, cti, cri, doc, child_node)?;
            }
        }
    }
    Ok(())
}

/// Find or create the nested element chain `path` under `node`.
fn ensure_path(doc: &mut Document, node: NodeId, path: &[String]) -> NodeId {
    let mut cur = node;
    for seg in path {
        cur = match doc.first_child_named(cur, seg) {
            Some(existing) => existing,
            None => doc.add_element(cur, seg.clone()),
        };
    }
    cur
}

/// Parse a serialized fragment and graft it under `node`.
fn attach_fragment(doc: &mut Document, node: NodeId, fragment: &str) -> Result<()> {
    if fragment.is_empty() {
        return Ok(());
    }
    // Wrap so the parser sees a single root, then move the children over.
    let wrapped = format!("<w>{fragment}</w>");
    let parsed = xmlkit::parse_document(&wrapped)?;
    let src_root = parsed.root();
    copy_children(&parsed, src_root, doc, node);
    Ok(())
}

fn copy_children(src: &Document, from: NodeId, dst: &mut Document, to: NodeId) {
    for &c in src.children(from) {
        match &src.node(c).kind {
            xmlkit::NodeKind::Text(t) => {
                dst.add_text(to, t);
            }
            xmlkit::NodeKind::Element { name, attributes } => {
                let e = dst.add_element(to, name.clone());
                for a in attributes {
                    dst.set_attribute(e, a.name.clone(), a.value.clone());
                }
                copy_children(src, c, dst, e);
            }
        }
    }
}

/// Canonical rendering for order-insensitive comparison: children of each
/// element are emitted grouped by element name (alphabetically),
/// preserving relative order within each group; text runs are
/// concatenated and whitespace-normalized.
///
/// Elements with no attributes, no text, and no (canonically non-empty)
/// children are dropped: an *empty optional* inlined element (e.g. a
/// `<Toindex/>` without its `index` child) produces no column under the
/// paper's inlining schemas, so its presence is inherently ambiguous
/// after shredding — for both this implementation and the original.
pub fn canonical(doc: &Document) -> String {
    let mut out = String::new();
    canon_node(doc, doc.root(), &mut out);
    out
}

fn canon_node(doc: &Document, node: NodeId, out: &mut String) {
    let start_len = out.len();
    let name = doc.tag(node).unwrap_or("#text");
    out.push('<');
    out.push_str(name);
    let mut attrs: Vec<(&str, &str)> =
        doc.attributes(node).iter().map(|a| (a.name.as_str(), a.value.as_str())).collect();
    attrs.sort();
    for (k, v) in attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('>');
    // Text content (all runs, concatenated, whitespace-normalized).
    let mut text = String::new();
    for &c in doc.children(node) {
        if let xmlkit::NodeKind::Text(t) = &doc.node(c).kind {
            text.push_str(t);
        }
    }
    let trimmed: Vec<&str> = text.split_whitespace().collect();
    out.push_str(&trimmed.join(" "));
    let header_only_len = out.len();
    // Element children grouped by name.
    let mut names: Vec<&str> =
        doc.child_elements(node).map(|c| doc.tag(c).expect("element")).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        for c in doc.children_named(node, n) {
            canon_node(doc, c, out);
        }
    }
    // Drop the element entirely if it rendered as `<name>` with nothing
    // inside (no attributes, no text, no surviving children).
    let empty_header = format!("<{name}>");
    if out.len() == header_only_len && out[start_len..] == empty_header {
        out.truncate(start_len);
        return;
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtds::PLAYS_DTD;
    use crate::hybrid::map_hybrid;
    use crate::load::{load_corpus, LoadOptions};
    use crate::simplify::simplify;
    use crate::xorator::map_xorator;
    use ordb::TempDir;
    use xmlkit::dtd::parse_dtd;

    const DOC: &str = "<PLAY><INDUCT><TITLE>Induction</TITLE><SUBTITLE>s1</SUBTITLE>\
        <SCENE><TITLE>sc</TITLE><SPEECH><SPEAKER>A</SPEAKER><LINE>hello there</LINE>\
        <LINE>again</LINE></SPEECH></SCENE></INDUCT>\
        <ACT><SCENE><TITLE>sc2</TITLE><SPEECH><SPEAKER>B</SPEAKER><SPEAKER>C</SPEAKER>\
        <LINE>both speak</LINE></SPEECH><SUBHEAD>sh</SUBHEAD></SCENE>\
        <TITLE>Act One</TITLE><SPEECH><SPEAKER>D</SPEAKER><LINE>x</LINE></SPEECH>\
        <PROLOGUE>pro text</PROLOGUE></ACT></PLAY>";

    fn round_trip(alg: crate::schema::Algorithm) {
        let simple = simplify(&parse_dtd(PLAYS_DTD).unwrap());
        let mapping = match alg {
            crate::schema::Algorithm::Hybrid => map_hybrid(&simple),
            crate::schema::Algorithm::Xorator => map_xorator(&simple),
        };
        let dir = TempDir::new(&format!("xorator-reconstruct-{alg}")).unwrap();
        let db = Database::open(&dir).unwrap();
        let docs = vec![DOC.to_string(), DOC.replace("hello", "goodbye")];
        load_corpus(&db, &mapping, &docs, LoadOptions::default()).unwrap();

        let rebuilt = reconstruct_documents(&db, &mapping).unwrap();
        assert_eq!(rebuilt.len(), 2);
        for (original, re) in docs.iter().zip(&rebuilt) {
            let orig = xmlkit::parse_document(original).unwrap();
            assert_eq!(
                canonical(&orig),
                canonical(re),
                "{alg} reconstruction must preserve all content"
            );
        }
    }

    #[test]
    fn hybrid_round_trip_is_lossless() {
        round_trip(crate::schema::Algorithm::Hybrid);
    }

    #[test]
    fn xorator_round_trip_is_lossless() {
        round_trip(crate::schema::Algorithm::Xorator);
    }

    #[test]
    fn canonical_is_order_insensitive_across_groups() {
        let a = xmlkit::parse_document("<r><x>1</x><y>2</y><x>3</x></r>").unwrap();
        let b = xmlkit::parse_document("<r><x>1</x><x>3</x><y>2</y></r>").unwrap();
        assert_eq!(canonical(&a), canonical(&b));
        // …but within a group, order matters.
        let c = xmlkit::parse_document("<r><x>3</x><x>1</x><y>2</y></r>").unwrap();
        assert_ne!(canonical(&a), canonical(&c));
    }
}
