//! Corpus-scale losslessness: generated Shakespeare and SIGMOD documents
//! survive shred → store → reconstruct under both mappings, in both XADT
//! storage formats.

use datagen::{ShakespeareConfig, SigmodConfig};
use ordb::{Database, TempDir};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;

fn check(tag: &str, dtd_src: &str, docs: &[String], policy: FormatPolicy) {
    let simple = simplify(&parse_dtd(dtd_src).unwrap());
    for (name, mapping) in [("hybrid", map_hybrid(&simple)), ("xorator", map_xorator(&simple))] {
        let dir = TempDir::new(&format!("xorator-rt-{tag}-{name}-{policy:?}")).unwrap();
        let db = Database::open(&dir).unwrap();
        load_corpus(&db, &mapping, docs, LoadOptions { policy, sample_docs: 0 }).unwrap();
        let rebuilt = reconstruct_documents(&db, &mapping).unwrap();
        assert_eq!(rebuilt.len(), docs.len(), "{tag}/{name}: document count");
        for (i, (original, re)) in docs.iter().zip(&rebuilt).enumerate() {
            let orig = xmlkit::parse_document(original).unwrap();
            assert_eq!(
                canonical(&orig),
                canonical(re),
                "{tag}/{name} doc {i}: reconstruction lost content"
            );
        }
    }
}

#[test]
fn shakespeare_round_trip_plain() {
    let docs = datagen::generate_shakespeare(&ShakespeareConfig {
        plays: 2,
        acts: 2,
        scenes_per_act: 2,
        speeches_per_scene: 5,
        ..Default::default()
    });
    check("shak", xorator::dtds::SHAKESPEARE_DTD, &docs, FormatPolicy::Plain);
}

#[test]
fn shakespeare_round_trip_compressed() {
    let docs = datagen::generate_shakespeare(&ShakespeareConfig {
        plays: 2,
        acts: 2,
        scenes_per_act: 2,
        speeches_per_scene: 5,
        ..Default::default()
    });
    check("shak-c", xorator::dtds::SHAKESPEARE_DTD, &docs, FormatPolicy::Compressed);
}

#[test]
fn sigmod_round_trip_both_formats() {
    let docs = datagen::generate_sigmod(&SigmodConfig { documents: 10, ..Default::default() });
    check("sig", xorator::dtds::SIGMOD_DTD, &docs, FormatPolicy::Plain);
    check("sig-c", xorator::dtds::SIGMOD_DTD, &docs, FormatPolicy::Compressed);
}
