//! Disk-cache log tests: record round-trips (property-based), torn
//! writes truncated at every byte boundary of the last record, bit-flip
//! corruption, and a crash-warm reopen through the full service path.

use isegen_core::{Cut, Ise, IseConfig, IseInstance, IseSelection, SearchConfig};
use isegen_graph::{NodeId, NodeSet};
use isegen_ir::LatencyModel;
use isegen_serve::cache::fnv1a;
use isegen_serve::disk::{decode_record, encode_record, DiskLog, Record, MAGIC};
use isegen_serve::json::Json;
use isegen_serve::{SelectionKey, ServeCache, Service};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    std::env::temp_dir().join(format!("isegen-disk-{tag}-{}-{nanos}", std::process::id()))
}

/// An App record whose hash matches its canonical text (decode rejects
/// anything else, by design).
fn app_record(canonical: &str) -> Record {
    Record::App {
        hash: fnv1a(canonical.as_bytes()),
        canonical: canonical.to_string(),
    }
}

/// Frames a payload the way `DiskLog::append` does: length, checksum,
/// bytes. The torn-write tests build files by hand with this.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn app_records_round_trip_exactly() {
    for canonical in ["", "a", "app x\nblock b freq 1\n  n = in\nend\n"] {
        let record = app_record(canonical);
        let payload = encode_record(&record);
        assert_eq!(decode_record(&payload).expect("decodes"), record);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any selection record — including NaN latencies, which survive as
    /// bit patterns — re-encodes to identical bytes after a decode. The
    /// key travels as opaque bytes, with and without a multilevel knob.
    #[test]
    fn selection_records_round_trip_via_bytes(
        app_hash in any::<u64>(),
        total_sw in any::<u64>(),
        saved in any::<u64>(),
        min_coarse_ops in (any::<bool>(), 0usize..4096).prop_map(|(on, m)| on.then_some(m)),
        ise_seeds in proptest::collection::vec(
            (0usize..4, any::<u64>(), any::<u64>(), any::<u64>(), 1usize..24),
            0..4,
        ),
    ) {
        let mut search = SearchConfig::default();
        if let Some(min) = min_coarse_ops {
            search = search
                .with_multilevel(isegen_core::MultilevelConfig::default().with_min_coarse_ops(min));
        }
        let key = SelectionKey::new(&IseConfig::paper_default(), &search);
        let ises = ise_seeds
            .iter()
            .map(|&(block, saved_per, sw, hw_bits, cap)| {
                let nodes = NodeSet::from_ids(
                    cap,
                    (0..cap).step_by(2).map(NodeId::from_index),
                );
                let cut = Cut::from_saved(
                    nodes.clone(),
                    (cap as u32).min(4),
                    1,
                    sw,
                    f64::from_bits(hw_bits),
                );
                Ise {
                    block_index: block,
                    cut,
                    instances: vec![IseInstance { block_index: block, nodes }],
                    saved_per_execution: saved_per,
                }
            })
            .collect();
        let record = Record::Selection {
            app_hash,
            key,
            selection: IseSelection {
                ises,
                total_sw_cycles: total_sw,
                saved_cycles: saved,
            },
        };
        let payload = encode_record(&record);
        let decoded = decode_record(&payload).expect("decodes");
        // NaN makes Record's PartialEq useless here; byte equality of the
        // re-encoding is the stronger statement anyway.
        prop_assert_eq!(encode_record(&decoded), payload);
        let Record::Selection { key: back, .. } = decoded else {
            return Err(TestCaseError::fail("decoded as another record kind"));
        };
        prop_assert_eq!(back, SelectionKey::new(&IseConfig::paper_default(), &search));
    }
}

#[test]
fn torn_write_truncates_to_the_last_complete_record() {
    let full_records = [
        app_record("app a\nblock b freq 1\n  n = in\nend\n"),
        app_record("app c\nblock d freq 2\n  m = in\nend\n"),
        app_record("app e\nblock f freq 3\n  k = in\nend\n"),
    ];
    let mut good = Vec::from(&MAGIC[..]);
    good.extend_from_slice(&frame(&encode_record(&full_records[0])));
    good.extend_from_slice(&frame(&encode_record(&full_records[1])));
    let prefix_len = good.len();
    let mut full = good.clone();
    full.extend_from_slice(&frame(&encode_record(&full_records[2])));

    // Tear the last record at every byte boundary: header, checksum and
    // payload alike. Replay must keep exactly the first two records and
    // shrink the file back to the valid prefix.
    for cut in prefix_len..full.len() {
        let path = temp_path(&format!("torn-{cut}"));
        std::fs::write(&path, &full[..cut]).expect("write torn log");
        let (log, report) = DiskLog::open(&path).expect("open survives tear");
        assert_eq!(report.records, &full_records[..2], "cut at {cut}");
        assert_eq!(
            report.truncated_bytes as usize,
            cut - prefix_len,
            "cut at {cut}"
        );
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len() as usize,
            prefix_len,
            "file not shrunk for cut at {cut}"
        );
        // The log must accept appends after recovery…
        log.append(&full_records[2]).expect("append after recovery");
        drop(log);
        // …and a second replay sees all three records, zero loss.
        let (_, report) = DiskLog::open(&path).expect("reopen");
        assert_eq!(report.records, full_records);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn bit_flips_invalidate_the_record_and_its_suffix() {
    let records = [
        app_record("app a\nblock b freq 1\n  n = in\nend\n"),
        app_record("app c\nblock d freq 2\n  m = in\nend\n"),
        app_record("app e\nblock f freq 3\n  k = in\nend\n"),
    ];
    let mut bytes = Vec::from(&MAGIC[..]);
    let mut offsets = Vec::new();
    for r in &records {
        offsets.push(bytes.len());
        bytes.extend_from_slice(&frame(&encode_record(r)));
    }
    // Flip one byte inside the middle record's payload: replay keeps
    // only the first record — the corrupt one and everything after it
    // (unreachable without resynchronizing) are dropped.
    let mut corrupt = bytes.clone();
    corrupt[offsets[1] + 14] ^= 0x40;
    let path = temp_path("bitflip");
    std::fs::write(&path, &corrupt).expect("write corrupt log");
    let (_, report) = DiskLog::open(&path).expect("open survives corruption");
    assert_eq!(report.records, &records[..1]);
    assert!(report.truncated_bytes > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn foreign_file_is_reinitialized_not_trusted() {
    // A log of the previous format revision is foreign too: its records
    // would decode under the old layout, so it starts cold.
    let mut old_log = b"ISEDLOG1".to_vec();
    old_log.extend_from_slice(&frame(&encode_record(&app_record("app o\n"))));
    for (tag, bytes) in [
        ("foreign", b"definitely not a cache log".to_vec()),
        ("isedlog1", old_log),
    ] {
        let path = temp_path(tag);
        std::fs::write(&path, &bytes).expect("write");
        let (log, report) = DiskLog::open(&path).expect("open");
        assert!(report.records.is_empty(), "{tag}");
        assert_eq!(report.truncated_bytes, bytes.len() as u64, "{tag}");
        log.append(&app_record("app a\nblock b freq 1\n  n = in\nend\n"))
            .expect("append");
        let (_, report) = DiskLog::open(&path).expect("reopen");
        assert_eq!(report.records.len(), 1, "{tag}");
        std::fs::remove_file(&path).ok();
    }
}

/// The acceptance check of the tier: submit + select through the real
/// service, "crash" (drop without any graceful flush), reopen, and the
/// selection must come back as a memo hit with bit-identical content.
#[test]
fn service_reopens_warm_and_serves_identical_bytes() {
    let spec = isegen_workloads::workload_by_name("synth_tiny").expect("workload");
    let ir = isegen_ir::text::write_application(&spec.application());
    let select = Json::obj([("op", "select".into()), ("ir", ir.as_str().into())]).to_string();
    let path = temp_path("warm");
    let model = LatencyModel::paper_default;

    let cold = Service::new(
        ServeCache::with_disk(8, model(), &path).expect("disk cache"),
        "test",
        false,
    );
    let first = cold.handle_bytes(select.as_bytes()).expect("select");
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let app = first
        .get("app")
        .and_then(Json::as_str)
        .expect("hash")
        .to_string();
    drop(cold); // the "crash": no shutdown path runs

    let warm = Service::new(
        ServeCache::with_disk(8, model(), &path).expect("reopen"),
        "test",
        false,
    );
    let d = warm.cache().disk_counters().expect("disk tier");
    assert_eq!(d.replayed_apps, 1, "{d:?}");
    assert_eq!(d.replayed_selections, 1, "{d:?}");
    assert_eq!(d.skipped_records, 0, "{d:?}");

    // Served from the replayed memo: a hit, both by hash and by IR.
    let by_hash = Json::obj([("op", "select".into()), ("app", app.as_str().into())]).to_string();
    let second = warm.handle_bytes(by_hash.as_bytes()).expect("select");
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    let c = warm.cache().counters();
    assert_eq!(c.selection_misses, 0, "replay must not recompute");

    // Bit-identical selection content, including float payloads.
    let strip_cache = |response: &Json| match response {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "cache")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    assert_eq!(
        strip_cache(&first).to_string(),
        strip_cache(&second).to_string(),
        "replayed selection differs from the computed one"
    );

    std::fs::remove_file(&path).ok();
}

/// Regression guard: replay tolerates selection records whose app
/// record was lost (points at nothing) without inventing state.
#[test]
fn orphan_selection_records_are_skipped() {
    let path = temp_path("orphan");
    {
        let (log, _) = DiskLog::open(&path).expect("open");
        let key = SelectionKey::new(&IseConfig::paper_default(), &SearchConfig::default());
        log.append(&Record::Selection {
            app_hash: 0xdead_beef,
            key,
            selection: IseSelection {
                ises: Vec::new(),
                total_sw_cycles: 10,
                saved_cycles: 0,
            },
        })
        .expect("append orphan");
    }
    let cache = ServeCache::with_disk(8, LatencyModel::paper_default(), &path).expect("open");
    let d = cache.disk_counters().expect("disk tier");
    assert_eq!(d.replayed_selections, 0);
    assert_eq!(d.skipped_records, 1, "{d:?}");
    std::fs::remove_file(&path).ok();
}
