//! The incremental checkpoint writer renders the same bytes as a full
//! render of the same cell map: for any aggregates, any insertion
//! order, records replaced after insertion, and cells resumed at
//! construction. `Checkpoint::parse` reads the bytes back exactly.

use antdensity_stats::histogram::Histogram;
use antdensity_sweep::checkpoint::save_shards;
use antdensity_sweep::{CellAggregate, Checkpoint, CheckpointWriter};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const CELLS: usize = 48;

/// A deterministic aggregate with `samples` pushes derived from `salt`,
/// over a histogram of `bins` bins.
fn aggregate(salt: u64, samples: usize, bins: usize) -> CellAggregate {
    let mut agg = CellAggregate {
        err_hist: Histogram::new(0.0, 2.0, bins),
        ..CellAggregate::new()
    };
    agg.trials = salt % 7;
    for i in 0..samples {
        let x = ((i as u64 + salt) as f64 * 0.731).sin() * 2.5;
        agg.est.push(x);
        agg.err.push(x.abs());
        agg.err_hist.push(x.abs());
        if i % 3 == 0 {
            agg.aux.push(x * x);
        }
        if x.abs() <= 0.5 {
            agg.within += 1;
        }
    }
    agg
}

/// Fisher–Yates under a splitmix64 stream seeded by `seed`.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        items.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!("antdensity_ckpt_writer_{}", std::process::id()))
        .join(format!("{tag}.ckpt"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn writer_bytes_equal_full_render(
        raw in prop::collection::vec((0..CELLS, 0u64..10_000, 0usize..30), 0..20),
        bins in 1usize..40,
        resumed_share in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        let fingerprint = seed.rotate_left(17);
        let shards: BTreeMap<usize, CellAggregate> = raw
            .iter()
            .map(|&(idx, salt, samples)| (idx, aggregate(salt, samples, bins)))
            .collect();
        let mut order: Vec<usize> = shards.keys().copied().collect();
        shuffle(&mut order, seed);
        let split = (order.len() as f64 * resumed_share) as usize;
        let resumed: BTreeMap<usize, CellAggregate> =
            order[..split].iter().map(|&i| (i, shards[&i].clone())).collect();

        let path = temp_path("writer");
        let mut writer = CheckpointWriter::new(&path, fingerprint, CELLS, &resumed);
        for (n, &idx) in order[split..].iter().enumerate() {
            if (seed >> (n % 64)) & 1 == 1 {
                // A record replaced later must leave no trace.
                writer.insert(idx, &aggregate(seed ^ idx as u64, 5, bins));
            }
            writer.insert(idx, &shards[&idx]);
        }
        writer.save().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();

        let expected = Checkpoint { fingerprint, cells: CELLS, shards };
        prop_assert_eq!(&written, &expected.to_text());
        let full = temp_path("full");
        save_shards(&full, fingerprint, CELLS, &expected.shards).unwrap();
        prop_assert_eq!(&written, &std::fs::read_to_string(&full).unwrap());
        prop_assert_eq!(Checkpoint::parse(&written).unwrap(), expected);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

/// `temp_path` in a directory of `test`'s own: tests run in parallel,
/// and each removes its directory when done.
fn test_path(test: &str, tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join(format!(
            "antdensity_ckpt_writer_{}_{test}",
            std::process::id()
        ))
        .join(format!("{tag}.ckpt"))
}

/// Renders `cells` of `shards` as one result blob, the way a worker
/// does.
fn blob(fingerprint: u64, shards: &BTreeMap<usize, CellAggregate>, cells: &[usize]) -> String {
    Checkpoint {
        fingerprint,
        cells: CELLS,
        shards: cells.iter().map(|&i| (i, shards[&i].clone())).collect(),
    }
    .to_text()
}

/// Feeds every record of `blob` to `writer` as a parsed blob's slice.
fn insert_blob(writer: &mut CheckpointWriter, blob: &str) {
    let (ck, records) = Checkpoint::parse_with_records(blob).unwrap();
    for (idx, agg) in &ck.shards {
        writer.insert_parsed(*idx, agg, records[idx]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn writer_fed_from_blob_slices_saves_the_full_render(
        raw in prop::collection::vec((0..CELLS, 0u64..10_000, 0usize..30), 0..20),
        bins in 1usize..40,
        resumed_share in 0.0..1.0f64,
        blob_cells in 1usize..4,
        seed in any::<u64>(),
    ) {
        let fingerprint = seed.rotate_left(29);
        let shards: BTreeMap<usize, CellAggregate> = raw
            .iter()
            .map(|&(idx, salt, samples)| (idx, aggregate(salt, samples, bins)))
            .collect();
        let mut order: Vec<usize> = shards.keys().copied().collect();
        shuffle(&mut order, seed);
        let split = (order.len() as f64 * resumed_share) as usize;
        let resumed: BTreeMap<usize, CellAggregate> =
            order[..split].iter().map(|&i| (i, shards[&i].clone())).collect();

        // Resumed cells are rendered; the rest arrive in blobs of up to
        // `blob_cells` cells, some after a stale blob for the same cells.
        let path = test_path("blob_slices", "writer");
        let mut writer = CheckpointWriter::new(&path, fingerprint, CELLS, &resumed);
        for (n, chunk) in order[split..].chunks(blob_cells).enumerate() {
            if (seed >> (n % 64)) & 1 == 1 {
                let stale: BTreeMap<usize, CellAggregate> = chunk
                    .iter()
                    .map(|&i| (i, aggregate(seed ^ i as u64, 5, bins)))
                    .collect();
                insert_blob(&mut writer, &blob(fingerprint, &stale, chunk));
            }
            insert_blob(&mut writer, &blob(fingerprint, &shards, chunk));
        }
        writer.save().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();

        let expected = Checkpoint { fingerprint, cells: CELLS, shards };
        prop_assert_eq!(&written, &expected.to_text());
        prop_assert_eq!(Checkpoint::parse(&written).unwrap(), expected);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

/// Saves the records of `blob` through `insert_parsed` and returns the
/// file next to the full render of the blob's parsed map.
fn save_from_blob(tag: &str, blob: &str) -> (String, String) {
    let (ck, _) = Checkpoint::parse_with_records(blob).unwrap();
    let path = test_path(tag, "writer");
    let mut writer = CheckpointWriter::new(&path, ck.fingerprint, CELLS, &BTreeMap::new());
    insert_blob(&mut writer, blob);
    writer.save().unwrap();
    let written = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    (written, ck.to_text())
}

#[test]
fn non_canonical_blob_records_are_rendered_again() {
    let shards: BTreeMap<usize, CellAggregate> = [(3, 11), (9, 12), (40, 13)]
        .into_iter()
        .map(|(idx, salt)| (idx, aggregate(salt, 25, 16)))
        .collect();
    let canonical = blob(77, &shards, &[3, 9, 40]);

    let crlf = canonical.replace('\n', "\r\n");
    let (written, render) = save_from_blob("crlf", &crlf);
    assert!(!written.contains('\r'), "a CRLF record was stored as sent");
    assert_eq!(written, render);
    assert_eq!(written, canonical);

    let unterminated = canonical.strip_suffix('\n').unwrap();
    let (written, render) = save_from_blob("unterminated", unterminated);
    assert_eq!(written, render);
    assert_eq!(written, canonical);
    assert_eq!(Checkpoint::parse(&written).unwrap().shards, shards);
}
