//! Snapshot round-trip and robustness suite: the level tables must
//! survive save → load byte-for-byte for arbitrary cost models and
//! depths, resumed expansion (including after `set_threads` resharding)
//! must be bit-identical to a never-snapshotted engine, and damaged
//! files must fail with a typed error — never UB or a silently-empty
//! cache.

use mvq_core::{known, CostModel, ProbeHandle, SnapshotError, SnapshotImage, SynthesisEngine};
use mvq_logic::GateLibrary;
use mvq_serve::EngineHost;
use proptest::prelude::*;

fn engine(model: CostModel, threads: usize) -> SynthesisEngine {
    SynthesisEngine::with_threads(GateLibrary::standard(3), model, threads)
}

/// Level-by-level equality, including word order within every level.
fn assert_levels_identical(a: &SynthesisEngine, b: &SynthesisEngine, up_to: u32, label: &str) {
    assert_eq!(a.g_counts(), b.g_counts(), "{label}: g_counts");
    assert_eq!(a.b_counts(), b.b_counts(), "{label}: b_counts");
    assert_eq!(a.a_size(), b.a_size(), "{label}: |A|");
    assert_eq!(a.classes_found(), b.classes_found(), "{label}: classes");
    for cost in 0..=up_to {
        assert_eq!(
            a.level_words(cost),
            b.level_words(cost),
            "{label}: level {cost} words (order-sensitive)"
        );
    }
}

#[test]
fn loaded_set_threads_expansion_matches_native() {
    // The satellite regression: a snapshot-loaded engine resharded via
    // `set_threads` must keep expanding bit-identically — the loaded
    // `seen` maps need the same FNV shard layout as a natively-expanded
    // engine.
    let mut reference = engine(CostModel::unit(), 1);
    reference.expand_to_cost(5);
    let mut snapshotted = engine(CostModel::unit(), 1);
    snapshotted.expand_to_cost(3);
    let bytes = snapshotted.snapshot_to_bytes().unwrap();
    for threads in [1, 2, 4, 8] {
        let mut resumed = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
        resumed.set_threads(threads);
        assert_eq!(resumed.threads(), threads);
        resumed.expand_to_cost(5);
        assert_levels_identical(&reference, &resumed, 5, &format!("threads={threads}"));
        let want = reference.synthesize(&known::toffoli_perm(), 6).unwrap();
        let got = resumed.synthesize(&known::toffoli_perm(), 6).unwrap();
        assert_eq!(want.circuit.to_string(), got.circuit.to_string());
        assert_eq!(want.implementation_count, got.implementation_count);
    }
}

#[test]
fn load_with_threads_then_reshard_down() {
    // Load sharded, reshard down to serial, keep expanding.
    let mut reference = engine(CostModel::unit(), 1);
    reference.expand_to_cost(5);
    let mut snapshotted = engine(CostModel::unit(), 1);
    snapshotted.expand_to_cost(4);
    let bytes = snapshotted.snapshot_to_bytes().unwrap();
    let mut resumed = SynthesisEngine::load_snapshot_from_bytes(&bytes, 4).unwrap();
    resumed.set_threads(1);
    resumed.expand_to_cost(5);
    assert_levels_identical(&reference, &resumed, 5, "reshard 4→1");
}

#[test]
fn every_damaged_byte_fails_loudly() {
    // Sweep a corruption byte across the whole (small) file: every
    // position must produce an error, never a silently-wrong engine.
    let mut small = engine(CostModel::unit(), 1);
    small.expand_to_cost(1);
    let bytes = small.snapshot_to_bytes().unwrap();
    for offset in 0..bytes.len() {
        let mut damaged = bytes.to_vec();
        damaged[offset] ^= 0xA5;
        assert!(
            SynthesisEngine::load_snapshot_from_bytes(&damaged, 1).is_err(),
            "flip at byte {offset}/{} loaded successfully",
            bytes.len()
        );
    }
}

#[test]
fn bidirectional_on_loaded_engine_matches_native() {
    // The meet-in-the-middle path exercises `exhausted()` and the
    // adaptive split against the loaded levels and deferred frontier;
    // against a native engine in the same starting state it must be
    // circuit-identical.
    let mut native = engine(CostModel::unit(), 1);
    native.expand_to_cost(3);
    let mut snapshotted = engine(CostModel::unit(), 1);
    snapshotted.expand_to_cost(3);
    let bytes = snapshotted.snapshot_to_bytes().unwrap();
    let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
    for target in [known::fredkin_perm(), known::toffoli_perm()] {
        let want = native.synthesize_bidirectional(&target, 7).unwrap();
        let got = loaded.synthesize_bidirectional(&target, 7).unwrap();
        assert_eq!(want.cost, got.cost, "{target}");
        assert_eq!(
            want.implementation_count, got.implementation_count,
            "{target}"
        );
        assert_eq!(
            want.circuit.to_string(),
            got.circuit.to_string(),
            "{target}"
        );
        assert!(got.circuit.verify_against_binary_perm(&target));
    }
}

#[test]
fn loaded_engine_returns_its_input_bytes_until_it_climbs() {
    let mut snapshotted = engine(CostModel::unit(), 1);
    snapshotted.expand_to_cost(3);
    let image = snapshotted.snapshot_to_bytes().unwrap();

    // A borrowed slice is copied once; the copy is the engine's image.
    let mut copied = SynthesisEngine::load_snapshot_from_bytes(&image, 1).unwrap();
    let again = copied.snapshot_to_bytes().unwrap();
    assert_eq!(
        again, image,
        "a never-mutated engine returns its input bytes"
    );
    assert!(!SnapshotImage::ptr_eq(&again, &image));
    assert!(SnapshotImage::ptr_eq(
        &again,
        &copied.snapshot_to_bytes().unwrap()
    ));

    // A shared buffer is kept as is: the engine holds it twice (image and
    // deferred frontier), and a host built from it adds only its
    // last-good handle — no second copy.
    let mut loaded =
        SynthesisEngine::load_snapshot_from_bytes_with_probe(image.clone(), 1, ProbeHandle::none())
            .unwrap();
    assert!(SnapshotImage::ptr_eq(
        &loaded.snapshot_to_bytes().unwrap(),
        &image
    ));
    assert_eq!(SnapshotImage::handle_count(&image), 3);
    let host = EngineHost::new(loaded, 7);
    assert_eq!(SnapshotImage::handle_count(&image), 4);
    drop(host);
    assert_eq!(SnapshotImage::handle_count(&image), 1);

    // One settled level drops the image and merges the frontier; the
    // bytes are then derived again and equal a native engine's.
    loaded =
        SynthesisEngine::load_snapshot_from_bytes_with_probe(image.clone(), 1, ProbeHandle::none())
            .unwrap();
    assert!(loaded.settle_one_level());
    assert_eq!(
        SnapshotImage::handle_count(&image),
        1,
        "image and frontier released"
    );
    let derived = loaded.snapshot_to_bytes().unwrap();
    let mut native = engine(CostModel::unit(), 1);
    native.expand_to_cost(4);
    assert_eq!(derived, native.snapshot_to_bytes().unwrap());
    assert_ne!(derived, image);
}

#[test]
fn missing_file_is_an_io_error() {
    let err = SynthesisEngine::load_snapshot("/definitely/not/here.snap").unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Round-trip equality of the level tables for arbitrary (positive)
    /// cost models and snapshot depths, plus bit-identical continued
    /// expansion one level past the snapshot.
    #[test]
    fn roundtrip_level_tables_for_any_model(
        v in 1u32..=3,
        vd in 1u32..=3,
        f in 1u32..=2,
        depth in 0u32..=4,
    ) {
        let model = CostModel::weighted(v, vd, f);
        let mut original = engine(model, 1);
        original.expand_to_cost(depth);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes, 1).unwrap();
        prop_assert_eq!(original.g_counts(), loaded.g_counts());
        prop_assert_eq!(original.b_counts(), loaded.b_counts());
        prop_assert_eq!(original.a_size(), loaded.a_size());
        prop_assert_eq!(original.classes_found(), loaded.classes_found());
        prop_assert_eq!(loaded.cost_model().weights(), (v, vd, f));
        for cost in 0..=depth {
            prop_assert_eq!(
                original.level_words(cost),
                loaded.level_words(cost),
                "level {} words", cost
            );
        }
        // Resume one level deeper on both: still identical.
        original.expand_to_cost(depth + 1);
        loaded.expand_to_cost(depth + 1);
        prop_assert_eq!(original.g_counts(), loaded.g_counts());
        prop_assert_eq!(original.a_size(), loaded.a_size());
        prop_assert_eq!(
            original.level_words(depth + 1),
            loaded.level_words(depth + 1)
        );
    }

    /// Truncation at any length fails loudly.
    #[test]
    fn truncation_never_loads(cut_permille in 0usize..1000) {
        let mut small = engine(CostModel::unit(), 1);
        small.expand_to_cost(1);
        let bytes = small.snapshot_to_bytes().unwrap();
        let cut = bytes.len() * cut_permille / 1000;
        prop_assert!(cut < bytes.len());
        prop_assert!(SynthesisEngine::load_snapshot_from_bytes(&bytes[..cut], 1).is_err());
    }
}

/// FNV-1a digest of a whole snapshot, through the public `FnvHasher`.
fn fnv_digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut hasher = mvq_core::FnvHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

#[test]
fn snapshot_bytes_are_pinned() {
    // The on-disk v2 format is independent of how `seen` is stored or
    // hashed in memory: these digests were recorded before the slot
    // table replaced the `HashMap`, and they must never move unless the
    // format version does. Thread counts 1 and 2 exercise the inline
    // and the sharded expansion paths.
    let pins: [(&str, usize, u64); 3] = [
        ("narrow unit cb 5", 6_190_106, 0xb475_dd85_9e94_67ea),
        (
            "narrow weighted(1,2,3) cb 6",
            482_500,
            0xa9a5_0c1d_e408_dfb5,
        ),
        ("wide unit cb 3", 20_639_134, 0xd2e8_7d01_b50e_8beb),
    ];
    for threads in [1, 2] {
        let mut narrow = engine(CostModel::unit(), threads);
        narrow.expand_to_cost(5);
        let mut weighted = engine(CostModel::weighted(1, 2, 3), threads);
        weighted.expand_to_cost(6);
        let mut wide = mvq_core::WideSynthesisEngine::with_threads(
            GateLibrary::standard(4),
            CostModel::unit(),
            threads,
        );
        wide.expand_to_cost(3);
        let got = [
            narrow.snapshot_to_bytes().unwrap(),
            weighted.snapshot_to_bytes().unwrap(),
            wide.snapshot_to_bytes().unwrap(),
        ];
        for ((label, len, digest), bytes) in pins.iter().zip(&got) {
            assert_eq!(bytes.len(), *len, "{label} (threads = {threads}): length");
            assert_eq!(
                fnv_digest(bytes),
                *digest,
                "{label} (threads = {threads}): digest"
            );
        }
    }
}
