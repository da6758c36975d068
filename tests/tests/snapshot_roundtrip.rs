//! Snapshot round-trip and robustness suite: the level tables must
//! survive save → load byte-for-byte for arbitrary cost models and
//! depths, resumed expansion must be bit-identical to a never-snapshotted engine, and damaged
//! files must fail with a typed error — never UB or a silently-empty
//! cache.

use mvq_core::{known, CostModel, ProbeHandle, SnapshotError, SnapshotImage, SynthesisEngine};
use mvq_logic::GateLibrary;
use mvq_serve::EngineHost;
use proptest::prelude::*;

fn engine(model: CostModel) -> SynthesisEngine {
    SynthesisEngine::new(GateLibrary::standard(3), model)
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
fn loaded_expansion_matches_native() {
    // A snapshot-loaded engine must keep expanding bit-identically: the
    // loaded `seen` table hands out the same handles, in the same
    // order, as a natively-expanded one.
    let mut reference = engine(CostModel::unit());
    reference.expand_to_cost(5);
    let want = reference.synthesize(&known::toffoli_perm(), 6).unwrap();
    for depth in [3, 4] {
        let mut snapshotted = engine(CostModel::unit());
        snapshotted.expand_to_cost(depth);
        let bytes = snapshotted.snapshot_to_bytes().unwrap();
        let mut resumed = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
        resumed.expand_to_cost(5);
        assert_levels_identical(&reference, &resumed, 5, &format!("from cost {depth}"));
        let got = resumed.synthesize(&known::toffoli_perm(), 6).unwrap();
        assert_eq!(want.circuit.to_string(), got.circuit.to_string());
        assert_eq!(want.implementation_count, got.implementation_count);
    }
}

#[test]
fn every_damaged_byte_fails_loudly() {
    // Sweep a corruption byte across the whole (small) file: every
    // position must produce an error, never a silently-wrong engine.
    let mut small = engine(CostModel::unit());
    small.expand_to_cost(1);
    let bytes = small.snapshot_to_bytes().unwrap();
    for offset in 0..bytes.len() {
        let mut damaged = bytes.to_vec();
        damaged[offset] ^= 0xA5;
        assert!(
            SynthesisEngine::load_snapshot_from_bytes(&damaged).is_err(),
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
    let mut native = engine(CostModel::unit());
    native.expand_to_cost(3);
    let mut snapshotted = engine(CostModel::unit());
    snapshotted.expand_to_cost(3);
    let bytes = snapshotted.snapshot_to_bytes().unwrap();
    let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
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
    let mut snapshotted = engine(CostModel::unit());
    snapshotted.expand_to_cost(3);
    let image = snapshotted.snapshot_to_bytes().unwrap();

    // A borrowed slice is copied once; the copy is the engine's image.
    let mut copied = SynthesisEngine::load_snapshot_from_bytes(&image).unwrap();
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
        SynthesisEngine::load_snapshot_image(image.clone(), ProbeHandle::none()).unwrap();
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
    loaded = SynthesisEngine::load_snapshot_image(image.clone(), ProbeHandle::none()).unwrap();
    assert!(loaded.settle_one_level());
    assert_eq!(
        SnapshotImage::handle_count(&image),
        1,
        "image and frontier released"
    );
    let derived = loaded.snapshot_to_bytes().unwrap();
    let mut native = engine(CostModel::unit());
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
        let mut original = engine(model);
        original.expand_to_cost(depth);
        let bytes = original.snapshot_to_bytes().unwrap();
        let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&bytes).unwrap();
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
        let mut small = engine(CostModel::unit());
        small.expand_to_cost(1);
        let bytes = small.snapshot_to_bytes().unwrap();
        let cut = bytes.len() * cut_permille / 1000;
        prop_assert!(cut < bytes.len());
        prop_assert!(SynthesisEngine::load_snapshot_from_bytes(&bytes[..cut]).is_err());
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
    // The on-disk format is independent of how `seen` is stored or
    // hashed in memory: these digests must never move unless the format
    // version does. Version 3 stores every word as its parent's position
    // plus one gate, so both unit snapshots stay under 1 MB (version 2
    // wrote 6,190,106 and 20,639,134 bytes of raw image tables).
    let pins: [(&str, usize, u64); 3] = [
        ("narrow unit cb 5", 760_704, 0x6123_ef10_491e_0a16),
        ("narrow weighted(1,2,3) cb 6", 59_788, 0xbce9_8acb_ae93_fa3a),
        ("wide unit cb 3", 580_186, 0x1fc7_1739_be23_4093),
    ];
    let mut narrow = engine(CostModel::unit());
    narrow.expand_to_cost(5);
    let mut weighted = engine(CostModel::weighted(1, 2, 3));
    weighted.expand_to_cost(6);
    let mut wide = mvq_core::WideSynthesisEngine::new(GateLibrary::standard(4), CostModel::unit());
    wide.expand_to_cost(3);
    let got = [
        narrow.snapshot_to_bytes().unwrap(),
        weighted.snapshot_to_bytes().unwrap(),
        wide.snapshot_to_bytes().unwrap(),
    ];
    for ((label, len, digest), bytes) in pins.iter().zip(&got) {
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes(), "{label}: version");
        assert_eq!(bytes.len(), *len, "{label}: length");
        assert_eq!(fnv_digest(bytes), *digest, "{label}: digest");
    }
    // The header's |A| and frontier word count stay exact: a loaded
    // engine reports the writer's |A| before and after its frontier
    // merges.
    let mut loaded = SynthesisEngine::load_snapshot_from_bytes(&got[0]).unwrap();
    assert_eq!(loaded.a_size(), narrow.a_size());
    loaded.ensure_frontier();
    assert_eq!(loaded.a_size(), narrow.a_size());
    let mut loaded = mvq_core::WideSynthesisEngine::load_snapshot_from_bytes(&got[2]).unwrap();
    assert_eq!(loaded.a_size(), wide.a_size());
    loaded.ensure_frontier();
    assert_eq!(loaded.a_size(), wide.a_size());
}
