//! Zero-copy `ProfileStoreView` guarantees: every accessor and shared
//! kernel agrees bit-for-bit with the owned `ProfileStore` on random
//! stores; the CSV render through the view is byte-identical to the
//! owned render; `extend_from_view` equals the copy-then-merge path;
//! and damaged encodings (truncations, bit flips, stray bitmap bits,
//! non-canonical slots, trailing bytes) fail with the *same* typed error
//! on the view path as on the owned decoder — never a panic, never a
//! wrong store.

use fingrav::core::profile::ProfileAxis;
use fingrav::core::report::{columns_to_csv, view_to_csv};
use fingrav::core::store::{ProfileStore, ProfileStoreView, StoreCodecError};
use proptest::prelude::*;

mod common;
use common::{assert_all_truncations_rejected, build_store};

/// Two codec results agree when both succeed with equal stores or both
/// fail with the same error (compared through `Debug`, which covers the
/// variant *and* its payload: block label, magic bytes, message).
fn assert_same_outcome(
    owned: Result<ProfileStore, StoreCodecError>,
    view: Result<ProfileStore, StoreCodecError>,
    what: &str,
) {
    match (owned, view) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: owned and view decoded different stores"),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{what}: owned and view failed differently"
        ),
        (a, b) => panic!("{what}: owned {a:?} vs view {b:?} disagree on success"),
    }
}

// ---------------------------------------------------------------------
// Property: every view accessor / kernel ≡ the owned store
// ---------------------------------------------------------------------

proptest! {
    /// On a random store, the borrowed view returns exactly what the
    /// owned store returns for every accessor and every shared kernel.
    #[test]
    fn view_accessors_and_kernels_match_owned(
        runs in prop::collection::vec(0u32..500, 0..120),
        vals in prop::collection::vec(-1.0e7f64..1.0e7, 0..120),
        execs in prop::collection::vec(0u32..64, 0..120),
    ) {
        let store = build_store(&runs, &vals, &execs);
        let bytes = store.to_bytes();
        let view = ProfileStoreView::new(&bytes).expect("valid encoding");

        prop_assert_eq!(view.len(), store.len());
        prop_assert_eq!(view.is_empty(), store.is_empty());
        prop_assert_eq!(view.encoded_len(), bytes.len());

        for i in 0..store.len() {
            prop_assert_eq!(view.run(i), store.run(i));
            prop_assert_eq!(view.exec_pos(i), store.exec_pos(i));
            prop_assert_eq!(view.in_exec(i), store.in_exec(i));
            // NaN-safe: compare through bits, not PartialEq.
            prop_assert_eq!(
                view.toi_ns(i).map(f64::to_bits),
                store.toi_ns(i).map(f64::to_bits)
            );
            prop_assert_eq!(
                view.run_time_ns(i).to_bits(),
                store.run_time_ns(i).to_bits()
            );
            prop_assert_eq!(view.power(i), store.power(i));
            prop_assert_eq!(view.total_w(i).to_bits(), store.total_w(i).to_bits());
            prop_assert_eq!(view.point(i), store.point(i));
        }
        prop_assert_eq!(
            view.points().collect::<Vec<_>>(),
            (0..store.len()).map(|i| store.point(i)).collect::<Vec<_>>()
        );

        prop_assert_eq!(view.sum_power(), store.sum_power());
        prop_assert_eq!(view.mean_power(), store.mean_power());
        prop_assert_eq!(view.in_exec_count(), store.in_exec_count());
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            prop_assert_eq!(view.argsort_by_axis(axis), store.argsort_by_axis(axis));
            prop_assert_eq!(view.sorted_by_axis(axis), store.sorted_by_axis(axis));
        }
        let pred_view = view.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0);
        let pred_owned = store.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0);
        prop_assert_eq!(&pred_view, &pred_owned);
        prop_assert_eq!(view.indices_in_exec(), store.indices_in_exec());
        prop_assert_eq!(view.select(&pred_view), store.select(&pred_owned));

        prop_assert_eq!(view.to_store(), store.clone());
        prop_assert!(view.diff(&view).is_identical());
        prop_assert!(view.diff_store(&store).is_identical());
        prop_assert!(store.diff_view(&view).is_identical());
    }

    /// The CSV formatter renders a view byte-identically to the owned
    /// store it was decoded from, on both axes.
    #[test]
    fn view_csv_render_matches_owned(
        runs in prop::collection::vec(0u32..100, 0..60),
        vals in prop::collection::vec(-1.0e6f64..1.0e6, 0..60),
        execs in prop::collection::vec(0u32..64, 0..60),
    ) {
        let store = build_store(&runs, &vals, &execs);
        let bytes = store.to_bytes();
        let view = ProfileStoreView::new(&bytes).expect("valid encoding");
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            prop_assert_eq!(view_to_csv(&view, axis), columns_to_csv(&store, axis));
        }
    }

    /// Streaming-merge primitive: appending a view to a non-empty store
    /// equals decode-then-`extend_from`, and the pre-reserved columns
    /// never over-allocate beyond one exact reservation.
    #[test]
    fn extend_from_view_equals_copy_then_merge(
        runs_a in prop::collection::vec(0u32..100, 0..50),
        vals_a in prop::collection::vec(-1.0e6f64..1.0e6, 0..50),
        execs_a in prop::collection::vec(0u32..64, 0..50),
        runs_b in prop::collection::vec(0u32..100, 0..50),
        vals_b in prop::collection::vec(-1.0e6f64..1.0e6, 0..50),
        execs_b in prop::collection::vec(0u32..64, 0..50),
    ) {
        let base = build_store(&runs_a, &vals_a, &execs_a);
        let tail = build_store(&runs_b, &vals_b, &execs_b);
        let tail_bytes = tail.to_bytes();
        let tail_view = ProfileStoreView::new(&tail_bytes).expect("valid encoding");

        let mut via_view = base.clone();
        via_view.extend_from_view(&tail_view);
        let mut via_copy = base.clone();
        via_copy.extend_from(&tail_view.to_store());
        prop_assert_eq!(&via_view, &via_copy);
        prop_assert_eq!(via_view.to_bytes(), via_copy.to_bytes());
    }

    /// Bit flips anywhere in the encoding: the view constructor and the
    /// owned decoder agree exactly — same success (equal stores) or the
    /// same typed error. Neither path ever panics.
    #[test]
    fn bit_flips_fail_identically_on_both_paths(
        runs in prop::collection::vec(0u32..100, 1..40),
        vals in prop::collection::vec(-1.0e6f64..1.0e6, 1..40),
        execs in prop::collection::vec(0u32..64, 1..40),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let store = build_store(&runs, &vals, &execs);
        let mut bytes = store.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[pos] ^= 1 << bit;
        assert_same_outcome(
            ProfileStore::from_bytes(&bytes),
            ProfileStoreView::new(&bytes).map(|v| v.to_store()),
            &format!("bit {bit} of byte {pos} flipped"),
        );
    }
}

// ---------------------------------------------------------------------
// Damage suites: truncation, stray bits, non-canonical slots, trailers
// ---------------------------------------------------------------------

/// Every truncation of a valid encoding is `Truncated` on both paths,
/// with the *same* block label; never a panic, never a wrong store.
#[test]
fn every_truncation_rejected_identically() {
    let store = build_store(
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[1.0, -2.0, 3.5, 0.0, 9.25, -8.5, 4.0, 2.0],
        &[0, 1, 2, 3, 4, 5, 6, 7],
    );
    let bytes = store.to_bytes();
    assert_all_truncations_rejected(
        &bytes,
        1,
        |cut| ProfileStoreView::new(cut).map(|v| v.len()),
        |e| matches!(e, StoreCodecError::Truncated(_)),
    );
    for cut in 0..bytes.len() {
        assert_same_outcome(
            ProfileStore::from_bytes(&bytes[..cut]),
            ProfileStoreView::new(&bytes[..cut]).map(|v| v.to_store()),
            &format!("cut at {cut}"),
        );
    }
}

#[test]
fn stray_bitmap_tail_bit_is_corrupt() {
    let store = build_store(&[1, 2, 3], &[10.0, -20.0, 30.0], &[1, 2, 4]);
    let mut bytes = store.to_bytes();
    // 3 points -> one bitmap word; bits 3..64 must be zero. Set bit 7.
    let bitmap_word_start = bytes.len() - 8;
    bytes[bitmap_word_start] |= 1 << 7;
    for (what, outcome) in [
        ("owned", ProfileStore::from_bytes(&bytes).map(|_| ())),
        ("view", ProfileStoreView::new(&bytes).map(|_| ())),
    ] {
        match outcome {
            Err(StoreCodecError::Corrupt(msg)) => {
                assert!(msg.contains("bit"), "{what}: unhelpful message {msg:?}")
            }
            other => panic!("{what}: stray tail bit accepted: {other:?}"),
        }
    }
}

#[test]
fn non_canonical_invalid_slot_is_corrupt() {
    // Point 0 is out-of-execution (exec multiple of 3 in `build_store`),
    // so its exec_pos and toi_ns slots must be zero in canonical form.
    let store = build_store(&[1, 2], &[10.0, 20.0], &[3, 1]);
    assert!(!store.in_exec(0), "fixture: point 0 must be invalid");
    let clean = store.to_bytes();

    // exec_pos block starts after header (24) + run block (4·2).
    let mut dirty_exec = clean.clone();
    dirty_exec[24 + 8] = 7;
    // toi block starts after both u32 blocks.
    let mut dirty_toi = clean.clone();
    dirty_toi[24 + 16] = 1;

    for (what, bytes) in [("exec_pos", dirty_exec), ("toi_ns", dirty_toi)] {
        assert!(
            matches!(
                ProfileStoreView::new(&bytes),
                Err(StoreCodecError::Corrupt(_))
            ),
            "view accepted a non-canonical {what} slot"
        );
        assert_same_outcome(
            ProfileStore::from_bytes(&bytes),
            ProfileStoreView::new(&bytes).map(|v| v.to_store()),
            &format!("non-canonical {what}"),
        );
    }
}

#[test]
fn trailing_bytes_rejected_but_split_prefix_returns_them() {
    let store = build_store(&[1, 2, 3], &[10.0, -20.0, 30.0], &[1, 2, 4]);
    let mut bytes = store.to_bytes();
    let clean_len = bytes.len();
    bytes.extend_from_slice(b"JUNK");

    assert!(matches!(
        ProfileStoreView::new(&bytes),
        Err(StoreCodecError::Corrupt(msg)) if msg.contains("trailing")
    ));
    assert_same_outcome(
        ProfileStore::from_bytes(&bytes),
        ProfileStoreView::new(&bytes).map(|v| v.to_store()),
        "trailing bytes",
    );

    // The embedded-store entry point hands the remainder back instead.
    let (view, rest) = ProfileStoreView::split_prefix(&bytes).expect("prefix is valid");
    assert_eq!(view.encoded_len(), clean_len);
    assert_eq!(rest, b"JUNK");
    assert_eq!(view.to_store(), store);
}

/// A header claiming an implausible point count is rejected before any
/// column allocation could happen (typed error, instant return).
#[test]
fn implausible_length_rejected_without_allocation() {
    let store = build_store(&[1], &[10.0], &[1]);
    let mut bytes = store.to_bytes();
    bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    for outcome in [
        ProfileStore::from_bytes(&bytes).map(|_| ()),
        ProfileStoreView::new(&bytes).map(|_| ()),
    ] {
        match outcome {
            Err(StoreCodecError::Corrupt(msg)) => assert!(msg.contains("implausible")),
            other => panic!("implausible length accepted: {other:?}"),
        }
    }

    // A *plausible but huge* count against a tiny buffer is truncation,
    // and must also return without trying to materialise the columns.
    bytes[16..24].copy_from_slice(&(u64::from(u32::MAX)).to_le_bytes());
    assert!(matches!(
        ProfileStoreView::new(&bytes),
        Err(StoreCodecError::Truncated(_))
    ));
    assert!(matches!(
        ProfileStore::from_bytes(&bytes),
        Err(StoreCodecError::Truncated(_))
    ));
}
