//! Owned-vs-view differential conformance for the `FGRVCKPT` entry
//! artifact: [`EntryArtifactView::parse`] must perform exactly the
//! validation of [`EntryArtifact::from_bytes`] — same accepted inputs,
//! same typed error (variant *and* payload, compared through `Debug`)
//! on every truncation, bit flip, section confusion, and corrupt
//! length field — and `to_artifact()` must decode to the same value,
//! pinned NaN-safely through canonical re-encoding. The companion
//! `FGRVPROF` suite lives in `store_view.rs`; the randomized
//! cross-format sweep in `fgrv-fuzz` runs the same oracle over mutated
//! inputs (see `docs/FUZZING.md`).

use fingrav::core::checkpoint::{
    CampaignManifest, CheckpointError, EntryArtifact, EntryArtifactView,
};
use proptest::prelude::*;

mod common;
use common::{assert_all_truncations_rejected, golden_entry};

/// Two codec results agree when both succeed with artifacts whose
/// canonical encodings match byte-for-byte (NaN-safe, unlike the
/// derived `PartialEq` on `f64` payloads) or both fail with the same
/// error, compared through `Debug` so the variant and its payload
/// (block label, magic bytes, message) must coincide.
fn assert_same_outcome(
    owned: Result<EntryArtifact, CheckpointError>,
    view: Result<EntryArtifact, CheckpointError>,
    what: &str,
) {
    match (owned, view) {
        (Ok(a), Ok(b)) => assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "{what}: owned and view decoded different artifacts"
        ),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{what}: owned and view failed differently"
        ),
        (a, b) => panic!("{what}: owned {a:?} vs view {b:?} disagree on success"),
    }
}

fn via_view(bytes: &[u8]) -> Result<EntryArtifact, CheckpointError> {
    EntryArtifactView::parse(bytes).map(|v| v.to_artifact())
}

// ---------------------------------------------------------------------
// Accepted inputs: the lazy route decodes the same artifact
// ---------------------------------------------------------------------

#[test]
fn view_of_golden_entry_equals_owned_decode() {
    let entry = golden_entry();
    let bytes = entry.to_bytes();

    let view = EntryArtifactView::parse(&bytes).expect("golden entry parses as a view");
    assert_eq!(view.index, entry.index);
    assert_eq!(view.config_digest, entry.config_digest);
    assert_eq!(view.label(), entry.report.label);

    // The borrowed per-profile stores agree bit-for-bit with the owned
    // profiles (diff is the NaN-safe comparison).
    for (view_store, owned_profile) in [
        (view.run_store(), &entry.report.run_profile),
        (view.sse_store(), &entry.report.sse_profile),
        (view.ssp_store(), &entry.report.ssp_profile),
    ] {
        assert!(owned_profile.store.diff_view(view_store).is_identical());
    }

    // Materialising the view reproduces the owned decode, and both
    // round-trip back to the source bytes.
    let owned = EntryArtifact::from_bytes(&bytes).expect("golden entry decodes");
    assert_eq!(view.to_artifact().to_bytes(), owned.to_bytes());
    assert_eq!(owned.to_bytes(), bytes);
}

// ---------------------------------------------------------------------
// Damage suites: truncation, bit flips, section confusion, bad lengths
// ---------------------------------------------------------------------

/// Every truncation is `Truncated` on the view path, and the two paths
/// report the identical block label at every cut.
#[test]
fn every_truncation_rejected_identically() {
    let bytes = golden_entry().to_bytes();
    assert_all_truncations_rejected(
        &bytes,
        1,
        |cut| EntryArtifactView::parse(cut).map(|v| v.index),
        |e| matches!(e, CheckpointError::Truncated(_)),
    );
    for cut in 0..bytes.len() {
        assert_same_outcome(
            EntryArtifact::from_bytes(&bytes[..cut]),
            via_view(&bytes[..cut]),
            &format!("cut at {cut}"),
        );
    }
}

#[test]
fn trailing_bytes_rejected_identically() {
    let mut bytes = golden_entry().to_bytes();
    bytes.extend_from_slice(b"JUNK");
    assert!(matches!(
        EntryArtifactView::parse(&bytes),
        Err(CheckpointError::Corrupt(msg)) if msg.contains("trailing")
    ));
    assert_same_outcome(
        EntryArtifact::from_bytes(&bytes),
        via_view(&bytes),
        "trailing bytes",
    );
}

/// Feeding a valid file of the wrong section kind to the view is
/// `Corrupt`, exactly as on the owned path. So is a header carrying the
/// retired section tag 3, which no reader accepts.
#[test]
fn wrong_section_rejected_identically() {
    let manifest_bytes = common::golden_manifest().to_bytes();
    assert!(matches!(
        EntryArtifactView::parse(&manifest_bytes),
        Err(CheckpointError::Corrupt(_))
    ));
    assert_same_outcome(
        EntryArtifact::from_bytes(&manifest_bytes),
        via_view(&manifest_bytes),
        "manifest bytes read as an entry",
    );

    let entry_bytes = golden_entry().to_bytes();
    assert!(matches!(
        CampaignManifest::from_bytes(&entry_bytes),
        Err(CheckpointError::Corrupt(_))
    ));

    let mut retired = entry_bytes;
    retired[12..16].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        CampaignManifest::from_bytes(&retired),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EntryArtifact::from_bytes(&retired),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EntryArtifactView::parse(&retired),
        Err(CheckpointError::Corrupt(_))
    ));
    assert_same_outcome(
        EntryArtifact::from_bytes(&retired),
        via_view(&retired),
        "retired section tag 3",
    );
}

/// An absurd label-length field (offset 28: 16-byte header + index +
/// digest) must be rejected before any allocation is sized from it, with
/// the identical error on both paths.
#[test]
fn absurd_embedded_lengths_rejected_identically() {
    let good = golden_entry().to_bytes();

    let mut absurd = good.clone();
    absurd[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        EntryArtifactView::parse(&absurd),
        Err(CheckpointError::Corrupt(_))
    ));
    assert_same_outcome(
        EntryArtifact::from_bytes(&absurd),
        via_view(&absurd),
        "absurd label length",
    );

    // Plausible (under the 2²⁰-byte string cap) but longer than the
    // buffer: truncation after at most one bounded chunk.
    let mut big = good;
    big[28..36].copy_from_slice(&(1_000_000u64).to_le_bytes());
    assert!(matches!(
        EntryArtifactView::parse(&big),
        Err(CheckpointError::Truncated(_))
    ));
    assert_same_outcome(
        EntryArtifact::from_bytes(&big),
        via_view(&big),
        "huge label length",
    );
}

proptest! {
    /// Arbitrary single-byte damage anywhere in the encoding — header,
    /// scalar fields, or inside one of the three embedded `FGRVPROF`
    /// blocks — yields the identical outcome on both paths: same
    /// success (artifacts with equal canonical encodings) or the same
    /// typed error. Neither path ever panics.
    #[test]
    fn bit_flips_fail_identically_on_both_paths(
        byte_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = golden_entry().to_bytes();
        let pos = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[pos] ^= flip;
        assert_same_outcome(
            EntryArtifact::from_bytes(&bytes),
            via_view(&bytes),
            &format!("byte {pos} xor {flip:#04x}"),
        );
    }

    /// Multi-site damage: several independent byte flips at once still
    /// keep the two paths in lockstep.
    #[test]
    fn scattered_damage_fails_identically(
        fracs in prop::collection::vec(0.0f64..1.0, 1..6),
        flips in prop::collection::vec(1u8..=255, 1..6),
    ) {
        let mut bytes = golden_entry().to_bytes();
        let n = fracs.len().min(flips.len());
        for i in 0..n {
            let pos = ((bytes.len() - 1) as f64 * fracs[i]) as usize;
            bytes[pos] ^= flips[i];
        }
        assert_same_outcome(
            EntryArtifact::from_bytes(&bytes),
            via_view(&bytes),
            &format!("{n} damage sites"),
        );
    }
}
