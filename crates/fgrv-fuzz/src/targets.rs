//! The fuzz targets: one per untrusted-input decode path, each pairing a
//! decoder with its differential conformance oracle.
//!
//! Every target's `execute` upholds the same contract on EVERY input:
//!
//! * it never panics (panics are caught one level up, in the executor);
//! * rejected inputs yield a typed error, hashed into the run's
//!   error-taxonomy coverage;
//! * where an owned and a zero-copy decoder exist for the same bytes
//!   (`FGRVPROF` store vs [`ProfileStoreView`], [`EntryArtifact`] vs
//!   [`EntryArtifactView`], plain vs budgeted wire reads), both must
//!   agree — same accepted value, or typed errors with identical `Debug`
//!   renderings (the `tests/store_view.rs` comparison idiom);
//! * accepted inputs re-encode and re-decode to an equal value.
//!
//! Any violation comes back as `Err(description)` — a divergence the
//! harness records, minimizes, and writes out as a crash artifact.

use std::io::{self, Read};
use std::time::Duration;

use fingrav_core::checkpoint::{CampaignManifest, EntryArtifact, EntryArtifactView};
use fingrav_core::store::{ProfileStore, ProfileStoreView};
use fingrav_core::transport::{read_next_frame, read_preamble, write_preamble, Frame};
use fingrav_core::{ProfilePoint, ProfilingEvent, StageKind};
use fingrav_sim::power::ComponentPower;
use fingrav_sim::script::HostOp;
use fingrav_sim::session::TelemetryEvent;

use crate::corpus::taxonomy_hash;

/// One decode path under fuzz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `FGRVPROF`: [`ProfileStore::from_bytes`] vs
    /// [`ProfileStoreView::new`] / [`ProfileStoreView::split_prefix`].
    Prof,
    /// `FGRVCKPT` manifest section: [`CampaignManifest::from_bytes`].
    CkptManifest,
    /// `FGRVCKPT` entry section: [`EntryArtifact::from_bytes`] vs
    /// [`EntryArtifactView::parse`].
    CkptEntry,
    /// `FGRVWIRE` v3 stream: [`Frame::read_from`] loop vs the budgeted
    /// [`read_next_frame`] path over a stalling reader.
    Wire,
}

/// A row of the shipped target table (also what `docs/FUZZING.md` pins).
#[derive(Debug, Clone, Copy)]
pub struct TargetInfo {
    /// CLI name (`fgrv-fuzz run <name>`).
    pub name: &'static str,
    /// The decode path.
    pub target: Target,
    /// One-line description for `fgrv-fuzz list` and the docs table.
    pub description: &'static str,
}

/// Every shipped fuzz target. `docs/FUZZING.md`'s table mirrors this
/// row for row (pinned by `tests/docs_spec.rs`).
pub const TARGETS: [TargetInfo; 4] = [
    TargetInfo {
        name: "prof",
        target: Target::Prof,
        description: "FGRVPROF store: owned decode vs zero-copy view, round trip, split_prefix",
    },
    TargetInfo {
        name: "ckpt-manifest",
        target: Target::CkptManifest,
        description: "FGRVCKPT manifest section: decode + re-encode round trip",
    },
    TargetInfo {
        name: "ckpt-entry",
        target: Target::CkptEntry,
        description: "FGRVCKPT entry section: owned decode vs zero-copy view, round trip",
    },
    TargetInfo {
        name: "wire",
        target: Target::Wire,
        description: "FGRVWIRE v3 stream: plain frame loop vs budgeted heartbeat-skipping reader",
    },
];

/// Looks a target up by CLI name.
pub fn find(name: &str) -> Option<Target> {
    TARGETS
        .iter()
        .find(|info| info.name == name)
        .map(|info| info.target)
}

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

/// A small valid store exercising every column (validity gaps included).
fn seed_store(n: usize, salt: u32) -> ProfileStore {
    let mut store = ProfileStore::with_capacity(n);
    for i in 0..n {
        let i32u = i as u32;
        let valid = !(i + salt as usize).is_multiple_of(3);
        let v = f64::from(i32u) * 1.5 + f64::from(salt);
        store.push(ProfilePoint {
            run: i32u % 4,
            exec_pos: valid.then_some(i32u),
            toi_ns: valid.then_some(v.abs()),
            run_time_ns: v,
            power: ComponentPower::new(v * 0.5, v * 0.25, v * 0.15, v * 0.1),
        });
    }
    store
}

/// A short valid wire stream: preamble plus `frames`, heartbeats where
/// asked.
fn seed_stream(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    write_preamble(&mut out).expect("vec write");
    for frame in frames {
        frame.write_to(&mut out).expect("vec write");
    }
    out
}

/// A batch of every event shape a stage emits: its boundaries around
/// device events of several kinds.
fn seed_events() -> Vec<ProfilingEvent> {
    vec![
        ProfilingEvent::StageStarted {
            stage: StageKind::Calibrate,
        },
        ProfilingEvent::Device(TelemetryEvent::ScriptStarted { ops: 3 }),
        ProfilingEvent::Device(TelemetryEvent::OpStarted {
            index: 0,
            op: HostOp::ReadGpuTimestamp,
        }),
        ProfilingEvent::Device(TelemetryEvent::OpFinished { index: 0 }),
        ProfilingEvent::Device(TelemetryEvent::ScriptDone { aborted: false }),
        ProfilingEvent::StageFinished {
            stage: StageKind::Calibrate,
        },
    ]
}

/// A stream holding one `Events` frame whose event count is `claimed`
/// whatever the payload carries — the shape of a peer that lies about
/// its batch size.
fn seed_miscounted_batch(claimed: u64) -> Vec<u8> {
    let mut stream = seed_stream(&[Frame::Events {
        index: 1,
        events: seed_events(),
    }]);
    // Preamble (16), tag (4), length (8), index (8), then the count.
    stream[36..44].copy_from_slice(&claimed.to_le_bytes());
    stream
}

/// A stream holding one frame with the retired v2 `Event` tag (9) and
/// the payload a v2 peer would have sent with it.
fn seed_retired_event_frame() -> Vec<u8> {
    let mut payload = 4u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0, 0]); // StageStarted { Calibrate }
    let mut stream = seed_stream(&[]);
    stream.extend_from_slice(&9u32.to_le_bytes());
    stream.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    stream.extend_from_slice(&payload);
    stream
}

/// The built-in seed corpus for `target`: a handful of valid encodings
/// (so mutation starts past the magic check) plus the empty input.
pub fn seeds(target: Target) -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = match target {
        Target::Prof => vec![
            seed_store(0, 0).to_bytes(),
            seed_store(3, 1).to_bytes(),
            seed_store(17, 2).to_bytes(),
            seed_store(64, 3).to_bytes(),
        ],
        Target::CkptManifest => {
            vec![include_bytes!("../../../tests/data/golden_manifest.fgrvckpt").to_vec()]
        }
        Target::CkptEntry => {
            vec![include_bytes!("../../../tests/data/golden_entry.fgrvckpt").to_vec()]
        }
        Target::Wire => {
            let artifact = include_bytes!("../../../tests/data/golden_entry.fgrvckpt").to_vec();
            vec![
                seed_stream(&[]),
                // Every tag once, heartbeats interleaved so the budgeted
                // path's skip loop is on the hot path from round zero.
                seed_stream(&[
                    Frame::Hello {
                        digest: 0x0123_4567_89ab_cdef,
                        sequence: 0,
                    },
                    Frame::Heartbeat,
                    Frame::Welcome {
                        shard: 2,
                        entries: 9,
                    },
                    Frame::Deny {
                        code: 1,
                        detail: "digest mismatch".to_string(),
                    },
                    Frame::Request,
                    Frame::Assign { index: 4 },
                    Frame::Heartbeat,
                    Frame::Finished { complete: true },
                    Frame::Abort,
                    Frame::Started {
                        index: 4,
                        label: "CB-4K-GEMM".to_string(),
                    },
                    Frame::Events {
                        index: 4,
                        events: seed_events(),
                    },
                    Frame::Done {
                        index: 4,
                        artifact: artifact.clone(),
                    },
                    Frame::Failed {
                        index: 5,
                        error: fingrav_core::MethodologyError::Aborted,
                    },
                    Frame::Fetch { index: 4 },
                    Frame::Artifact { artifact },
                    Frame::Bye,
                    Frame::Heartbeat,
                ]),
                seed_stream(&[Frame::Events {
                    index: 0,
                    events: Vec::new(),
                }]),
                seed_stream(&[
                    Frame::Events {
                        index: 2,
                        events: seed_events(),
                    },
                    Frame::Heartbeat,
                    Frame::Events {
                        index: 2,
                        events: seed_events(),
                    },
                ]),
                // Overstated by far more than the payload holds, and by
                // one event more than it carries.
                seed_miscounted_batch(1 << 40),
                seed_miscounted_batch(seed_events().len() as u64 + 1),
                seed_retired_event_frame(),
            ]
        }
    };
    seeds.push(Vec::new());
    seeds
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Outcome of one oracle-checked execution: the error-taxonomy hashes
/// the input produced (empty when it decoded cleanly).
pub type Taxonomy = Vec<u64>;

/// Runs `input` through `target`'s decoder(s) and differential oracle.
///
/// # Errors
///
/// An `Err` is an oracle violation — an owned/view divergence or a
/// broken re-encode round trip — described well enough to triage from
/// the crash artifact alone. Panics are NOT caught here; the executor
/// wraps this call in `catch_unwind`.
pub fn execute(target: Target, input: &[u8]) -> Result<Taxonomy, String> {
    match target {
        Target::Prof => run_prof(input),
        Target::CkptManifest => run_manifest(input),
        Target::CkptEntry => run_entry(input),
        Target::Wire => run_wire(input),
    }
}

fn hash_err<E: std::fmt::Debug>(e: &E) -> u64 {
    taxonomy_hash(&format!("{e:?}"))
}

fn run_prof(input: &[u8]) -> Result<Taxonomy, String> {
    let owned = ProfileStore::from_bytes(input);
    let view = ProfileStoreView::new(input);
    match (owned, view) {
        (Ok(store), Ok(view)) => {
            // `diff_view` bit-compares float columns, so a decoded NaN
            // equals itself — `PartialEq` would false-alarm here.
            let diff = store.diff_view(&view);
            if !diff.is_identical() {
                return Err(format!(
                    "owned decode != view on accepted input: {}",
                    diff.mismatch_brief()
                ));
            }
            // Accepted inputs re-encode and re-decode to the same value.
            // Value, not bytes: the header flags word is ignored on
            // decode and re-encoded as zero.
            let bytes = store.to_bytes();
            match ProfileStore::from_bytes(&bytes) {
                Ok(again) if store.diff(&again).is_identical() => {}
                Ok(again) => {
                    return Err(format!(
                        "FGRVPROF re-decode drifted: {}",
                        store.diff(&again).mismatch_brief()
                    ))
                }
                Err(e) => return Err(format!("FGRVPROF re-encode failed to decode: {e:?}")),
            }
            // split_prefix must hand back exactly the trailing junk.
            let mut framed = bytes;
            framed.extend_from_slice(&[0xA5; 4]);
            match ProfileStoreView::split_prefix(&framed) {
                Ok((prefix, rest)) if rest == [0xA5; 4] => {
                    if !store.diff_view(&prefix).is_identical() {
                        return Err("split_prefix prefix decoded differently".to_string());
                    }
                }
                Ok((_, rest)) => {
                    return Err(format!(
                        "split_prefix returned {} trailing bytes, wanted 4",
                        rest.len()
                    ))
                }
                Err(e) => return Err(format!("split_prefix rejected a valid prefix: {e:?}")),
            }
            Ok(Vec::new())
        }
        (Err(a), Err(b)) => {
            let (da, db) = (format!("{a:?}"), format!("{b:?}"));
            if da != db {
                return Err(format!("owned/view error divergence: owned={da} view={db}"));
            }
            Ok(vec![taxonomy_hash(&da)])
        }
        (Ok(_), Err(e)) => Err(format!("owned accepted what the view rejected: {e:?}")),
        (Err(e), Ok(_)) => Err(format!("view accepted what owned rejected: {e:?}")),
    }
}

/// Decode + round-trip oracle for the manifest section (a
/// single-decoder target). Value equality is checked through the
/// canonical encoding — bit-exact, so decoded NaN payloads equal
/// themselves where derived `PartialEq` would not.
fn run_manifest(input: &[u8]) -> Result<Taxonomy, String> {
    match CampaignManifest::from_bytes(input) {
        Ok(manifest) => {
            let bytes = manifest.to_bytes();
            match CampaignManifest::from_bytes(&bytes) {
                Ok(again) if again.to_bytes() == bytes => Ok(Vec::new()),
                Ok(_) => Err("FGRVCKPT manifest re-decode drifted from the original".to_string()),
                Err(e) => Err(format!(
                    "FGRVCKPT manifest re-encode failed to decode: {e:?}"
                )),
            }
        }
        Err(e) => Ok(vec![hash_err(&e)]),
    }
}

fn run_entry(input: &[u8]) -> Result<Taxonomy, String> {
    let owned = EntryArtifact::from_bytes(input);
    let view = EntryArtifactView::parse(input);
    match (owned, view) {
        (Ok(artifact), Ok(view)) => {
            // Compare through the canonical encoding (bit-exact, NaN-safe
            // — derived `PartialEq` would false-alarm on accepted NaN
            // float fields).
            let bytes = artifact.to_bytes();
            if view.to_artifact().to_bytes() != bytes {
                return Err("owned decode != view.to_artifact() on accepted input".to_string());
            }
            match EntryArtifact::from_bytes(&bytes) {
                Ok(again) if again.to_bytes() == bytes => Ok(Vec::new()),
                Ok(_) => Err("FGRVCKPT entry re-decode drifted from the original".to_string()),
                Err(e) => Err(format!("FGRVCKPT entry re-encode failed to decode: {e:?}")),
            }
        }
        (Err(a), Err(b)) => {
            let (da, db) = (format!("{a:?}"), format!("{b:?}"));
            if da != db {
                return Err(format!("owned/view error divergence: owned={da} view={db}"));
            }
            Ok(vec![taxonomy_hash(&da)])
        }
        (Ok(_), Err(e)) => Err(format!("owned accepted what the view rejected: {e:?}")),
        (Err(e), Ok(_)) => Err(format!("view accepted what owned rejected: {e:?}")),
    }
}

// ---------------------------------------------------------------------
// Wire: plain vs budgeted differential
// ---------------------------------------------------------------------

/// A reader that drips `data` a few bytes at a time and injects a
/// `WouldBlock` every third call — the shape of a live socket with a
/// read timeout. Deterministic, so both fuzz passes over the same input
/// see the same byte schedule.
struct Chop<'a> {
    data: &'a [u8],
    at: usize,
    calls: usize,
}

impl Read for Chop<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "chop tick"));
        }
        let take = buf.len().min(3).min(self.data.len() - self.at);
        buf[..take].copy_from_slice(&self.data[self.at..self.at + take]);
        self.at += take;
        Ok(take)
    }
}

/// The budgeted pass's idle allowance. Huge, so a deterministic
/// in-memory run can never race the wall clock into a spurious
/// `DeadlineLapsed` — the `WouldBlock` ticks still drive the deadline
/// accounting code, they just never accumulate enough silence.
const FUZZ_IDLE: Duration = Duration::from_secs(3600);

fn run_wire(input: &[u8]) -> Result<Taxonomy, String> {
    // Pass A: preamble + plain frame loop, straight off the slice.
    let mut cursor = input;
    if let Err(e) = read_preamble(&mut cursor) {
        // Both passes share `read_preamble`'s validation byte for byte;
        // a bad preamble is one taxonomy bucket, no differential to run.
        return Ok(vec![hash_err(&e)]);
    }
    let body = cursor;
    let mut plain_frames = Vec::new();
    let mut r = body;
    let plain_terminal;
    loop {
        match Frame::read_from(&mut r) {
            Ok(Frame::Heartbeat) => {}
            Ok(frame) => plain_frames.push(frame),
            Err(e) => {
                plain_terminal = format!("{e:?}");
                break;
            }
        }
    }

    // Pass B: budgeted reads over a stalling, dripping reader. The
    // heartbeat skip lives inside `read_next_frame`, so filtering
    // happened for us.
    let mut chop = Chop {
        data: body,
        at: 0,
        calls: 0,
    };
    let mut budgeted_frames = Vec::new();
    let budgeted_terminal;
    loop {
        match read_next_frame(&mut chop, FUZZ_IDLE) {
            Ok(frame) => budgeted_frames.push(frame),
            Err(e) => {
                budgeted_terminal = format!("{e:?}");
                break;
            }
        }
    }

    // Compare the two passes through the canonical encoding: bit-exact,
    // so frames carrying decoded NaN telemetry equal themselves (derived
    // `PartialEq` on f64 fields would false-alarm).
    let encode = |frame: &Frame| -> Result<Vec<u8>, String> {
        let mut bytes = Vec::new();
        frame
            .write_to(&mut bytes)
            .map_err(|e| format!("accepted frame refused to re-encode: {e}"))?;
        Ok(bytes)
    };
    let plain_encoded: Vec<Vec<u8>> = plain_frames.iter().map(encode).collect::<Result<_, _>>()?;
    let budgeted_encoded: Vec<Vec<u8>> = budgeted_frames
        .iter()
        .map(encode)
        .collect::<Result<_, _>>()?;
    if plain_encoded != budgeted_encoded {
        return Err(format!(
            "wire divergence: plain path decoded {} frames, budgeted {}",
            plain_frames.len(),
            budgeted_frames.len()
        ));
    }
    if plain_terminal != budgeted_terminal {
        return Err(format!(
            "wire terminal-error divergence: plain={plain_terminal} budgeted={budgeted_terminal}"
        ));
    }

    // Accepted frames re-read from their re-encoding to the same bytes.
    for bytes in &plain_encoded {
        let mut r = bytes.as_slice();
        match Frame::read_from(&mut r) {
            Ok(again) => {
                if encode(&again)? != *bytes {
                    return Err("frame re-decode drifted from the original".to_string());
                }
            }
            Err(e) => return Err(format!("frame re-encode failed to decode: {e:?}")),
        }
    }

    // The terminal error is the input's taxonomy. A stream that ends
    // cleanly terminates with `Truncated("frame tag")`, so every clean
    // stream collapses into that one shared bucket.
    Ok(vec![taxonomy_hash(&plain_terminal)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingrav_core::checkpoint::CheckpointError;
    use fingrav_core::transport::TransportError;

    #[test]
    fn every_seed_passes_its_own_oracle() {
        for info in TARGETS {
            for (i, seed) in seeds(info.target).iter().enumerate() {
                if let Err(why) = execute(info.target, seed) {
                    panic!("target {} seed {i}: {why}", info.name);
                }
            }
        }
    }

    #[test]
    fn target_names_are_unique_and_resolvable() {
        for info in TARGETS {
            assert_eq!(find(info.name), Some(info.target));
        }
        assert_eq!(find("nope"), None);
    }

    /// The v3 batch seeds reach the decoder branches they were written
    /// for: an empty batch decodes, a lying count and the retired tag are
    /// typed rejections.
    #[test]
    fn wire_batch_seeds_decode_as_intended() {
        let first_frame = |stream: &[u8]| {
            let mut r = &stream[16..];
            Frame::read_from(&mut r)
        };
        let empty = seed_stream(&[Frame::Events {
            index: 0,
            events: Vec::new(),
        }]);
        assert!(matches!(
            first_frame(&empty),
            Ok(Frame::Events { index: 0, events }) if events.is_empty()
        ));
        assert!(matches!(
            first_frame(&seed_miscounted_batch(1 << 40)),
            Err(TransportError::Checkpoint(CheckpointError::Corrupt(_)))
        ));
        assert!(matches!(
            first_frame(&seed_miscounted_batch(seed_events().len() as u64 + 1)),
            Err(TransportError::Truncated(_))
        ));
        assert!(matches!(
            first_frame(&seed_retired_event_frame()),
            Err(TransportError::RetiredFrame(9))
        ));
    }

    #[test]
    fn wire_oracle_flags_nothing_on_mutated_golden() {
        // A flipped byte inside the stream must not diverge the two read
        // paths — it must produce the same typed error in both.
        let mut stream = seeds(Target::Wire).remove(1);
        for at in 0..stream.len().min(64) {
            stream[at] ^= 0x40;
            let _ = execute(Target::Wire, &stream);
            stream[at] ^= 0x40;
        }
    }
}
