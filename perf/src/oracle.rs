//! The byte-identity oracle: a digest of a run's outputs, compared
//! against a reference computed once per run in set-up.
//!
//! Campaign reports are digested in their canonical `FGRVCKPT` entry
//! encoding ([`EntryArtifact::write_to`]), the same bytes a checkpoint
//! persists and the wire carries, so two report sets digest equal
//! exactly when they are byte-identical. Experiment outputs have no
//! binary encoding; they are digested through `Debug`, which prints every
//! `f64` in its shortest round-trip form and so distinguishes any two
//! different values.

use std::fmt;
use std::io::{self, Write};

use fingrav_core::checkpoint::EntryArtifact;
use fingrav_core::runner::KernelPowerReport;

/// A 64-bit digest of a byte stream, plus the stream's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    len: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/{}B", self.hash, self.len)
    }
}

impl Digest {
    /// The digest as bytes, for digesting digests.
    pub fn to_le_bytes(self) -> [u8; 16] {
        let mut out = [0; 16];
        out[..8].copy_from_slice(&self.hash.to_le_bytes());
        out[8..].copy_from_slice(&self.len.to_le_bytes());
        out
    }
}

/// A [`Write`] sink that digests everything written to it, a word at a
/// time, independently of how the stream is split into writes.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u64,
    word: u64,
    fill: u32,
    len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher {
            state: 0x243F_6A88_85A3_08D3,
            word: 0,
            fill: 0,
            len: 0,
        }
    }
}

impl Hasher {
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
    }

    /// Digests `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        for &b in bytes {
            self.word |= u64::from(b) << (8 * self.fill);
            self.fill += 1;
            if self.fill == 8 {
                self.mix(self.word);
                self.word = 0;
                self.fill = 0;
            }
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> Digest {
        let mut tail = self.clone();
        tail.mix(tail.word ^ (u64::from(tail.fill) << 59));
        tail.mix(tail.len);
        Digest {
            hash: tail.state ^ (tail.state >> 29),
            len: self.len,
        }
    }
}

impl Write for Hasher {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Digests a campaign's report slots in campaign order; an empty slot is
/// an error (the campaign did not complete).
///
/// The reports are moved into their entry artifacts for encoding and
/// moved back, so nothing is cloned.
pub fn digest_reports(reports: &mut [Option<KernelPowerReport>]) -> Result<Digest, String> {
    let mut hasher = Hasher::default();
    for (index, slot) in reports.iter_mut().enumerate() {
        let report = slot
            .take()
            .ok_or_else(|| format!("campaign slot {index} has no report"))?;
        let artifact = EntryArtifact {
            index: index as u32,
            config_digest: 0,
            report,
        };
        let written = artifact.write_to(&mut hasher);
        *slot = Some(artifact.report);
        written.map_err(|e| format!("encoding slot {index}: {e}"))?;
    }
    Ok(hasher.finish())
}

/// [`digest_reports`] for a complete report list.
pub fn digest_report_list(reports: Vec<KernelPowerReport>) -> Result<Digest, String> {
    let mut slots: Vec<Option<KernelPowerReport>> = reports.into_iter().map(Some).collect();
    digest_reports(&mut slots)
}

/// Digests the `Debug` rendering of a value.
pub fn digest_debug(value: &dyn fmt::Debug) -> Digest {
    let mut hasher = Hasher::default();
    // Writing into a hasher cannot fail.
    let _ = write!(hasher, "{value:?}");
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(chunks: &[&[u8]]) -> Digest {
        let mut h = Hasher::default();
        for c in chunks {
            h.update(c);
        }
        h.finish()
    }

    #[test]
    fn split_points_do_not_matter() {
        let bytes: Vec<u8> = (0..=200u8).collect();
        let whole = digest(&[&bytes]);
        assert_eq!(whole, digest(&[&bytes[..3], &bytes[3..77], &bytes[77..]]));
        assert_eq!(whole.len, 201);
    }

    #[test]
    fn any_byte_change_or_extension_changes_the_digest() {
        let bytes = vec![7u8; 64];
        let base = digest(&[&bytes]);
        for i in 0..bytes.len() {
            let mut changed = bytes.clone();
            changed[i] ^= 1;
            assert_ne!(base, digest(&[&changed]), "flip at {i}");
        }
        assert_ne!(base, digest(&[&bytes, &[0]]));
        assert_ne!(digest(&[&[0]]), digest(&[&[0, 0]]));
    }
}
