//! Durable per-shard checkpoint manifests.
//!
//! A shard's results live in two files inside the checkpoint directory:
//!
//! * `shard-NNNNNN.out` — the shard's report lines (one compact JSON
//!   document per item, in item order);
//! * `shard-NNNNNN.manifest` — the commit record: shard identity, input
//!   checksum, outcome tallies, and the output file's length and
//!   checksum, terminated by a checksum over the manifest bytes
//!   themselves.
//!
//! The manifest is the *commit point*. It is written after the output
//! file, via write-to-temp + `sync_all` + `rename`, so a crash leaves
//! either no manifest, a stale temp file (ignored), or a complete
//! manifest — never a silently half-trusted checkpoint. Anything that
//! deviates from the expected shape — truncation, a bit flip, a stale
//! format version, an interrupted non-atomic write — fails the trailing
//! checksum or the field grammar and comes back as [`ManifestState::Torn`],
//! which resumption treats exactly like "shard not done": the shard is
//! re-run and the torn files are overwritten. Corruption is therefore a
//! typed, recoverable state, not a crash.

use quetzal_genomics::rng::fnv64;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// How a completed shard ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Every item ran (some may still have failed individually).
    Done,
    /// The shard hit its deadline / budget; unrun items are recorded as
    /// failures and the shard is skipped on resume.
    Quarantined,
}

/// The durable commit record of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shard index (0-based, dense).
    pub shard: u64,
    /// Global index of the shard's first item.
    pub start: u64,
    /// Items in the shard.
    pub count: u64,
    /// Checksum over the shard's input items (order-sensitive), used to
    /// detect a checkpoint directory being resumed against different
    /// input.
    pub input_fnv: u64,
    /// Whether the shard ran to completion or was quarantined.
    pub status: ShardStatus,
    /// Human-readable quarantine cause (empty when [`ShardStatus::Done`]).
    pub cause: String,
    /// Items that produced a result.
    pub ok: u64,
    /// Items that failed (both attempts, or never ran due to quarantine).
    pub failed: u64,
    /// Items recovered by the fresh-machine retry.
    pub recovered: u64,
    /// Simulated cycles over the shard's healthy items.
    pub cycles: u64,
    /// Retired instructions over the shard's healthy items.
    pub instructions: u64,
    /// Byte length of the shard's output file.
    pub output_len: u64,
    /// FNV-1a of the shard's output file.
    pub output_fnv: u64,
}

/// Why a manifest on disk could not be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestFault(pub String);

impl std::fmt::Display for ManifestFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What [`load`] found for a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestState {
    /// No manifest on disk: the shard never committed.
    Absent,
    /// A manifest exists but is torn, truncated, bit-flipped, stale, or
    /// unreadable. Treated exactly like [`ManifestState::Absent`] by
    /// resumption (re-run the shard), but surfaced distinctly so
    /// observers can count detected corruption.
    Torn(ManifestFault),
    /// A complete, checksum-valid manifest.
    Committed(ShardManifest),
}

const VERSION_LINE: &str = "qz-ingest-shard v1";

/// Parses exactly 16 *lowercase* hex digits. Strictness matters: a
/// case-insensitive parser would accept a case-bit flip in a stored
/// checksum as the same value, defeating the bit-flip detection the
/// manifest tests pin.
fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn status_code(status: ShardStatus) -> &'static str {
    match status {
        ShardStatus::Done => "done",
        ShardStatus::Quarantined => "quarantined",
    }
}

fn parse_status(code: &str) -> Result<ShardStatus, ManifestFault> {
    match code {
        "done" => Ok(ShardStatus::Done),
        "quarantined" => Ok(ShardStatus::Quarantined),
        other => Err(ManifestFault(format!("unknown status '{other}'"))),
    }
}

/// Path of a shard's manifest file.
pub fn manifest_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard:06}.manifest"))
}

/// Path of a shard's output file.
pub fn output_path(dir: &Path, shard: u64) -> PathBuf {
    dir.join(format!("shard-{shard:06}.out"))
}

impl ShardManifest {
    /// Serialises the manifest, trailing self-checksum included.
    pub fn encode(&self) -> Vec<u8> {
        // The cause rides on one line; newlines in it would break the
        // line grammar, so they are flattened.
        let cause = if self.cause.is_empty() {
            "-".to_string()
        } else {
            self.cause.replace(['\n', '\r'], " ")
        };
        let body = format!(
            "{VERSION_LINE}\nshard {}\nstart {}\ncount {}\ninput_fnv {:016x}\nstatus {}\ncause {}\nok {}\nfailed {}\nrecovered {}\ncycles {}\ninstructions {}\noutput_len {}\noutput_fnv {:016x}\n",
            self.shard,
            self.start,
            self.count,
            self.input_fnv,
            status_code(self.status),
            cause,
            self.ok,
            self.failed,
            self.recovered,
            self.cycles,
            self.instructions,
            self.output_len,
            self.output_fnv,
        );
        let mut bytes = body.into_bytes();
        let crc = fnv64(&bytes);
        bytes.extend_from_slice(format!("crc {crc:016x}\n").as_bytes());
        bytes
    }

    /// Parses and checksum-verifies a serialised manifest.
    ///
    /// # Errors
    ///
    /// Returns [`ManifestFault`] for *any* deviation — truncation, a
    /// failed trailing checksum, a stale version, unknown or out-of-order
    /// fields, non-numeric values. Every fault maps to "shard not done".
    pub fn decode(bytes: &[u8]) -> Result<ShardManifest, ManifestFault> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| ManifestFault(format!("not UTF-8: {e}")))?;
        if !text.ends_with('\n') {
            return Err(ManifestFault("missing trailing newline (truncated)".into()));
        }
        let crc_start = text[..text.len() - 1]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let (body, crc_line) = text.split_at(crc_start);
        let claimed = crc_line
            .strip_prefix("crc ")
            .and_then(|s| parse_hex16(s.trim_end()))
            .ok_or_else(|| ManifestFault("missing or malformed crc line".into()))?;
        let actual = fnv64(body.as_bytes());
        if claimed != actual {
            return Err(ManifestFault(format!(
                "checksum mismatch (stored {claimed:016x}, computed {actual:016x})"
            )));
        }
        let mut lines = body.lines();
        if lines.next() != Some(VERSION_LINE) {
            return Err(ManifestFault("unknown manifest version".into()));
        }
        let mut field = |key: &str| -> Result<String, ManifestFault> {
            let line = lines
                .next()
                .ok_or_else(|| ManifestFault(format!("missing field '{key}'")))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| ManifestFault(format!("expected field '{key}', got '{line}'")))
        };
        let dec = |key: &str, s: String| -> Result<u64, ManifestFault> {
            s.parse::<u64>()
                .map_err(|_| ManifestFault(format!("field '{key}' is not an integer")))
        };
        let hex = |key: &str, s: String| -> Result<u64, ManifestFault> {
            parse_hex16(&s)
                .ok_or_else(|| ManifestFault(format!("field '{key}' is not 16-digit hex")))
        };
        let shard = dec("shard", field("shard")?)?;
        let start = dec("start", field("start")?)?;
        let count = dec("count", field("count")?)?;
        let input_fnv = hex("input_fnv", field("input_fnv")?)?;
        let status = parse_status(&field("status")?)?;
        let cause_raw = field("cause")?;
        let cause = if cause_raw == "-" {
            String::new()
        } else {
            cause_raw
        };
        let ok = dec("ok", field("ok")?)?;
        let failed = dec("failed", field("failed")?)?;
        let recovered = dec("recovered", field("recovered")?)?;
        let cycles = dec("cycles", field("cycles")?)?;
        let instructions = dec("instructions", field("instructions")?)?;
        let output_len = dec("output_len", field("output_len")?)?;
        let output_fnv = hex("output_fnv", field("output_fnv")?)?;
        if lines.next().is_some() {
            return Err(ManifestFault("trailing data after manifest fields".into()));
        }
        Ok(ShardManifest {
            shard,
            start,
            count,
            input_fnv,
            status,
            cause,
            ok,
            failed,
            recovered,
            cycles,
            instructions,
            output_len,
            output_fnv,
        })
    }
}

/// Loads a shard's manifest: [`ManifestState::Absent`] when the file
/// does not exist, [`ManifestState::Torn`] for anything unreadable or
/// checksum-invalid, [`ManifestState::Committed`] otherwise.
pub fn load(dir: &Path, shard: u64) -> ManifestState {
    let path = manifest_path(dir, shard);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return ManifestState::Absent,
        Err(e) => return ManifestState::Torn(ManifestFault(format!("unreadable: {e}"))),
        Ok(mut f) => {
            if let Err(e) = f.read_to_end(&mut bytes) {
                return ManifestState::Torn(ManifestFault(format!("unreadable: {e}")));
            }
        }
    }
    match ShardManifest::decode(&bytes) {
        Ok(m) if m.shard == shard => ManifestState::Committed(m),
        Ok(m) => ManifestState::Torn(ManifestFault(format!(
            "manifest names shard {} but sits in slot {shard}",
            m.shard
        ))),
        Err(fault) => ManifestState::Torn(fault),
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, `sync_all`, then `rename` over the destination.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Durability of the rename itself: fsync the directory (best
    // effort — some filesystems refuse to sync a directory handle).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Commits a shard's manifest atomically (the checkpoint's commit
/// point — call only after the output file is durable).
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn store(dir: &Path, manifest: &ShardManifest) -> io::Result<()> {
    write_atomic(&manifest_path(dir, manifest.shard), &manifest.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            shard: 3,
            start: 96,
            count: 32,
            input_fnv: 0xdead_beef_cafe_f00d,
            status: ShardStatus::Done,
            cause: String::new(),
            ok: 31,
            failed: 1,
            recovered: 2,
            cycles: 123_456,
            instructions: 78_910,
            output_len: 2048,
            output_fnv: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let m = sample();
        assert_eq!(ShardManifest::decode(&m.encode()).unwrap(), m);
        let q = ShardManifest {
            status: ShardStatus::Quarantined,
            cause: "wall deadline 5ms exceeded\nafter 3 item(s)".to_string(),
            ..sample()
        };
        let back = ShardManifest::decode(&q.encode()).unwrap();
        assert_eq!(back.status, ShardStatus::Quarantined);
        assert!(back.cause.contains("wall deadline"), "cause survives");
        assert!(!back.cause.contains('\n'), "newlines are flattened");
    }

    #[test]
    fn every_truncation_is_torn_not_a_crash() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                ShardManifest::decode(&bytes[..cut]).is_err(),
                "truncation at byte {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    ShardManifest::decode(&flipped).is_err(),
                    "bit flip at byte {i} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn load_distinguishes_absent_and_torn() {
        let dir = std::env::temp_dir().join(format!(
            "qz-manifest-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(load(&dir, 0), ManifestState::Absent);
        let m = ShardManifest {
            shard: 0,
            ..sample()
        };
        store(&dir, &m).unwrap();
        assert_eq!(load(&dir, 0), ManifestState::Committed(m.clone()));
        // Torn write: only half the manifest bytes reach the disk.
        let enc = m.encode();
        fs::write(manifest_path(&dir, 0), &enc[..enc.len() / 2]).unwrap();
        assert!(matches!(load(&dir, 0), ManifestState::Torn(_)));
        // A manifest renamed into the wrong slot is torn, not trusted.
        store(&dir, &m).unwrap();
        fs::rename(manifest_path(&dir, 0), manifest_path(&dir, 7)).unwrap();
        assert!(matches!(load(&dir, 7), ManifestState::Torn(_)));
        fs::remove_dir_all(&dir).unwrap();
    }
}
