//! The one durability policy behind every on-disk store.
//!
//! The corpus cache, the cell journal, the predictor snapshot store and
//! `cnnperf scrub` all persist the same way, and this module is the only
//! place that knows how:
//!
//! - **Framing.** Every record is one sealed line,
//!   `{fnv1a:016x} {json}\n`, with the FNV-1a checksum taken over the
//!   exact payload bytes. A journal segment is a sequence of sealed
//!   lines; a corpus cache or snapshot file is exactly one. [`unseal`]
//!   rejects any truncation (the newline terminates the record) and any
//!   changed byte, so a torn or bit-flipped record is never trusted.
//! - **Publish.** [`publish`] writes a sibling `<name>.tmp.<pid>`, fsyncs
//!   it, renames it over the live name and fsyncs the parent directory
//!   ([`durable_replace`]); readers see the old file or the new one.
//! - **Quarantine.** [`quarantine`] renames an invalid file to
//!   `<name>.corrupt`, keeping the evidence, and fsyncs the parent so a
//!   crash cannot resurrect it under its live name.
//! - **Sweep.** [`sweep_tmps`] removes the temp files a crashed publish
//!   leaves behind; they never became visible, so removing them is safe.

use crate::vfs::{durable_replace, sync_parent_dir, Vfs};
use std::io;
use std::path::{Path, PathBuf};

/// Suffix of a quarantined file.
pub(crate) const QUARANTINE_SUFFIX: &str = ".corrupt";

/// Marker inside the name of an unpublished temp file.
const TMP_MARKER: &str = ".tmp.";

/// FNV-1a 64: the record checksum, and the content hash behind model
/// hashes (the journal's replay keys) and server shard assignment. The
/// constants must never change, or every persisted hash moves.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Frame one single-line JSON payload as a sealed record.
pub(crate) fn seal(json: &str) -> String {
    debug_assert!(!json.contains('\n'), "sealed payloads must be single-line");
    format!("{:016x} {json}\n", fnv1a(json.as_bytes()))
}

/// The payload of a sealed record, or `None` if `text` is not exactly one
/// intact record (torn, flipped, or not sealed at all).
pub(crate) fn unseal(text: &str) -> Option<&str> {
    let line = text.strip_suffix('\n')?;
    let (sum, json) = line.split_at_checked(16)?;
    let json = json.strip_prefix(' ')?;
    (sum == format!("{:016x}", fnv1a(json.as_bytes()))).then_some(json)
}

/// Does `name` belong to an unpublished temp file?
pub(crate) fn is_tmp(name: &str) -> bool {
    name.contains(TMP_MARKER)
}

/// Replace `path` with `bytes` crash-safely via a sibling temp file.
pub(crate) fn publish(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = with_suffix(path, &format!("{TMP_MARKER}{}", std::process::id()));
    durable_replace(vfs, &tmp, path, bytes)
}

/// Move an invalid file aside to `<name>.corrupt`, durably; returns the
/// quarantine path.
pub(crate) fn quarantine(vfs: &dyn Vfs, path: &Path) -> io::Result<PathBuf> {
    let q = with_suffix(path, QUARANTINE_SUFFIX);
    vfs.rename(path, &q)?;
    sync_parent_dir(vfs, path)?;
    Ok(q)
}

/// Remove the stale temp files directly under `dir`, then fsync `dir`
/// once. Returns how many were actually removed; a temp file that cannot
/// be removed stays and is not counted.
pub(crate) fn sweep_tmps(vfs: &dyn Vfs, dir: &Path) -> usize {
    let Ok(names) = vfs.read_dir(dir) else {
        return 0;
    };
    let swept = names
        .iter()
        .filter(|name| is_tmp(name) && vfs.remove_file(&dir.join(name)).is_ok())
        .count();
    if swept > 0 {
        let _ = vfs.sync_dir(dir);
    }
    swept
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &str = r#"{"schema":2,"corpus":{"rows":[1,2,3]}}"#;

    #[test]
    fn seal_unseal_roundtrip() {
        for json in [PAYLOAD, "{}", "null", r#""a b\nc""#] {
            let sealed = seal(json);
            assert!(sealed.ends_with('\n'));
            assert_eq!(unseal(&sealed), Some(json));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let sealed = seal(PAYLOAD);
        for len in 0..sealed.len() {
            assert_eq!(unseal(&sealed[..len]), None, "prefix of {len} bytes");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let sealed = seal(PAYLOAD).into_bytes();
        for pos in 0..sealed.len() {
            for mask in 1..=255u8 {
                let mut bytes = sealed.clone();
                bytes[pos] ^= mask;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert_eq!(unseal(text), None, "byte {pos} ^ {mask:#04x}");
                }
            }
        }
    }

    #[test]
    fn unsealed_json_is_rejected() {
        assert_eq!(unseal(PAYLOAD), None);
        assert_eq!(unseal(&format!("{PAYLOAD}\n")), None);
        assert_eq!(unseal(""), None);
    }
}
