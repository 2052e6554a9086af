//! Crash-safe on-disk corpus cache.
//!
//! The corpus takes ~1 min to build, so both the CLI and the bench
//! harness cache it as JSON. The file is one sealed record whose payload
//! is `{"schema":N,"corpus":…}`; publishing, checksumming and quarantine
//! follow the shared policy in `core::durable`. A file that fails to
//! unseal, parse, or carries another schema is quarantined to
//! `<name>.corrupt` (with a warning on stderr) so the evidence survives
//! while the cache slot frees up for a clean rebuild.

use crate::durable;
use crate::pipeline::Corpus;
use crate::vfs::{real_fs, Vfs};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Corpus-cache traffic: `hits + misses == loads`; quarantines are the
/// subset of misses where an invalid file was moved aside.
static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.hits");
static CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.misses");
static CACHE_QUARANTINED: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.quarantined");
static CACHE_STORES: obs::LazyCounter = obs::LazyCounter::new("corpus_cache.stores");

/// Bump when [`Corpus`] (or the record itself) changes shape; readers
/// treat any other version as corrupt-for-our-purposes and quarantine it.
pub const CORPUS_CACHE_SCHEMA: u32 = 2;

#[derive(Debug, Serialize, Deserialize)]
struct CacheRecord {
    schema: u32,
    corpus: Corpus,
}

/// Why a cache load produced nothing usable.
#[derive(Debug, PartialEq, Eq)]
pub enum CacheMiss {
    /// No file at the path — a clean miss.
    Absent,
    /// The file existed but was invalid; it has been quarantined (renamed
    /// with a `.corrupt` suffix). The string says what was wrong.
    Quarantined(String),
}

/// Decode the raw text of a cache file; `Err` says what is wrong (shared
/// with `cnnperf scrub`).
pub(crate) fn decode(text: &str) -> Result<Corpus, String> {
    let json = durable::unseal(text).ok_or("torn record or checksum mismatch")?;
    let record: CacheRecord =
        serde_json::from_str(json).map_err(|e| format!("unparseable record: {e:?}"))?;
    if record.schema != CORPUS_CACHE_SCHEMA {
        return Err(format!(
            "schema version {} (want {CORPUS_CACHE_SCHEMA})",
            record.schema
        ));
    }
    Ok(record.corpus)
}

/// Load a corpus from `path`, validating the sealed record. Invalid files
/// are moved aside to `<path>.corrupt` so the next [`store_corpus`]
/// starts clean.
pub fn load_corpus(path: &Path) -> Result<Corpus, CacheMiss> {
    load_corpus_on(&*real_fs(), path)
}

/// [`load_corpus`] against an explicit [`Vfs`] (fault injection, crash
/// images).
pub fn load_corpus_on(vfs: &dyn Vfs, path: &Path) -> Result<Corpus, CacheMiss> {
    let Ok(text) = vfs.read_to_string(path) else {
        CACHE_MISSES.inc();
        return Err(CacheMiss::Absent);
    };
    let reason = match decode(&text) {
        Ok(corpus) => {
            CACHE_HITS.inc();
            return Ok(corpus);
        }
        Err(reason) => reason,
    };
    match durable::quarantine(vfs, path) {
        Ok(q) => eprintln!(
            "warning: corpus cache {} is corrupt ({reason}); quarantined as {}",
            path.display(),
            q.display()
        ),
        Err(e) => eprintln!(
            "warning: corpus cache {} is corrupt ({reason}); quarantine failed: {e}",
            path.display()
        ),
    }
    CACHE_MISSES.inc();
    CACHE_QUARANTINED.inc();
    Err(CacheMiss::Quarantined(reason))
}

/// Store a corpus at `path` crash-safely as one sealed record, published
/// through `core::durable`. After this returns `Ok`, the file survives a
/// power loss.
pub fn store_corpus(path: &Path, corpus: &Corpus) -> io::Result<()> {
    store_corpus_on(&*real_fs(), path, corpus)
}

/// [`store_corpus`] against an explicit [`Vfs`].
pub fn store_corpus_on(vfs: &dyn Vfs, path: &Path, corpus: &Corpus) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            vfs.create_dir_all(dir)?;
        }
    }
    let record = CacheRecord {
        schema: CORPUS_CACHE_SCHEMA,
        // cloning the corpus once per store is noise next to the build
        corpus: corpus.clone(),
    };
    let json = serde_json::to_string(&record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    durable::publish(vfs, path, durable::seal(&json).as_bytes())?;
    CACHE_STORES.inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_corpus;
    use std::fs;

    fn tiny_corpus() -> Corpus {
        let models: Vec<cnn_ir::ModelGraph> = vec![cnn_ir::zoo::build("mobilenet").unwrap()];
        let devices = vec![gpu_sim::specs::quadro_p1000()];
        build_corpus(&models, &devices).unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cnnperf-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_corpus() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("corpus.json");
        let corpus = tiny_corpus();
        store_corpus(&path, &corpus).unwrap();
        let loaded = load_corpus(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&corpus).unwrap()
        );
    }

    #[test]
    fn absent_file_is_clean_miss() {
        let dir = tmp_dir("absent");
        assert_eq!(
            load_corpus(&dir.join("nope.json")).unwrap_err(),
            CacheMiss::Absent
        );
    }

    #[test]
    fn garbage_is_quarantined() {
        let dir = tmp_dir("garbage");
        let path = dir.join("corpus.json");
        fs::write(&path, "{not json at all").unwrap();
        match load_corpus(&path) {
            Err(CacheMiss::Quarantined(_)) => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "corrupt file must be moved aside");
        assert!(
            dir.join("corpus.json.corrupt").exists(),
            "quarantined copy must survive for debugging"
        );
    }

    #[test]
    fn truncated_write_is_quarantined() {
        let dir = tmp_dir("truncated");
        let path = dir.join("corpus.json");
        let corpus = tiny_corpus();
        store_corpus(&path, &corpus).unwrap();
        // simulate a crash mid-write of a *non-atomic* writer: chop the
        // file in half
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(load_corpus(&path), Err(CacheMiss::Quarantined(_))));
        assert!(dir.join("corpus.json.corrupt").exists());
    }

    #[test]
    fn flipped_payload_fails_checksum() {
        let dir = tmp_dir("bitflip");
        let path = dir.join("corpus.json");
        let corpus = tiny_corpus();
        store_corpus(&path, &corpus).unwrap();
        // corrupt a digit inside the payload without breaking JSON syntax
        let text = fs::read_to_string(&path).unwrap();
        let target = format!("\"ipc\":{}", corpus.samples[0].ipc);
        assert!(text.contains(&target), "test needs a recognizable field");
        let flipped = text.replace(&target, "\"ipc\":0.123456789");
        fs::write(&path, flipped).unwrap();
        match load_corpus(&path) {
            Err(CacheMiss::Quarantined(reason)) => {
                assert!(reason.contains("checksum"), "reason: {reason}")
            }
            other => panic!("expected checksum quarantine, got {other:?}"),
        }
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let dir = tmp_dir("tmpfiles");
        let path = dir.join("corpus.json");
        store_corpus(&path, &tiny_corpus()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }
}
