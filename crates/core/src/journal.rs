//! Crash-safe cell journal for corpus builds.
//!
//! The corpus build is the longest-running stage of the pipeline, and
//! before this module a crash or OOM-kill discarded every completed
//! (model, device) cell. The journal is an append-only write-ahead log of
//! per-cell results: each rayon worker's finished cell is serialized as
//! one sealed line — `{fnv1a checksum} {json record}` — and fsynced
//! before the build moves on, so a killed process (or a power loss) loses
//! at most the cell that was in flight.
//!
//! Framing, publish, quarantine and temp sweeping follow the shared
//! policy in `core::durable`; on top of it the journal is:
//!
//! - **Segmented**: records rotate into `segment-NNNNN.jsonl` files every
//!   [`SEGMENT_RECORDS`] appends, bounding how much data one torn tail can
//!   take down.
//! - **Repaired at the first bad line**: replay stops a segment at its
//!   first line that fails to unseal, quarantines the segment, rewrites
//!   its valid prefix under the live name, and quarantines every later
//!   segment wholesale (ordering after a tear is no longer trustworthy).
//! - **Config-guarded**: the first record of a journal is the
//!   [`BuildMeta`] (sm target, runs, retry policy, fault profile, strict
//!   flag); resuming under a different configuration is refused rather
//!   than silently mixing measurement protocols.
//! - **Durable**: every append is fsynced and every segment creation is
//!   followed by a parent-directory fsync, so a journal that reported a
//!   record as written still has it after power loss. All I/O goes
//!   through [`crate::vfs::Vfs`], so the same code runs against the
//!   crash-enumerating [`crate::vfs::SimFs`].
//! - **ENOSPC-degrading**: a full disk must not kill a long build or the
//!   serve loop. The first `StorageFull` flips the journal into degraded
//!   mode — later appends become accepted no-ops, the condition is
//!   logged once and counted (`journal.degraded`, `vfs.errors.enospc`),
//!   and the build keeps its in-memory results.
//!
//! Replayed cells are skipped by `build_corpus_robust` (zero recompute —
//! not even the model analysis reruns if every cell of a model was
//! journaled), and the resulting corpus is byte-identical to an
//! uninterrupted build under [`crate::pipeline::Corpus::canonical_json`].

use crate::durable;
use crate::features::{CnnProfile, DEFAULT_SM_TARGET};
use crate::pipeline::RobustConfig;
use crate::vfs::{real_fs, Vfs, VfsFile};
use gpu_sim::{FaultProfile, RetryPolicy, RobustProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Records appended (meta + model + cell) across all journals.
static JOURNAL_APPENDS: obs::LazyCounter = obs::LazyCounter::new("journal.appends");
/// Cells served from replay instead of being recomputed.
static JOURNAL_REPLAYED: obs::LazyCounter = obs::LazyCounter::new("journal.replayed");
/// Cells computed (and journaled) because replay had no record.
static JOURNAL_COMPUTED: obs::LazyCounter = obs::LazyCounter::new("journal.computed");
/// Segments quarantined to `.corrupt` during replay.
static JOURNAL_CORRUPT_SEGMENTS: obs::LazyCounter =
    obs::LazyCounter::new("journal.corrupt_segments");
/// Stale `.tmp.<pid>` files swept on open (crashed builds leak them).
static JOURNAL_TMP_SWEPT: obs::LazyCounter = obs::LazyCounter::new("journal.tmp.swept");
/// Journals that entered ENOSPC-degraded (append-drop) mode.
static JOURNAL_DEGRADED: obs::LazyCounter = obs::LazyCounter::new("journal.degraded");

/// Bump when any journaled record changes shape; a resumed build refuses
/// journals written under a different schema.
pub const JOURNAL_SCHEMA: u32 = 1;

/// Records per segment file before rotating to the next one.
pub const SEGMENT_RECORDS: u32 = 128;

/// Mark a replayed cell (called by the pipeline when a journal record is
/// used instead of recomputation).
pub fn note_replayed() {
    JOURNAL_REPLAYED.inc();
}

/// Mark a computed cell (called by the pipeline when a cell had to run).
pub fn note_computed() {
    JOURNAL_COMPUTED.inc();
}

/// Build configuration fingerprint; resuming checks it for equality so a
/// journal written under one measurement protocol can never leak cells
/// into a build with another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuildMeta {
    pub schema: u32,
    pub sm_target: String,
    pub runs: u32,
    pub retry: RetryPolicy,
    pub faults: FaultProfile,
    pub strict: bool,
}

impl BuildMeta {
    /// The fingerprint of a build under `cfg`, lowering to the default
    /// sm target.
    pub fn for_config(cfg: &RobustConfig) -> Self {
        BuildMeta {
            schema: JOURNAL_SCHEMA,
            sm_target: DEFAULT_SM_TARGET.to_string(),
            runs: cfg.runs,
            retry: cfg.retry.clone(),
            faults: cfg.faults.clone(),
            strict: cfg.strict,
        }
    }
}

/// Result of one journaled cell: either the full robust profile or the
/// fault that killed it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CellOutcome {
    Profile(RobustProfile),
    Fault {
        /// True when the cell was cancelled by the supervision watchdog.
        timeout: bool,
        /// Milliseconds of silence before cancellation (0 if not a timeout).
        waited_ms: u64,
        error: String,
    },
}

/// One journaled line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    Meta(BuildMeta),
    /// Per-model analysis result, written once per model so a fully
    /// journaled model skips even the (cached) analysis on resume.
    Model {
        model: String,
        model_hash: u64,
        profile: CnnProfile,
    },
    Cell {
        model: String,
        model_hash: u64,
        device: String,
        outcome: CellOutcome,
    },
}

/// Journal failures surfaced to the CLI.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    /// The journal was written under a different build configuration (or
    /// schema); resuming would mix measurement protocols.
    ConfigMismatch {
        detail: String,
    },
    Serialize(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::ConfigMismatch { detail } => {
                write!(f, "journal configuration mismatch: {detail}")
            }
            JournalError::Serialize(e) => write!(f, "journal serialization error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Everything recovered from an existing journal.
#[derive(Debug, Default)]
pub struct Replay {
    pub meta: Option<BuildMeta>,
    /// Per-model analysis results, keyed by model content hash.
    pub profiles: HashMap<u64, CnnProfile>,
    /// Per-cell outcomes, keyed by (model content hash, device name).
    pub cells: HashMap<(u64, String), CellOutcome>,
    /// Valid records replayed (including meta/model records).
    pub records: u64,
    /// Segments quarantined to `.corrupt` during this replay.
    pub corrupt_segments: u64,
    /// Stale `.tmp.<pid>` files swept on open.
    pub tmp_swept: u64,
}

impl Replay {
    /// Outcome for one cell, if journaled.
    pub fn cell(&self, model_hash: u64, device: &str) -> Option<&CellOutcome> {
        self.cells.get(&(model_hash, device.to_string()))
    }
}

pub(crate) fn segment_name(index: u32) -> String {
    format!("segment-{index:05}.jsonl")
}

/// Parse `segment-NNNNN.jsonl` back to its index.
pub(crate) fn segment_index(name: &str) -> Option<u32> {
    name.strip_prefix("segment-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

/// Sorted (index, path) list of live segments in `dir`.
fn list_segments(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u32, PathBuf)>> {
    let mut segs = Vec::new();
    for name in vfs.read_dir(dir)? {
        if let Some(idx) = segment_index(&name) {
            segs.push((idx, dir.join(name)));
        }
    }
    segs.sort_by_key(|(i, _)| *i);
    Ok(segs)
}

/// Decode a segment's records up to its first line that fails to unseal
/// or parse. Returns them with the byte length of that valid prefix,
/// which is shorter than `text` exactly when the segment is torn. Shared
/// with `cnnperf scrub`.
pub(crate) fn read_segment(text: &str) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut valid = 0;
    for line in text.split_inclusive('\n') {
        match durable::unseal(line).and_then(|json| serde_json::from_str(json).ok()) {
            Some(record) => records.push(record),
            None => break,
        }
        valid += line.len();
    }
    (records, valid)
}

/// Quarantine a torn segment and rewrite its valid `prefix` under the
/// live name. Returns whether a prefix was rewritten. Shared with
/// `cnnperf scrub`.
pub(crate) fn repair_segment(vfs: &dyn Vfs, path: &Path, prefix: &str) -> std::io::Result<bool> {
    durable::quarantine(vfs, path)?;
    if prefix.is_empty() {
        return Ok(false);
    }
    durable::publish(vfs, path, prefix.as_bytes())?;
    Ok(true)
}

struct Writer {
    file: Box<dyn VfsFile>,
    seg_index: u32,
    records_in_segment: u32,
}

/// Append-only, checksummed, segmented WAL of corpus-build cells.
pub struct Journal {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<Writer>,
    /// Set after the first ENOSPC: appends become accepted no-ops so a
    /// full disk degrades the build instead of killing it.
    degraded: AtomicBool,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

impl Journal {
    /// Open (and, with `resume`, replay) the journal in `dir` on the real
    /// filesystem.
    pub fn open(
        dir: &Path,
        meta: &BuildMeta,
        resume: bool,
    ) -> Result<(Journal, Replay), JournalError> {
        Journal::open_on(real_fs(), dir, meta, resume)
    }

    /// Open (and, with `resume`, replay) the journal in `dir` on an
    /// explicit [`Vfs`].
    ///
    /// Fresh opens (`resume == false`) wipe any live segments — the caller
    /// explicitly asked to start over — while `.corrupt` quarantines from
    /// earlier incidents are left for debugging. Resume opens replay every
    /// live segment in order, quarantining from the first corrupt line
    /// onward, and refuse to proceed if the journaled [`BuildMeta`]
    /// differs from `meta`. Either way stale `.tmp.<pid>` files from
    /// crashed prefix-rewrites are swept, and the writer starts a *new*
    /// segment (one past the highest survivor); if replay recovered no
    /// meta, `meta` is appended as the first record.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        meta: &BuildMeta,
        resume: bool,
    ) -> Result<(Journal, Replay), JournalError> {
        vfs.create_dir_all(dir)?;
        // sweep tmp litter from crashed prefix-rewrites before replaying
        let tmp_swept = durable::sweep_tmps(&*vfs, dir) as u64;
        JOURNAL_TMP_SWEPT.add(tmp_swept);
        if tmp_swept > 0 {
            eprintln!(
                "note: swept {tmp_swept} stale journal temp file(s) in {} (crashed rewrite)",
                dir.display()
            );
        }

        let mut replay = Replay::default();
        let mut next_index = 0u32;
        if resume {
            replay = replay_segments(&*vfs, dir)?;
            if let Some(found) = &replay.meta {
                if found != meta {
                    return Err(JournalError::ConfigMismatch {
                        detail: format!("journaled {found:?} vs requested {meta:?}"),
                    });
                }
            }
            next_index = list_segments(&*vfs, dir)?
                .last()
                .map(|(i, _)| i + 1)
                .unwrap_or(0);
        } else {
            for (_, path) in list_segments(&*vfs, dir)? {
                vfs.remove_file(&path)?;
            }
            // make the wipe durable: a crash must not resurrect old cells
            vfs.sync_dir(dir)?;
        }
        replay.tmp_swept = tmp_swept;

        let path = dir.join(segment_name(next_index));
        let file = vfs.open_append(&path)?;
        // the new segment's directory entry must be durable before any
        // record in it claims to be
        vfs.sync_dir(dir)?;
        let journal = Journal {
            dir: dir.to_path_buf(),
            vfs,
            inner: Mutex::new(Writer {
                file,
                seg_index: next_index,
                records_in_segment: 0,
            }),
            degraded: AtomicBool::new(false),
        };
        if replay.meta.is_none() {
            journal.append(&JournalRecord::Meta(meta.clone()))?;
        }
        Ok((journal, replay))
    }

    /// Directory this journal writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True once an ENOSPC has flipped this journal into append-drop
    /// mode (surfaced in `/metrics` via `journal.degraded`).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Journal one model's analysis result.
    pub fn append_model(
        &self,
        model: &str,
        model_hash: u64,
        profile: &CnnProfile,
    ) -> Result<(), JournalError> {
        self.append(&JournalRecord::Model {
            model: model.to_string(),
            model_hash,
            profile: profile.clone(),
        })
    }

    /// Journal one completed cell.
    pub fn append_cell(
        &self,
        model: &str,
        model_hash: u64,
        device: &str,
        outcome: &CellOutcome,
    ) -> Result<(), JournalError> {
        self.append(&JournalRecord::Cell {
            model: model.to_string(),
            model_hash,
            device: device.to_string(),
            outcome: outcome.clone(),
        })
    }

    fn append(&self, record: &JournalRecord) -> Result<(), JournalError> {
        if self.degraded.load(Ordering::Relaxed) {
            // disk is full: drop the record, keep the build/serve alive
            return Ok(());
        }
        let json =
            serde_json::to_string(record).map_err(|e| JournalError::Serialize(format!("{e:?}")))?;
        let line = durable::seal(&json);
        let mut w = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let result = (|| -> std::io::Result<()> {
            if w.records_in_segment >= SEGMENT_RECORDS {
                let next = w.seg_index + 1;
                let file = self.vfs.open_append(&self.dir.join(segment_name(next)))?;
                // segment entry durable before its records
                self.vfs.sync_dir(&self.dir)?;
                w.file = file;
                w.seg_index = next;
                w.records_in_segment = 0;
            }
            // write + fsync per record: after this returns, the record
            // survives power loss, not just a SIGKILL of this process
            w.file.write_all(line.as_bytes())?;
            w.file.flush()?;
            w.file.sync()
        })();
        match result {
            Ok(()) => {
                w.records_in_segment += 1;
                JOURNAL_APPENDS.inc();
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::StorageFull => {
                if !self.degraded.swap(true, Ordering::Relaxed) {
                    JOURNAL_DEGRADED.inc();
                    eprintln!(
                        "warning: journal {} hit ENOSPC; degrading to in-memory only \
                         (later appends are dropped, build continues)",
                        self.dir.display()
                    );
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// Replay all live segments in `dir`, quarantining from the first corrupt
/// line onward.
fn replay_segments(vfs: &dyn Vfs, dir: &Path) -> Result<Replay, JournalError> {
    let mut replay = Replay::default();
    let segments = list_segments(vfs, dir)?;
    let mut poisoned_from: Option<usize> = None;

    for (pos, (_, path)) in segments.iter().enumerate() {
        let text = vfs.read_to_string(path)?;
        let (records, valid) = read_segment(&text);
        for record in records {
            apply_record(&mut replay, record);
        }
        if valid < text.len() {
            eprintln!(
                "warning: journal segment {} has a corrupt tail; quarantining as .corrupt",
                path.display()
            );
            repair_segment(vfs, path, &text[..valid])?;
            JOURNAL_CORRUPT_SEGMENTS.inc();
            replay.corrupt_segments += 1;
            poisoned_from = Some(pos + 1);
            break;
        }
    }

    // segments after a corrupt one are untrustworthy wholesale: the writer
    // only opens segment N+1 after N is complete, so a torn segment N with
    // a live N+1 means files were tampered with or interleaved
    if let Some(from) = poisoned_from {
        for (_, path) in &segments[from..] {
            durable::quarantine(vfs, path)?;
            JOURNAL_CORRUPT_SEGMENTS.inc();
            replay.corrupt_segments += 1;
        }
    }
    Ok(replay)
}

fn apply_record(replay: &mut Replay, record: JournalRecord) {
    replay.records += 1;
    match record {
        JournalRecord::Meta(m) => {
            // first meta wins; later ones (same config, re-appended after
            // an empty resume) are redundant by construction
            if replay.meta.is_none() {
                replay.meta = Some(m);
            }
        }
        JournalRecord::Model {
            model_hash,
            profile,
            ..
        } => {
            replay.profiles.insert(model_hash, profile);
        }
        JournalRecord::Cell {
            model_hash,
            device,
            outcome,
            ..
        } => {
            replay.cells.insert((model_hash, device), outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultKind, FaultRule, OpKind, SimFs};
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cnnperf-journal-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta() -> BuildMeta {
        BuildMeta {
            schema: JOURNAL_SCHEMA,
            sm_target: "sm_61".into(),
            runs: 3,
            retry: RetryPolicy::no_backoff(),
            faults: FaultProfile::none(),
            strict: false,
        }
    }

    fn fault(err: &str) -> CellOutcome {
        CellOutcome::Fault {
            timeout: false,
            waited_ms: 0,
            error: err.to_string(),
        }
    }

    #[test]
    fn golden_line_and_model_hash_are_stable() {
        // on-disk bytes and replay keys written by earlier builds: a change
        // to the framing or to FNV-1a would orphan every existing journal
        let fs = SimFs::new(1);
        let dir = PathBuf::from("j");
        let (j, _) = Journal::open_on(fs.handle(), &dir, &meta(), false).unwrap();
        j.append_cell("alexnet", 7, "GTX 1080 Ti", &fault("boom"))
            .unwrap();
        drop(j);
        let text = fs.read_to_string(&dir.join(segment_name(0))).unwrap();
        let cell = text.split_inclusive('\n').nth(1).unwrap();
        assert_eq!(
            cell,
            concat!(
                r#"7b36805efcb167d5 {"Cell":{"model":"alexnet","model_hash":7,"device":"GTX 1080 Ti","#,
                r#""outcome":{"Fault":{"timeout":false,"waited_ms":0,"error":"boom"}}}}"#,
                "\n"
            )
        );
        let alexnet = cnn_ir::zoo::build("alexnet").unwrap();
        assert_eq!(
            crate::analysis_cache::model_content_hash(&alexnet),
            0x0d63462d19ee668b
        );
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let (j, replay) = Journal::open(&dir, &meta(), false).unwrap();
        assert_eq!(replay.records, 0);
        j.append_cell("alexnet", 7, "GTX 1080 Ti", &fault("boom"))
            .unwrap();
        j.append_cell("alexnet", 7, "V100S", &fault("bang"))
            .unwrap();
        drop(j);

        let (_j2, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.meta, Some(meta()));
        assert_eq!(replay.cells.len(), 2);
        assert!(matches!(
            replay.cell(7, "V100S"),
            Some(CellOutcome::Fault { error, .. }) if error == "bang"
        ));
        assert_eq!(replay.corrupt_segments, 0);
    }

    #[test]
    fn fresh_open_wipes_live_segments() {
        let dir = tmp_dir("wipe");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d", &fault("x")).unwrap();
        drop(j);
        let (_j, replay) = Journal::open(&dir, &meta(), false).unwrap();
        assert_eq!(replay.records, 0, "fresh open must not replay");
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert!(replay.cells.is_empty(), "wiped cells must not resurface");
    }

    #[test]
    fn config_mismatch_is_refused() {
        let dir = tmp_dir("mismatch");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        drop(j);
        let other = BuildMeta { runs: 99, ..meta() };
        match Journal::open(&dir, &other, true) {
            Err(JournalError::ConfigMismatch { .. }) => {}
            other => panic!(
                "expected config mismatch, got {other:?}",
                other = other.err()
            ),
        }
    }

    #[test]
    fn segments_rotate() {
        let dir = tmp_dir("rotate");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        for i in 0..(SEGMENT_RECORDS + 5) {
            j.append_cell("m", i as u64, "d", &fault("x")).unwrap();
        }
        drop(j);
        let segs = list_segments(&*real_fs(), &dir).unwrap();
        assert!(segs.len() >= 2, "expected rotation, got {segs:?}");
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.cells.len(), (SEGMENT_RECORDS + 5) as usize);
    }

    #[test]
    fn torn_tail_is_quarantined_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d1", &fault("a")).unwrap();
        j.append_cell("m", 2, "d2", &fault("b")).unwrap();
        drop(j);
        // tear the last record in half, as a SIGKILL mid-write would
        let path = dir.join(segment_name(0));
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().rfind('\n').unwrap() + 20;
        fs::write(&path, &text[..cut]).unwrap();

        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.corrupt_segments, 1);
        assert!(replay.cell(1, "d1").is_some(), "valid prefix must survive");
        assert!(
            replay.cell(2, "d2").is_none(),
            "torn record must be dropped"
        );
        assert!(
            dir.join(format!("{}.corrupt", segment_name(0))).exists(),
            "evidence must be preserved"
        );
        // and the repaired segment replays cleanly a second time
        let (_j, replay2) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay2.corrupt_segments, 0);
        assert!(replay2.cell(1, "d1").is_some());
    }

    #[test]
    fn bitflip_is_detected_by_checksum() {
        let dir = tmp_dir("bitflip");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d", &fault("a")).unwrap();
        drop(j);
        let path = dir.join(segment_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40; // flip a bit inside the last record's payload
        fs::write(&path, bytes).unwrap();
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.corrupt_segments, 1);
        assert!(replay.cell(1, "d").is_none());
    }

    #[test]
    fn later_segments_after_corruption_are_quarantined_wholesale() {
        let dir = tmp_dir("wholesale");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        for i in 0..(SEGMENT_RECORDS + 2) {
            j.append_cell("m", i as u64, "d", &fault("x")).unwrap();
        }
        drop(j);
        // corrupt the FIRST segment: everything after it must go too
        let path = dir.join(segment_name(0));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert!(replay.corrupt_segments >= 2, "{}", replay.corrupt_segments);
        assert!(
            replay.cells.len() < (SEGMENT_RECORDS + 2) as usize,
            "post-corruption segments must not be replayed"
        );
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = tmp_dir("tmpsweep");
        let (j, _) = Journal::open(&dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d", &fault("a")).unwrap();
        drop(j);
        // litter the dir the way a crash mid-prefix-rewrite would
        fs::write(dir.join("segment-00000.jsonl.tmp.12345"), "half a rewrite").unwrap();
        fs::write(dir.join("other.tmp.999"), "junk").unwrap();
        let (_j, replay) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay.tmp_swept, 2);
        assert!(!dir.join("segment-00000.jsonl.tmp.12345").exists());
        assert!(!dir.join("other.tmp.999").exists());
        // the real segment replayed untouched
        assert!(replay.cell(1, "d").is_some());
        // a second open sweeps nothing
        let (_j, replay2) = Journal::open(&dir, &meta(), true).unwrap();
        assert_eq!(replay2.tmp_swept, 0);
    }

    #[test]
    fn enospc_degrades_instead_of_failing() {
        let fs = SimFs::new(42);
        let dir = PathBuf::from("journal");
        let (j, _) = Journal::open_on(fs.handle(), &dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d1", &fault("a")).unwrap();
        assert!(!j.is_degraded());
        // every append op now hits ENOSPC
        fs.inject(FaultRule::new(FaultKind::Enospc).on_op(OpKind::Append));
        j.append_cell("m", 2, "d2", &fault("b"))
            .expect("ENOSPC must degrade, not fail");
        assert!(j.is_degraded());
        // later appends are accepted no-ops
        j.append_cell("m", 3, "d3", &fault("c")).unwrap();
        drop(j);
        // the pre-ENOSPC record survived; the dropped ones did not
        let (_j, replay) = Journal::open_on(fs.handle(), &dir, &meta(), true).unwrap();
        assert!(replay.cell(1, "d1").is_some());
        assert!(replay.cell(2, "d2").is_none());
        assert!(replay.cell(3, "d3").is_none());
    }

    #[test]
    fn journal_is_durable_across_strict_power_loss() {
        // crash image after every append must replay exactly the appended
        // records — the fsync-per-record contract
        let fs = SimFs::new(7);
        let dir = PathBuf::from("j");
        let (j, _) = Journal::open_on(fs.handle(), &dir, &meta(), false).unwrap();
        j.append_cell("m", 1, "d1", &fault("a")).unwrap();
        j.append_cell("m", 2, "d2", &fault("b")).unwrap();
        let image = fs.crash_image(crate::vfs::CrashStyle::Strict, 1);
        let (_j, replay) = Journal::open_on(image.handle(), &dir, &meta(), true).unwrap();
        assert_eq!(replay.corrupt_segments, 0, "no torn tail after power loss");
        assert!(replay.cell(1, "d1").is_some());
        assert!(replay.cell(2, "d2").is_some());
    }
}
