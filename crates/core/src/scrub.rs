//! Offline integrity audit and repair for persisted state directories.
//!
//! `cnnperf scrub <DIR>` walks a state directory (corpus caches, cell
//! journals, predictor snapshot stores — any mix, nested arbitrarily)
//! and applies the same validation the owning stores run at open time,
//! without needing to construct those stores:
//!
//! | artifact                      | check                      | repair |
//! |-------------------------------|----------------------------|--------|
//! | `*.tmp.*`                     | always stale               | remove |
//! | `segment-NNNNN.jsonl`         | every line unseals         | quarantine `.corrupt`, rewrite valid prefix, quarantine later segments |
//! | `predictor-vNNNNNN.json`      | unseals, schema, stamp     | quarantine `.corrupt` |
//! | `*corpus*.json`               | unseals, schema            | quarantine `.corrupt` |
//! | `PINNED`                      | points at a valid snapshot | remove dangling pin |
//! | `*.corrupt` / `*.demoted`     | none (evidence)            | reported, kept |
//!
//! Each artifact is validated by the decode function of its owning store
//! and repaired through the same `core::durable` quarantine and publish
//! the stores use, so a scrubbed directory opens clean; every destructive
//! step preserves evidence (quarantine renames rather than deletes) and
//! is durable. With `apply == false` the same audit runs read-only.
//!
//! Counter invariant (gated by `cnnperf stats-check`):
//! `scrub.repaired <= scrub.findings`.

use crate::vfs::{real_fs, sync_parent_dir, Vfs};
use crate::{cache, durable, journal, modelstore};
use std::path::{Path, PathBuf};

/// Findings recorded across all scrubs (informational ones included).
static SCRUB_FINDINGS: obs::LazyCounter = obs::LazyCounter::new("scrub.findings");
/// Findings actually repaired (never more than `scrub.findings`).
static SCRUB_REPAIRED: obs::LazyCounter = obs::LazyCounter::new("scrub.repaired");
/// Files examined across all scrubs.
static SCRUB_CHECKED: obs::LazyCounter = obs::LazyCounter::new("scrub.files_checked");

/// What kind of damage (or evidence) a finding describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A stale `*.tmp.*` file from a crashed temp+rename publish.
    OrphanTmp,
    /// A journal segment with a corrupt line.
    CorruptSegment,
    /// A live segment following a corrupt one (ordering untrustworthy).
    SuspectSegment,
    /// A snapshot failing envelope validation.
    CorruptSnapshot,
    /// A corpus cache file failing envelope validation.
    CorruptCache,
    /// A `PINNED` marker pointing at no valid snapshot (or unparseable).
    DanglingPin,
    /// Existing `.corrupt`/`.demoted` evidence from earlier incidents.
    Evidence,
}

impl FindingKind {
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::OrphanTmp => "orphan-tmp",
            FindingKind::CorruptSegment => "corrupt-segment",
            FindingKind::SuspectSegment => "suspect-segment",
            FindingKind::CorruptSnapshot => "corrupt-snapshot",
            FindingKind::CorruptCache => "corrupt-cache",
            FindingKind::DanglingPin => "dangling-pin",
            FindingKind::Evidence => "evidence",
        }
    }

    /// Evidence findings are purely informational: nothing to repair.
    fn needs_repair(self) -> bool {
        !matches!(self, FindingKind::Evidence)
    }
}

/// What the scrub did about a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repair {
    /// The file was removed (orphan tmps, dangling pins).
    Removed,
    /// The file was renamed aside to `.corrupt` (evidence preserved).
    Quarantined,
    /// Quarantined, then the valid prefix rewritten under the live name.
    PrefixRewritten,
    /// Informational finding; nothing to do.
    NotNeeded,
    /// Dry run: the repair was identified but not applied.
    Skipped,
    /// The repair itself failed (the directory still needs attention).
    Failed(String),
}

impl Repair {
    fn applied(&self) -> bool {
        matches!(
            self,
            Repair::Removed | Repair::Quarantined | Repair::PrefixRewritten
        )
    }
}

/// One problem (or piece of evidence) the audit surfaced.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: PathBuf,
    pub kind: FindingKind,
    /// Human-readable reason (checksum mismatch detail, etc.).
    pub detail: String,
    pub repair: Repair,
}

/// Scrub configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScrubOptions {
    /// Apply repairs (false = audit-only dry run).
    pub apply: bool,
}

impl Default for ScrubOptions {
    fn default() -> Self {
        ScrubOptions { apply: true }
    }
}

/// Everything a scrub found and did.
#[derive(Debug, Default)]
pub struct ScrubReport {
    pub findings: Vec<Finding>,
    /// Files examined (all kinds, clean ones included).
    pub files_checked: u64,
    /// Directories visited.
    pub dirs_visited: u64,
}

impl ScrubReport {
    /// Findings whose repair was applied.
    pub fn repaired(&self) -> usize {
        self.findings.iter().filter(|f| f.repair.applied()).count()
    }

    /// Findings that needed a repair that did not happen (dry run or
    /// failure) — the directory is still damaged.
    pub fn unrepaired(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind.needs_repair() && !f.repair.applied())
            .count()
    }

    fn push(&mut self, path: &Path, kind: FindingKind, detail: String, repair: Repair) {
        SCRUB_FINDINGS.inc();
        if repair.applied() {
            SCRUB_REPAIRED.inc();
        }
        self.findings.push(Finding {
            path: path.to_path_buf(),
            kind,
            detail,
            repair,
        });
    }
}

/// Audit (and with `opts.apply`, repair) the state directory `dir`,
/// recursing into subdirectories.
pub fn scrub_dir(vfs: &dyn Vfs, dir: &Path, opts: ScrubOptions) -> std::io::Result<ScrubReport> {
    let mut report = ScrubReport::default();
    scrub_one_dir(vfs, dir, opts, &mut report)?;
    Ok(report)
}

/// [`scrub_dir`] on the real filesystem.
pub fn scrub_path(dir: &Path, opts: ScrubOptions) -> std::io::Result<ScrubReport> {
    scrub_dir(&*real_fs(), dir, opts)
}

fn scrub_one_dir(
    vfs: &dyn Vfs,
    dir: &Path,
    opts: ScrubOptions,
    report: &mut ScrubReport,
) -> std::io::Result<()> {
    report.dirs_visited += 1;
    // valid snapshot versions in this dir, for pin consistency
    let mut valid_versions: Vec<u64> = Vec::new();
    let mut pinned = false;
    let mut segments: Vec<(u32, PathBuf)> = Vec::new();

    for name in &vfs.read_dir(dir)? {
        let path = dir.join(name);
        if !vfs.exists(&path) {
            continue;
        }
        if path != dir && vfs.read_dir(&path).is_ok() && vfs.read(&path).is_err() {
            // a subdirectory: recurse
            scrub_one_dir(vfs, &path, opts, report)?;
            continue;
        }
        SCRUB_CHECKED.inc();
        report.files_checked += 1;

        if durable::is_tmp(name) {
            let repair = remove_repair(vfs, &path, opts);
            let detail = "stale temp file from a crashed publish".into();
            report.push(&path, FindingKind::OrphanTmp, detail, repair);
        } else if name.ends_with(durable::QUARANTINE_SUFFIX) || name.ends_with(".demoted") {
            let detail = "preserved evidence from an earlier incident".into();
            report.push(&path, FindingKind::Evidence, detail, Repair::NotNeeded);
        } else if let Some(idx) = journal::segment_index(name) {
            // handled after the listing pass, in index order
            segments.push((idx, path));
        } else if name == modelstore::PIN_FILE {
            // checked after snapshots are validated
            pinned = true;
        } else if let Some(version) = modelstore::parse_snapshot_version(name) {
            match modelstore::read_snapshot(vfs, &path, version) {
                Ok(_) => valid_versions.push(version),
                Err(reason) => {
                    let repair = quarantine_repair(vfs, &path, opts);
                    report.push(&path, FindingKind::CorruptSnapshot, reason, repair);
                }
            }
        } else if name.ends_with(".json") && name.contains("corpus") {
            if let Err(reason) = read(vfs, &path).and_then(|t| cache::decode(&t)) {
                let repair = quarantine_repair(vfs, &path, opts);
                report.push(&path, FindingKind::CorruptCache, reason, repair);
            }
        }
        // anything else (figures, benches, unrelated files) is not ours
    }

    // journal segments, in index order, so "later than the first corrupt
    // one" is well-defined
    segments.sort();
    let mut poisoned_from: Option<u32> = None;
    for (idx, path) in &segments {
        if let Some(from) = poisoned_from {
            // a segment after a corrupt one: ordering is untrustworthy,
            // quarantine wholesale exactly like journal replay does
            let repair = quarantine_repair(vfs, path, opts);
            let detail = format!("follows corrupt segment {from:05}");
            report.push(path, FindingKind::SuspectSegment, detail, repair);
            continue;
        }
        let text = match read(vfs, path) {
            Ok(t) => t,
            Err(detail) => {
                let repair = quarantine_repair(vfs, path, opts);
                report.push(path, FindingKind::CorruptSegment, detail, repair);
                poisoned_from = Some(*idx);
                continue;
            }
        };
        let (records, valid) = journal::read_segment(&text);
        if valid == text.len() {
            continue;
        }
        poisoned_from = Some(*idx);
        let detail = format!("corrupt line after {} valid record(s)", records.len());
        let repair = if !opts.apply {
            Repair::Skipped
        } else {
            match journal::repair_segment(vfs, path, &text[..valid]) {
                Ok(true) => Repair::PrefixRewritten,
                Ok(false) => Repair::Quarantined,
                Err(e) => Repair::Failed(e.to_string()),
            }
        };
        report.push(path, FindingKind::CorruptSegment, detail, repair);
    }

    // pin consistency: a pin must point at a valid snapshot in this dir
    if pinned {
        let path = dir.join(modelstore::PIN_FILE);
        let target: Option<u64> = vfs
            .read_to_string(&path)
            .ok()
            .and_then(|t| t.trim().parse().ok());
        if !target.is_some_and(|v| valid_versions.contains(&v)) {
            let detail = match target {
                Some(v) => format!("pinned version {v} has no valid snapshot"),
                None => "unparseable pin marker".into(),
            };
            let repair = remove_repair(vfs, &path, opts);
            report.push(&path, FindingKind::DanglingPin, detail, repair);
        }
    }
    Ok(())
}

fn read(vfs: &dyn Vfs, path: &Path) -> Result<String, String> {
    vfs.read_to_string(path)
        .map_err(|e| format!("unreadable: {e}"))
}

/// Remove `path` durably (orphan tmps, dangling pins).
fn remove_repair(vfs: &dyn Vfs, path: &Path, opts: ScrubOptions) -> Repair {
    if !opts.apply {
        return Repair::Skipped;
    }
    match vfs.remove_file(path) {
        Ok(()) => {
            let _ = sync_parent_dir(vfs, path);
            Repair::Removed
        }
        Err(e) => Repair::Failed(e.to_string()),
    }
}

/// Rename `path` aside to `.corrupt`, durably.
fn quarantine_repair(vfs: &dyn Vfs, path: &Path, opts: ScrubOptions) -> Repair {
    if !opts.apply {
        return Repair::Skipped;
    }
    match durable::quarantine(vfs, path) {
        Ok(_) => Repair::Quarantined,
        Err(e) => Repair::Failed(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimFs;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn clean_dir_has_no_findings() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/notes.txt"), b"unrelated").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.files_checked, 1);
    }

    #[test]
    fn orphan_tmp_is_removed() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/corpus.json.tmp.4242"), b"half").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::OrphanTmp);
        assert_eq!(report.repaired(), 1);
        assert_eq!(report.unrepaired(), 0);
        assert!(!fs.exists(&p("state/corpus.json.tmp.4242")));
    }

    #[test]
    fn dry_run_reports_without_touching() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/x.tmp.1"), b"half").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions { apply: false }).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.repaired(), 0);
        assert_eq!(report.unrepaired(), 1);
        assert!(fs.exists(&p("state/x.tmp.1")), "dry run must not modify");
    }

    #[test]
    fn dangling_pin_is_removed_valid_pin_kept() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("models")).unwrap();
        fs.write(&p("models/PINNED"), b"7\n").unwrap();
        let report = scrub_dir(&fs, &p("models"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::DanglingPin);
        assert!(!fs.exists(&p("models/PINNED")));
    }

    #[test]
    fn evidence_is_reported_not_repaired() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state")).unwrap();
        fs.write(&p("state/predictor-v000001.json.corrupt"), b"old evidence")
            .unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::Evidence);
        assert_eq!(report.repaired(), 0);
        assert_eq!(report.unrepaired(), 0, "evidence is not damage");
        assert!(fs.exists(&p("state/predictor-v000001.json.corrupt")));
    }

    #[test]
    fn corrupt_snapshot_is_quarantined() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("models")).unwrap();
        fs.write(&p("models/predictor-v000003.json"), b"{torn garbage")
            .unwrap();
        let report = scrub_dir(&fs, &p("models"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, FindingKind::CorruptSnapshot);
        assert_eq!(report.findings[0].repair, Repair::Quarantined);
        assert!(fs.exists(&p("models/predictor-v000003.json.corrupt")));
        assert!(!fs.exists(&p("models/predictor-v000003.json")));
    }

    /// A file in the parent commit's envelope format:
    /// `{"schema_version":1,"checksum":<fnv1a of payload json>,…}`.
    fn parent_envelope(fields: &[(&str, String)], payload: &str) -> String {
        let mut text = format!(
            r#"{{"schema_version":1,"checksum":{}"#,
            durable::fnv1a(payload.as_bytes())
        );
        for (key, json) in fields {
            text.push_str(&format!(r#","{key}":{json}"#));
        }
        text + "}"
    }

    fn parent_format_state(fs: &std::sync::Arc<SimFs>) {
        use crate::features::feature_names;
        let names = feature_names();
        let corpus = crate::pipeline::Corpus {
            dataset: mlkit::Dataset::new(names.clone()),
            samples: Vec::new(),
            profiles: Vec::new(),
        };
        let corpus = serde_json::to_string(&corpus).unwrap();
        let mut data = mlkit::Dataset::new(names.clone());
        for i in 0..8 {
            data.push(format!("r{i}"), vec![i as f64; names.len()], i as f64);
        }
        let predictor =
            crate::model::PerformancePredictor::train(&data, mlkit::RegressorKind::DecisionTree, 1);
        let predictor = serde_json::to_string(&predictor).unwrap();
        let meta = r#"{"version":1,"kind":"decision-tree","train_rows":8,"note":"v1"}"#;
        fs.create_dir_all(&p("state/models")).unwrap();
        let cache = parent_envelope(&[("corpus", corpus.clone())], &corpus);
        fs.write(&p("state/corpus.json"), cache.as_bytes()).unwrap();
        let fields = [("meta", meta.to_string()), ("predictor", predictor.clone())];
        let snapshot = parent_envelope(&fields, &predictor);
        fs.write(
            &p("state/models/predictor-v000001.json"),
            snapshot.as_bytes(),
        )
        .unwrap();
    }

    #[test]
    fn parent_format_files_are_quarantined_by_their_stores() {
        let fs = SimFs::new(1);
        parent_format_state(&fs);
        assert!(matches!(
            crate::cache::load_corpus_on(&fs, &p("state/corpus.json")),
            Err(crate::cache::CacheMiss::Quarantined(_))
        ));
        let (store, report) =
            crate::modelstore::ModelStore::open_on(fs.handle(), &p("state/models")).unwrap();
        assert_eq!(report.quarantined, 1);
        assert!(store.load_latest().is_none());
        assert!(fs.exists(&p("state/corpus.json.corrupt")));
        assert!(fs.exists(&p("state/models/predictor-v000001.json.corrupt")));
    }

    #[test]
    fn parent_format_files_are_quarantined_by_scrub() {
        let fs = SimFs::new(1);
        parent_format_state(&fs);
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        let mut labels: Vec<_> = report.findings.iter().map(|f| f.kind.label()).collect();
        labels.sort();
        assert_eq!(labels, ["corrupt-cache", "corrupt-snapshot"]);
        assert_eq!(report.unrepaired(), 0);
        assert!(fs.exists(&p("state/corpus.json.corrupt")));
        assert!(fs.exists(&p("state/models/predictor-v000001.json.corrupt")));
    }

    #[test]
    fn recurses_into_subdirectories() {
        let fs = SimFs::new(1);
        fs.create_dir_all(&p("state/journal")).unwrap();
        fs.create_dir_all(&p("state/models")).unwrap();
        fs.write(&p("state/journal/a.tmp.1"), b"x").unwrap();
        fs.write(&p("state/models/b.tmp.2"), b"y").unwrap();
        let report = scrub_dir(&fs, &p("state"), ScrubOptions::default()).unwrap();
        assert_eq!(report.findings.len(), 2);
        assert_eq!(report.repaired(), 2);
        assert!(report.dirs_visited >= 3);
    }
}
