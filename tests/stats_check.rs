//! `cnnperf stats-check` is the CI gate over `--stats json` snapshots.
//! One table drives it: a snapshot that satisfies every counter
//! invariant passes, and a copy that breaks exactly one invariant — or
//! the schema, the shape, or a histogram — fails with exit 1.

use std::path::PathBuf;
use std::process::Command;

/// Counters under which every invariant holds.
const CLEAN: &[(&str, u64)] = &[
    ("engine.requests", 10),
    ("engine.outcome.served", 7),
    ("engine.outcome.exhausted", 2),
    ("engine.outcome.overloaded", 1),
    ("engine.cache.lookups", 5),
    ("engine.cache.hits", 3),
    ("engine.cache.misses", 2),
    ("analysis.cache.lookups", 6),
    ("analysis.cache.hits", 4),
    ("analysis.cache.misses", 2),
    ("analysis.cache.evictions", 1),
    ("ptx.poly.attempts", 4),
    ("ptx.poly.compiled", 4),
    ("ptx.poly.fallbacks", 0),
    ("ptx.poly.evals", 8),
    ("ptx.poly.eval_fallbacks", 1),
    ("journal.replayed", 3),
    ("journal.computed", 5),
    ("journal.appends", 9),
    ("corpus.cells.ok", 5),
    ("corpus.cells.degraded", 1),
    ("corpus.cells.failed", 1),
    ("corpus.cells.timeout", 1),
    ("modelstore.snapshots.scanned", 3),
    ("modelstore.snapshots.loaded", 2),
    ("modelstore.snapshots.quarantined", 1),
    ("modelstore.snapshots.written", 2),
    ("lifecycle.retrains", 4),
    ("lifecycle.promotions", 2),
    ("lifecycle.rejections", 1),
    ("lifecycle.shadow.evals", 3),
    ("lifecycle.rollbacks", 1),
    ("lifecycle.drift.trips", 1),
    ("vfs.ops", 20),
    ("vfs.injected", 2),
    ("vfs.sync_file", 5),
    ("vfs.sync_dir", 3),
    ("scrub.findings", 3),
    ("scrub.repaired", 2),
    ("supervise.stale_cells", 2),
    ("supervise.cancelled", 1),
    ("server.requests", 10),
    ("server.admitted", 7),
    ("server.shed", 2),
    ("server.rejected.draining", 1),
    ("server.shed.interactive", 0),
    ("server.shed.batch", 1),
    ("server.shed.best-effort", 1),
    ("server.coalesced", 3),
    ("server.completed", 5),
    ("server.drain.flushed", 1),
    ("server.drained", 2),
];

/// One histogram whose buckets sum to its count.
const CLEAN_HISTOGRAMS: &str =
    r#"{"engine.request_us":{"count":3,"sum":30,"buckets":{"10":1,"100":2}}}"#;

/// Each case overrides `CLEAN` so that exactly one invariant breaks.
const BROKEN: &[(&str, &[(&str, u64)])] = &[
    (
        "engine outcomes sum to requests",
        &[("engine.outcome.served", 8)],
    ),
    (
        "engine cache traffic sums to lookups",
        &[("engine.cache.hits", 4)],
    ),
    (
        "analysis cache traffic sums to lookups",
        &[("analysis.cache.hits", 5)],
    ),
    (
        "evictions never exceed misses",
        &[("analysis.cache.evictions", 3)],
    ),
    (
        "poly attempts split into compiled + fallbacks",
        &[("ptx.poly.attempts", 5)],
    ),
    (
        "a compiled kernel is evaluated",
        &[("ptx.poly.evals", 0), ("ptx.poly.eval_fallbacks", 0)],
    ),
    (
        "eval fallbacks are a subset of evals",
        &[("ptx.poly.eval_fallbacks", 9)],
    ),
    (
        "no compile-time poly fallbacks",
        &[("ptx.poly.fallbacks", 1), ("ptx.poly.compiled", 3)],
    ),
    (
        "journal split accounts for every cell",
        &[("journal.replayed", 4)],
    ),
    ("appends cover computed cells", &[("journal.appends", 4)]),
    (
        "scanned snapshots are loaded or quarantined",
        &[("modelstore.snapshots.loaded", 3)],
    ),
    (
        "gate decisions bounded by retrains",
        &[("lifecycle.retrains", 2)],
    ),
    (
        "gate decisions follow shadow evals",
        &[("lifecycle.shadow.evals", 2)],
    ),
    (
        "rollbacks follow drift trips",
        &[("lifecycle.rollbacks", 2)],
    ),
    (
        "promotions are snapshotted",
        &[("modelstore.snapshots.written", 1)],
    ),
    (
        "injected faults are a subset of ops",
        &[("vfs.injected", 21)],
    ),
    ("syncs are a subset of ops", &[("vfs.sync_file", 18)]),
    (
        "scrub repairs at most its findings",
        &[("scrub.repaired", 4)],
    ),
    (
        "watchdog cancels only stale cells",
        &[("supervise.cancelled", 3)],
    ),
    (
        "server requests are admitted, shed or rejected",
        &[("server.rejected.draining", 2)],
    ),
    ("per-class shed sums to shed", &[("server.shed.batch", 2)]),
    (
        "coalesced requests were admitted",
        &[("server.coalesced", 8)],
    ),
    (
        "admitted requests resolve at most once",
        &[("server.completed", 7)],
    ),
    ("drain resolutions are a subset", &[("server.drained", 7)]),
];

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnnperf-stats-check-{}-{name}", std::process::id()))
}

fn counters_json(overrides: &[(&str, u64)]) -> String {
    let fields: Vec<String> = CLEAN
        .iter()
        .map(|(name, clean)| {
            let v = overrides
                .iter()
                .find(|(n, _)| n == name)
                .map_or(*clean, |(_, v)| *v);
            format!("\"{name}\":{v}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn snapshot(counters: &str, histograms: &str) -> String {
    format!(r#"{{"schema":1,"counters":{counters},"histograms":{histograms}}}"#)
}

/// Write `text` after a human-readable line (as a real `--stats json` run
/// leaves it) and return the `stats-check` exit code.
fn stats_check(tag: &str, text: &str) -> i32 {
    let path = scratch(tag);
    std::fs::write(&path, format!("report: human-readable line\n{text}\n")).expect("write");
    let code = Command::new(env!("CARGO_BIN_EXE_cnnperf"))
        .arg("stats-check")
        .arg(&path)
        .output()
        .expect("spawn cnnperf")
        .status
        .code()
        .expect("exit code");
    let _ = std::fs::remove_file(&path);
    code
}

#[test]
fn stats_check_table() {
    let mut cases: Vec<(String, String, i32)> = vec![
        (
            "clean snapshot".into(),
            snapshot(&counters_json(&[]), CLEAN_HISTOGRAMS),
            0,
        ),
        ("empty snapshot".into(), snapshot("{}", "{}"), 0),
        (
            "guarded rules skip absent guards".into(),
            snapshot(
                r#"{"ptx.poly.fallbacks":1,"journal.computed":3,"lifecycle.promotions":2,"server.shed.batch":5}"#,
                "{}",
            ),
            0,
        ),
        (
            "bad schema".into(),
            snapshot(&counters_json(&[]), CLEAN_HISTOGRAMS).replace("\"schema\":1", "\"schema\":2"),
            1,
        ),
        (
            "missing histograms".into(),
            format!(r#"{{"schema":1,"counters":{}}}"#, counters_json(&[])),
            1,
        ),
        (
            "histogram buckets do not sum to count".into(),
            snapshot(
                &counters_json(&[]),
                r#"{"engine.request_us":{"count":4,"sum":30,"buckets":{"10":1,"100":2}}}"#,
            ),
            1,
        ),
    ];
    for (what, overrides) in BROKEN {
        cases.push((
            format!("broken: {what}"),
            snapshot(&counters_json(overrides), CLEAN_HISTOGRAMS),
            1,
        ));
    }
    let mut wrong = Vec::new();
    for (i, (what, text, want)) in cases.iter().enumerate() {
        let got = stats_check(&format!("case{i}.out"), text);
        if got != *want {
            wrong.push(format!("{what}: exit {got}, want {want}"));
        }
    }
    assert!(wrong.is_empty(), "stats-check cases:\n{}", wrong.join("\n"));
}
