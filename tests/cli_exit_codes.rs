//! The CLI's exit-code taxonomy is a contract with scripts and CI: each
//! distinguishable operational condition maps to its own code, so callers
//! branch on `$?` instead of scraping stderr. One test per code.
//!
//! 0 success | 1 failure | 2 usage/config | 3 overloaded |
//! 4 deadline exceeded | 5 corrupt cache/journal | 6 server bind error |
//! 7 model store init failure

use std::path::PathBuf;
use std::process::Command;

fn cnnperf() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cnnperf"));
    // point the corpus cache somewhere absent so estimate's tiers degrade
    // deterministically instead of picking up a developer's warm cache
    cmd.env("CNNPERF_CORPUS", scratch("no-corpus-cache.json"));
    cmd
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnnperf-exit-test-{}-{name}", std::process::id()))
}

fn exit_code(cmd: &mut Command) -> i32 {
    cmd.output()
        .expect("spawn cnnperf")
        .status
        .code()
        .expect("exit code (not signal-killed)")
}

#[test]
fn no_arguments_is_usage_error() {
    assert_eq!(exit_code(&mut cnnperf()), 2);
}

#[test]
fn unknown_flag_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["corpus", "--bogus"])), 2);
}

#[test]
fn unknown_model_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["analyze", "nonexistent-net"])), 2);
}

#[test]
fn hang_chaos_without_watchdog_is_config_error() {
    // an unwatched hang would wedge the build forever; the CLI refuses
    let code = exit_code(cnnperf().args(["corpus", "--models", "alexnet", "--chaos", "hang=1.0"]));
    assert_eq!(code, 2);
}

#[test]
fn resume_without_journal_dir_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["corpus", "--resume"])), 2);
}

#[test]
fn overloaded_batch_exits_3() {
    // queue capacity 1 against a 3-request batch: the engine sheds load
    let code = exit_code(cnnperf().args([
        "estimate",
        "alexnet,mobilenet,vgg16",
        "GTX 1080 Ti",
        "--queue-capacity",
        "1",
        "--tiers",
        "analytical",
    ]));
    assert_eq!(code, 3);
}

#[test]
fn deadline_exceeded_exits_4() {
    // a 1 ms deadline with only the detailed tier cannot be served, and
    // nothing is load-shed, so the failure is a deadline miss
    let code = exit_code(cnnperf().args([
        "estimate",
        "vgg16",
        "GTX 1080 Ti",
        "--deadline-ms",
        "1",
        "--tiers",
        "detailed",
    ]));
    assert_eq!(code, 4);
}

#[test]
fn serve_bind_failure_exits_6() {
    // the socket's parent directory does not exist, so bind must fail
    let sock = scratch("no-such-dir").join("server.sock");
    let code = exit_code(cnnperf().args(["serve", "--socket", sock.to_str().expect("utf8 path")]));
    assert_eq!(code, 6);
}

#[test]
fn serve_metrics_bind_failure_exits_6() {
    // an unresolvable metrics address fails the second bind
    let sock = scratch("serve-metrics.sock");
    let _ = std::fs::remove_file(&sock);
    let code = exit_code(cnnperf().args([
        "serve",
        "--socket",
        sock.to_str().expect("utf8 path"),
        "--metrics",
        "999.999.999.999:0",
    ]));
    let _ = std::fs::remove_file(&sock);
    assert_eq!(code, 6);
}

#[test]
fn serve_metrics_without_socket_is_usage_error() {
    assert_eq!(
        exit_code(cnnperf().args(["serve", "--metrics", "127.0.0.1:9095"])),
        2
    );
}

#[test]
fn serve_unusable_model_dir_exits_7() {
    // a path under a file cannot become a directory, so store init fails
    let blocker = scratch("modelstore-blocker");
    std::fs::write(&blocker, "not a directory").expect("write blocker");
    let dir = blocker.join("store");
    let code =
        exit_code(cnnperf().args(["serve", "--model-dir", dir.to_str().expect("utf8 path")]));
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(code, 7);
}

#[test]
fn models_unusable_model_dir_exits_7() {
    let blocker = scratch("models-blocker");
    std::fs::write(&blocker, "not a directory").expect("write blocker");
    let dir = blocker.join("store");
    let code = exit_code(cnnperf().args([
        "models",
        "list",
        "--model-dir",
        dir.to_str().expect("utf8 path"),
    ]));
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(code, 7);
}

#[test]
fn models_rollback_of_empty_store_exits_7() {
    let dir = scratch("empty-store");
    let _ = std::fs::remove_dir_all(&dir);
    let code = exit_code(cnnperf().args([
        "models",
        "rollback",
        "--model-dir",
        dir.to_str().expect("utf8 path"),
    ]));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 7);
}

#[test]
fn models_without_action_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["models"])), 2);
    assert_eq!(exit_code(cnnperf().args(["models", "list"])), 2); // no --model-dir
}

#[test]
fn strict_resume_from_corrupt_journal_exits_5() {
    let dir = scratch("corrupt-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    // a record that cannot possibly pass the checksum
    std::fs::write(
        dir.join("segment-00000.jsonl"),
        "deadbeefdeadbeef {\"garbage\"\n",
    )
    .expect("write corrupt segment");
    let code = exit_code(cnnperf().args([
        "corpus",
        "--models",
        "alexnet",
        "--journal-dir",
        dir.to_str().expect("utf8 dir"),
        "--resume",
        "--strict",
    ]));
    assert_eq!(code, 5);
}

/// Run `args` under a watchdog and return its exit code and stderr. A
/// usage error must be reported before any slow work (a corpus build is
/// ~1 min), so a run that outlives the watchdog is killed and reported
/// as `None`.
fn run_bounded(args: &[&str]) -> (Option<i32>, String) {
    use std::io::Read;
    let mut child = cnnperf()
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cnnperf");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break Some(status);
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr);
    (status.and_then(|s| s.code()), stderr)
}

#[test]
fn usage_errors_exit_2_before_any_work() {
    let dir = scratch("usage-table-store");
    let d = dir.to_str().expect("utf8 path");
    let dev = "GTX 1080 Ti";
    let cases: &[&[&str]] = &[
        // an unknown flag, for every command
        &["list", "--bogus"],
        &["analyze", "alexnet", "--bogus"],
        &["profile", "alexnet", dev, "--bogus"],
        &["predict", "alexnet", "--bogus"],
        &["rank", "alexnet", "--bogus"],
        &["corpus", "--bogus"],
        &["estimate", "alexnet", dev, "--bogus"],
        &["serve", "--bogus"],
        &["models", "list", "--model-dir", d, "--bogus"],
        &["scrub", d, "--bogus"],
        &["stats-check", "snapshot.out", "--bogus"],
        &["ptx", "alexnet", "--bogus"],
        &["dot", "alexnet", "--bogus"],
        // a missing value, for every value-taking flag
        &["list", "--count-mode"],
        &["predict", "alexnet", "--regressor"],
        &["rank", "alexnet", "--stats"],
        &["rank", "alexnet", "--journal-dir"],
        &["rank", "alexnet", "--cell-timeout-ms"],
        &["corpus", "--runs"],
        &["corpus", "--fault-profile"],
        &["corpus", "--models"],
        &["corpus", "--devices"],
        &["corpus", "--journal-dir"],
        &["corpus", "--cell-timeout-ms"],
        &["corpus", "--chaos"],
        &["corpus", "--out"],
        &["corpus", "--stats"],
        &["estimate", "alexnet", dev, "--deadline-ms"],
        &["estimate", "alexnet", dev, "--tiers"],
        &["estimate", "alexnet", dev, "--chaos"],
        &["estimate", "alexnet", dev, "--queue-capacity"],
        &["estimate", "alexnet", dev, "--stats"],
        &["serve", "--socket"],
        &["serve", "--metrics"],
        &["serve", "--workers"],
        &["serve", "--deadlines"],
        &["serve", "--quotas"],
        &["serve", "--max-retries"],
        &["serve", "--retry-backoff-ms"],
        &["serve", "--tiers"],
        &["serve", "--chaos"],
        &["serve", "--max-frame-bytes"],
        &["serve", "--frame-stall-ms"],
        &["serve", "--drain-deadline-ms"],
        &["serve", "--stats-dump"],
        &["serve", "--model-dir"],
        &["serve", "--retrain-interval-s"],
        &["serve", "--shadow-window"],
        &["serve", "--promotion-threshold"],
        &["serve", "--drift-window"],
        &["serve", "--drift-threshold"],
        &["models", "list", "--model-dir"],
        &["scrub", d, "--stats"],
        // bad values
        &["rank", "alexnet", "--stats", "xml"],
        &["predict", "alexnet", "--regressor", "svm"],
        &["corpus", "--runs", "0"],
        &["serve", "--max-frame-bytes", "63"],
        &["serve", "--drift-threshold", "0"],
        &["serve", "--quotas", "1,2"],
        // stray positionals
        &["list", "extra"],
        &["dot", "alexnet", "extra"],
        &["ptx", "alexnet", "extra"],
        &["analyze", "alexnet", "extra"],
        &["profile", "alexnet", dev, "extra"],
        &["predict", "alexnet", dev, "extra"],
        &["rank", "alexnet", "extra"],
        &["estimate", "alexnet", dev, "extra"],
        &["stats-check", "snapshot.out", "extra"],
        &["scrub", d, "extra"],
    ];
    let mut wrong = Vec::new();
    for args in cases {
        let (code, stderr) = run_bounded(args);
        if code != Some(2) || stderr.contains("building") {
            wrong.push(format!(
                "{args:?}: exit {code:?}, stderr: {}",
                stderr.trim()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(wrong.is_empty(), "not usage errors:\n{}", wrong.join("\n"));
}

#[test]
fn flags_may_precede_positionals() {
    let dir = scratch("flag-order-store");
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8 path");
    let code = exit_code(cnnperf().args(["models", "--model-dir", d, "list"]));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 0);
}
