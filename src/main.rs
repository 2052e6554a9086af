//! `cnnperf` — command-line interface to the estimation pipeline.
//!
//! ```text
//! cnnperf list                          # models and devices
//! cnnperf analyze resnet50              # static + dynamic analysis
//! cnnperf profile resnet50 "V100S"      # ground-truth simulation + power
//! cnnperf predict resnet50 --all-devices
//! cnnperf rank MobileNetV2              # DSE over the device fleet
//! cnnperf ptx mobilenet                 # dump the generated PTX module
//! cnnperf dot alexnet                   # Graphviz of the model graph
//! ```

use cnnperf::prelude::*;
use cnnperf_core::{
    build_corpus_robust_with, BuildMeta, BuildOptions, Journal, JournalError, ScrubOptions,
    SuperviseConfig, Supervisor, DEFAULT_SM_TARGET,
};
use gpu_sim::{estimate_power, ChaosProfile, SimMode, Simulator};
use ptx_analysis::ExecBudget;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Exit-code taxonomy (documented in the README): `0` success, `1`
/// generic failure, then one code per distinguishable operational
/// condition so scripts and CI can branch without scraping stderr.
const EXIT_USAGE: u8 = 2;
/// The estimation engine shed load at admission (queue over capacity).
const EXIT_OVERLOADED: u8 = 3;
/// Requests missed the deadline (unserved, but not load-shed).
const EXIT_DEADLINE: u8 = 4;
/// A crash-safe artifact (corpus cache or cell journal) was corrupt and
/// the command was not allowed to degrade around it (`--strict`).
const EXIT_CORRUPT: u8 = 5;
/// The server failed to bind its Unix socket or metrics endpoint.
const EXIT_BIND: u8 = 6;
/// The snapshot model store could not be initialised (`--model-dir` is
/// not a usable directory, or a `models` action failed against it).
const EXIT_MODELSTORE: u8 = 7;
/// `scrub` found damage it could not (or was not allowed to) repair.
const EXIT_SCRUB: u8 = 8;

const USAGE: &str = "\
usage: cnnperf <command> [args]
commands:
  list                          list zoo models, variants and devices
  analyze <model>               static analyzer + executed-instruction count
  profile <model> <device>      ground-truth simulation (IPC, latency, power)
  predict <model> [<device>|--all-devices] [--regressor dt|knn|rf|xgb|lr]
  rank <model> [--journal-dir DIR] [--resume] [--cell-timeout-ms N]
       [--stats json|prom]      rank all devices by predicted IPC (warm: the
                                analysis cache skips repeated DCA; a corpus
                                cache miss rebuilds under the given journal)
  corpus [--strict] [--runs N] [--fault-profile none|light|harsh|k=v,..]
         [--models m1,m2,..] [--devices d1,d2,..]
         [--journal-dir DIR] [--resume] [--cell-timeout-ms N]
         [--chaos none|k=v,..] [--out FILE]
         [--stats json|prom]    build the training corpus under the robust
                                measurement protocol and print its health
                                report; --journal-dir checkpoints every cell
                                so --resume skips completed work after a
                                crash, --cell-timeout-ms arms the watchdog
                                that cancels silent cells, --out writes the
                                canonical (wall-clock-free) corpus JSON
  estimate <models> <devices|--all-devices> [--deadline-ms N] [--tiers t1,t2,..]
           [--chaos none|k=v,..] [--queue-capacity N] [--stats json|prom]
                                deadline-bounded batch estimation through the
                                tiered engine (detailed > analytical > regressor
                                > stale-cache); models/devices comma-separated
  serve [--socket PATH] [--metrics ADDR] [--workers N]
        [--deadlines I,B,E] [--quotas I,B,E] [--max-retries N]
        [--retry-backoff-ms N] [--no-revalidate] [--tiers t1,t2,..]
        [--chaos none|k=v,..] [--max-frame-bytes N] [--frame-stall-ms N]
        [--drain-deadline-ms N] [--stats-dump json|prom]
        [--model-dir DIR] [--retrain-interval-s N] [--shadow-window N]
        [--promotion-threshold F] [--drift-window N] [--drift-threshold F]
                                persistent NDJSON estimation server over a
                                Unix socket (or stdin/stdout without
                                --socket); per-client QoS classes
                                (interactive|batch|best-effort) with
                                admission control and request coalescing;
                                --metrics serves live Prometheus from the
                                same loop; SIGTERM drains gracefully;
                                --model-dir arms the predictor lifecycle:
                                cold-start from the newest valid snapshot,
                                background retraining from served ground
                                truth, shadow-gated promotion, drift
                                rollback, crash-safe snapshots
  models <list|inspect V|pin V|unpin|rollback> --model-dir DIR
                                inspect and steer the snapshot store:
                                `pin` freezes cold-starts to a version,
                                `rollback` demotes the newest snapshot so
                                the previous one serves
  scrub <dir> [--dry-run] [--stats json|prom]
                                audit a state directory (corpus caches,
                                cell journals, snapshot stores): checksum
                                every artifact, sweep orphan temp files,
                                quarantine corrupt files, rewrite valid
                                journal prefixes, remove dangling pins;
                                --dry-run reports without touching disk
  stats-check <file>            validate the metrics snapshot emitted by
                                `--stats json` (last JSON line of <file>):
                                schema, shape, and counter invariants
  ptx <model>                   print the generated PTX module
  dot <model>                   print the model graph as Graphviz
global flags (any command):
  --count-mode auto|poly|interp|bruteforce
                                how the dynamic code analysis counts
                                executed instructions: `auto` (default)
                                compiles kernels to closed-form trip-count
                                polynomials and falls back to the dense
                                interpreter per kernel/launch; `poly` makes
                                a fallback a hard error (diagnostics);
                                `interp` forces the interpreter;
                                `bruteforce` executes every thread
                                (validation only — exponentially slower)
flags may appear in any position; an unknown flag, a flag without its value
or an extra argument is a usage error (exit 2)
exit codes: 0 ok, 1 failure, 2 usage/config error, 3 overloaded,
            4 deadline exceeded, 5 corrupt cache/journal,
            6 server bind/socket error, 7 model store init failure,
            8 scrub found unrepaired damage";

/// A usage error: `main` prints it once and exits [`EXIT_USAGE`].
struct Usage(String);

/// The full usage text, for a missing command or argument.
fn usage() -> Usage {
    Usage(USAGE.to_string())
}

/// The flags one command declares: `switches` stand alone, `options` take
/// the next argument as their value.
struct Flags {
    switches: &'static [&'static str],
    options: &'static [&'static str],
}

const NO_FLAGS: Flags = Flags {
    switches: &[],
    options: &[],
};

/// Options every command accepts.
const GLOBAL_OPTIONS: &[&str] = &["--count-mode"];

/// A command line split against its command's [`Flags`]. Flags may appear
/// in any position; for a repeated option the last value wins.
#[derive(Default)]
struct Args<'a> {
    positional: Vec<&'a str>,
    switches: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Split `args` for `cmd`, which takes at most `positionals` of them.
    fn parse(
        cmd: &str,
        positionals: usize,
        flags: &Flags,
        args: &[&'a str],
    ) -> Result<Self, Usage> {
        let mut parsed = Args::default();
        let mut it = args.iter().copied();
        while let Some(arg) = it.next() {
            if flags.switches.contains(&arg) {
                parsed.switches.push(arg);
            } else if flags.options.contains(&arg) || GLOBAL_OPTIONS.contains(&arg) {
                let value = it
                    .next()
                    .ok_or_else(|| Usage(format!("{arg} needs a value")))?;
                parsed.options.push((arg, value));
            } else if arg.starts_with("--") {
                return Err(Usage(format!("unknown {cmd} flag `{arg}`")));
            } else if parsed.positional.len() < positionals {
                parsed.positional.push(arg);
            } else {
                return Err(Usage(format!("{cmd}: unexpected argument `{arg}`")));
            }
        }
        Ok(parsed)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn arg(&self, i: usize) -> Option<&'a str> {
        self.positional.get(i).copied()
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.options
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// `flag`'s value through `parse`; a rejected value reads "`flag`
    /// needs `what`".
    fn get<T>(
        &self,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, Usage> {
        self.value(flag)
            .map(|v| parse(v).ok_or_else(|| Usage(format!("{flag} needs {what}"))))
            .transpose()
    }

    /// `flag`'s value through a parser that explains its own rejections.
    fn parsed<T>(
        &self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, Usage> {
        self.value(flag)
            .map(|v| parse(v).map_err(|e| Usage(format!("bad {flag}: {e}"))))
            .transpose()
    }

    /// An integer option of at least `min`.
    fn int<T: FromStr + PartialOrd + From<u8>>(
        &self,
        flag: &str,
        min: u8,
    ) -> Result<Option<T>, Usage> {
        let what = match min {
            0 => "an integer".to_string(),
            1 => "a positive integer".to_string(),
            m => format!("an integer >= {m}"),
        };
        self.get(flag, &what, |v| {
            v.parse().ok().filter(|n| *n >= T::from(min))
        })
    }

    /// A finite number option accepted by `ok`.
    fn float(&self, flag: &str, what: &str, ok: fn(f64) -> bool) -> Result<Option<f64>, Usage> {
        self.get(flag, what, |v| {
            v.parse().ok().filter(|f: &f64| f.is_finite() && ok(*f))
        })
    }

    fn stats(&self, flag: &str) -> Result<Option<StatsFormat>, Usage> {
        self.get(flag, "`json` or `prom`", StatsFormat::parse)
    }
}

/// Parse `--deadlines I,B,E` / `--quotas I,B,E` triples (interactive,
/// batch, best-effort) of positive integers.
fn positive_triple<T: FromStr + PartialOrd + From<u8>>(spec: &str) -> Option<[T; 3]> {
    let mut parts = spec.split(',').map(|s| s.trim().parse::<T>().ok());
    let triple = [parts.next()??, parts.next()??, parts.next()??];
    let positive = triple.iter().all(|v| *v >= T::from(1));
    (parts.next().is_none() && positive).then_some(triple)
}

fn model(name: &str) -> Result<cnn_ir::ModelGraph, Usage> {
    cnn_ir::zoo::build_any(name)
        .ok_or_else(|| Usage(format!("unknown model '{name}' — see `cnnperf list`")))
}

fn device(name: &str) -> Result<gpu_sim::DeviceSpec, Usage> {
    gpu_sim::device_by_name(name)
        .ok_or_else(|| Usage(format!("unknown device '{name}' — see `cnnperf list`")))
}

/// Report a command failure on stderr and exit with `code`.
fn fail(code: u8, msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(code)
}

fn split_list(spec: &str) -> impl Iterator<Item = &str> {
    spec.split(',').map(str::trim)
}

fn regressor(name: &str) -> Option<RegressorKind> {
    match name {
        "dt" => Some(RegressorKind::DecisionTree),
        "knn" => Some(RegressorKind::KNearestNeighbors),
        "rf" => Some(RegressorKind::RandomForest),
        "xgb" => Some(RegressorKind::XgBoost),
        "lr" => Some(RegressorKind::LinearRegression),
        _ => None,
    }
}

/// Output format for the end-of-run metrics snapshot (`--stats`).
#[derive(Clone, Copy)]
enum StatsFormat {
    Json,
    Prom,
}

impl StatsFormat {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "json" => Some(StatsFormat::Json),
            "prom" => Some(StatsFormat::Prom),
            _ => None,
        }
    }
}

/// Emit the global metrics snapshot to stdout, if asked for. The JSON
/// form is a single line (always the *last* stdout line of the command)
/// so scripts and `stats-check` can grab it without parsing the
/// human-readable report above it.
fn emit_stats(fmt: Option<StatsFormat>) {
    match fmt {
        Some(StatsFormat::Json) => println!("{}", obs::global().snapshot().to_json()),
        Some(StatsFormat::Prom) => print!("{}", obs::global().snapshot().to_prometheus()),
        None => {}
    }
}

/// Location of the crash-safe corpus cache (shared with the bench
/// harness; override with `CNNPERF_CORPUS`).
fn corpus_cache_path() -> PathBuf {
    if let Ok(p) = std::env::var("CNNPERF_CORPUS") {
        return PathBuf::from(p);
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("cnnperf-paper-corpus-v2.json")
}

/// Load the corpus from the crash-safe cache without building on a miss.
fn corpus_if_cached() -> Option<Corpus> {
    match load_corpus(&corpus_cache_path()) {
        Ok(c) if c.dataset.feature_names == feature_names() => Some(c),
        Ok(_) => {
            eprintln!("corpus cache stale (feature layout changed)");
            None
        }
        // Absent is a clean miss; Quarantined already warned on stderr
        Err(_) => None,
    }
}

/// `--journal-dir`, `--resume` and `--cell-timeout-ms`: how a corpus
/// build checkpoints its cells and watches for silent ones.
#[derive(Default)]
struct Checkpoint<'a> {
    journal_dir: Option<&'a Path>,
    resume: bool,
    cell_timeout_ms: Option<u64>,
}

impl<'a> Checkpoint<'a> {
    fn from_args(a: &Args<'a>) -> Result<Self, Usage> {
        let journal_dir = a.value("--journal-dir").map(Path::new);
        let resume = a.has("--resume");
        if resume && journal_dir.is_none() {
            return Err(Usage(
                "--resume needs --journal-dir (nothing to resume from)".into(),
            ));
        }
        Ok(Checkpoint {
            journal_dir,
            resume,
            cell_timeout_ms: a.int("--cell-timeout-ms", 1)?,
        })
    }

    /// Open (or resume) the journal and start the watchdog the checkpoint
    /// asks for, then run `build` under them. Journal failures map to the
    /// exit-code taxonomy: a configuration mismatch is a usage error
    /// ([`EXIT_USAGE`]), corrupt segments under `--strict` are
    /// [`EXIT_CORRUPT`] (a lax build recomputes the quarantined cells and
    /// continues).
    fn run<R>(
        &self,
        cfg: &RobustConfig,
        chaos: ChaosProfile,
        build: impl FnOnce(&BuildOptions) -> R,
    ) -> Result<R, ExitCode> {
        let journal = match self.journal_dir {
            Some(dir) => match Journal::open(dir, &BuildMeta::for_config(cfg), self.resume) {
                Ok((journal, replay)) => {
                    if replay.corrupt_segments > 0 {
                        eprintln!(
                            "journal: quarantined {} corrupt segment(s) to `.corrupt`",
                            replay.corrupt_segments
                        );
                        if cfg.strict {
                            let refusal = "strict build refuses a journal with corrupt segments";
                            return Err(fail(EXIT_CORRUPT, refusal));
                        }
                    }
                    if self.resume {
                        eprintln!("journal: replayed {} record(s)", replay.records);
                    }
                    Some((journal, replay))
                }
                Err(e @ JournalError::ConfigMismatch { .. }) => {
                    return Err(fail(EXIT_USAGE, format!("cannot resume: {e}")))
                }
                Err(e) => return Err(fail(1, format!("journal open failed: {e}"))),
            },
            None => None,
        };
        let supervisor = self
            .cell_timeout_ms
            .map(|ms| Supervisor::start(SuperviseConfig::with_timeout_ms(ms)));
        Ok(build(&BuildOptions {
            journal: journal.as_ref().map(|(j, _)| j),
            replay: journal.as_ref().map(|(_, r)| r),
            supervisor: supervisor.as_ref(),
            chaos,
        }))
    }
}

/// Load the full paper corpus from the crash-safe cache, or build it on a
/// miss under the paper's strict single-run protocol (the zoo on the
/// training devices) and cache it. The build checkpoints as asked, so a
/// killed `rank` warm-up can be resumed instead of restarted.
fn corpus(checkpoint: &Checkpoint) -> Result<Corpus, ExitCode> {
    if let Some(c) = corpus_if_cached() {
        return Ok(c);
    }
    eprintln!("building training corpus (32 CNNs x 2 GPUs, ~1 min, cached afterwards)...");
    let cfg = RobustConfig::strict_single_run();
    let models = cnn_ir::zoo::build_all();
    let devices = gpu_sim::training_devices();
    let (c, _report) = checkpoint
        .run(&cfg, ChaosProfile::none(), |opts| {
            build_corpus_robust_with(&models, &devices, &cfg, opts)
        })?
        .map_err(|e| fail(1, format!("corpus build failed: {e}")))?;
    if let Err(e) = store_corpus(&corpus_cache_path(), &c) {
        eprintln!("warning: corpus cache write failed: {e}");
    }
    Ok(c)
}

/// Every command: its name, how many positional arguments it takes at
/// most, its declared flags and its entry point.
type Run = fn(&Args) -> Result<ExitCode, Usage>;
const COMMANDS: &[(&str, usize, Flags, Run)] = &[
    ("list", 0, NO_FLAGS, cmd_list),
    ("analyze", 1, NO_FLAGS, cmd_analyze),
    ("profile", 2, NO_FLAGS, cmd_profile),
    ("predict", 2, PREDICT, cmd_predict),
    ("rank", 1, RANK, cmd_rank),
    ("corpus", 0, CORPUS, cmd_corpus),
    ("estimate", 2, ESTIMATE, cmd_estimate),
    ("serve", 0, SERVE, cmd_serve),
    ("models", 2, MODELS, cmd_models),
    ("scrub", 1, SCRUB, cmd_scrub),
    ("stats-check", 1, NO_FLAGS, cmd_stats_check),
    ("ptx", 1, NO_FLAGS, cmd_ptx),
    ("dot", 1, NO_FLAGS, cmd_dot),
];

fn cmd_list(_: &Args) -> Result<ExitCode, Usage> {
    println!("Table I zoo ({} models):", cnn_ir::zoo::all().len());
    for e in cnn_ir::zoo::all() {
        println!("  {}", e.name);
    }
    println!("\nvariants:");
    for (name, _) in cnn_ir::zoo::variants::all_variants() {
        println!("  {name}");
    }
    println!("\ntransformers:");
    for (name, _) in cnn_ir::zoo::transformer::all_transformers() {
        println!("  {name}");
    }
    println!("\ndevices:");
    for d in gpu_sim::all_devices() {
        println!(
            "  {:14} {:4} SMs, {:5} cores, {:6.0} GB/s, {:5} KB L2, sm_{}{}",
            d.name,
            d.sm_count,
            d.cuda_cores(),
            d.mem_bandwidth_gbs,
            d.l2_cache_kb,
            d.compute_capability.0,
            d.compute_capability.1
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(a: &Args) -> Result<ExitCode, Usage> {
    let model = model(a.arg(0).ok_or_else(usage)?)?;
    // fails under `--count-mode poly` when the strict tier refuses a
    // kernel it cannot compile
    let budget = ExecBudget::default();
    let AnalyzedModel {
        profile,
        plan,
        counts,
        summary,
        ..
    } = match analyze_model(&model, DEFAULT_SM_TARGET, &budget) {
        Ok(a) => a,
        Err(e) => return Ok(fail(1, format!("analysis failed: {e}"))),
    };
    println!("model: {}", profile.name);
    println!(
        "  input:                {}x{}",
        summary.input_size.0, summary.input_size.1
    );
    println!("  graph nodes:          {}", summary.num_nodes);
    println!("  weighted layers:      {}", summary.weighted_layers);
    println!(
        "  trainable params:     {}",
        thousands(summary.trainable_params)
    );
    println!(
        "  non-trainable params: {}",
        thousands(summary.non_trainable_params)
    );
    println!("  neurons:              {}", thousands(summary.neurons));
    println!("  MACs:                 {}", thousands(summary.macs));
    println!("  FLOPs:                {}", thousands(summary.flops));
    println!("  kernel launches:      {}", plan.launches.len());
    println!(
        "  executed PTX instructions: {} (thread-level), {} (warp-level)",
        thousands(counts.thread_instructions),
        thousands(counts.warp_issues)
    );
    println!("  dynamic code analysis time: {:.2}s", profile.dca_seconds);
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(a: &Args) -> Result<ExitCode, Usage> {
    let model = model(a.arg(0).ok_or_else(usage)?)?;
    let dev = device(a.arg(1).ok_or_else(usage)?)?;
    let budget = ExecBudget::default();
    let a = match analyze_model(&model, &dev.sm_target(), &budget) {
        Ok(a) => a,
        Err(e) => return Ok(fail(1, format!("analysis failed: {e}"))),
    };
    let sim = Simulator::new(dev.clone(), SimMode::Detailed)
        .simulate(&a.plan, &a.counts, &budget)
        .expect("simulation");
    let power = estimate_power(&sim, &a.counts, &dev);
    println!("{} on {} (detailed simulation):", sim.model_name, dev.name);
    println!("  cycles:       {:.3e}", sim.cycles);
    println!("  latency:      {:.2} ms", sim.latency_ms);
    println!("  IPC:          {:.3}", sim.ipc);
    println!(
        "  DRAM traffic: {:.1} MB (avg L2 hit {:.0}%)",
        sim.dram_bytes / 1e6,
        sim.l2_hit * 100.0
    );
    println!("  avg power:    {:.1} W", power.avg_power_w);
    println!(
        "  energy:       {:.1} mJ (EDP {:.1} mJ*ms)",
        power.energy_mj, power.edp
    );
    Ok(ExitCode::SUCCESS)
}

const PREDICT: Flags = Flags {
    switches: &["--all-devices"],
    options: &["--regressor"],
};

fn cmd_predict(a: &Args) -> Result<ExitCode, Usage> {
    let model = model(a.arg(0).ok_or_else(usage)?)?;
    let kind = a
        .get("--regressor", "dt|knn|rf|xgb|lr", regressor)?
        .unwrap_or(RegressorKind::DecisionTree);
    let devices = if a.has("--all-devices") {
        gpu_sim::all_devices()
    } else {
        vec![device(a.arg(1).unwrap_or("GTX 1080 Ti"))?]
    };
    let corpus = match corpus(&Checkpoint::default()) {
        Ok(c) => c,
        Err(code) => return Ok(code),
    };
    let predictor = PerformancePredictor::train(&corpus.dataset, kind, 42);
    let profile = match profile_model_cached(&model) {
        Ok(a) => a.profile.clone(),
        Err(e) => return Ok(fail(1, format!("analysis failed: {e}"))),
    };
    println!("predicted IPC for {} ({}):", profile.name, kind.name());
    for dev in devices {
        println!("  {:14} {:.3}", dev.name, predictor.predict(&profile, &dev));
    }
    Ok(ExitCode::SUCCESS)
}

const RANK: Flags = Flags {
    switches: &["--resume"],
    options: &["--journal-dir", "--cell-timeout-ms", "--stats"],
};

fn cmd_rank(a: &Args) -> Result<ExitCode, Usage> {
    let model = model(a.arg(0).ok_or_else(usage)?)?;
    let stats = a.stats("--stats")?;
    let corpus = match corpus(&Checkpoint::from_args(a)?) {
        Ok(c) => c,
        Err(code) => return Ok(code),
    };
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);
    let devices = gpu_sim::all_devices();
    let outcome = rank_devices(&predictor, &model, &devices).expect("dse");
    println!(
        "device ranking for {} (t_dca {:.2}s, t_pm {:.3}ms):",
        outcome.model,
        outcome.t_dca,
        outcome.t_pm * 1e3
    );
    for (i, r) in outcome.ranking.iter().enumerate() {
        println!(
            "  {}. {:14} predicted IPC {:.3}",
            i + 1,
            r.device,
            r.predicted_ipc
        );
    }
    let (entries, capacity) = cnnperf_core::cache_stats();
    println!("analysis cache: {entries}/{capacity} entries");
    emit_stats(stats);
    Ok(ExitCode::SUCCESS)
}

const CORPUS: Flags = Flags {
    switches: &["--strict", "--resume"],
    options: &[
        "--runs",
        "--fault-profile",
        "--models",
        "--devices",
        "--journal-dir",
        "--cell-timeout-ms",
        "--chaos",
        "--out",
        "--stats",
    ],
};

fn cmd_corpus(a: &Args) -> Result<ExitCode, Usage> {
    let defaults = RobustConfig::default();
    let cfg = RobustConfig {
        runs: a.int("--runs", 1)?.unwrap_or(defaults.runs),
        faults: a
            .parsed("--fault-profile", gpu_sim::FaultProfile::parse)?
            .unwrap_or(defaults.faults),
        strict: a.has("--strict"),
        ..defaults
    };
    let stats = a.stats("--stats")?;
    let checkpoint = Checkpoint::from_args(a)?;
    let chaos = a
        .parsed("--chaos", ChaosProfile::parse)?
        .unwrap_or_else(ChaosProfile::none);
    if chaos.hang_rate > 0.0 && checkpoint.cell_timeout_ms.is_none() {
        return Err(Usage(
            "--chaos with hang>0 needs --cell-timeout-ms (an unwatched hang wedges the build)"
                .into(),
        ));
    }
    let models: Vec<cnn_ir::ModelGraph> = match a.value("--models") {
        Some(spec) => split_list(spec).map(model).collect::<Result<_, _>>()?,
        None => cnn_ir::zoo::build_all(),
    };
    let devices: Vec<gpu_sim::DeviceSpec> = match a.value("--devices") {
        Some(spec) => split_list(spec).map(device).collect::<Result<_, _>>()?,
        None => gpu_sim::training_devices(),
    };
    let out = a.value("--out").map(Path::new);

    let built = checkpoint.run(&cfg, chaos, |opts| {
        eprintln!(
            "building corpus ({} CNNs x {} GPUs, {} run(s)/cell, strict={}) ...",
            models.len(),
            devices.len(),
            cfg.runs,
            cfg.strict
        );
        build_corpus_robust_with(&models, &devices, &cfg, opts)
    });
    let code = match built {
        Err(code) => return Ok(code),
        Ok(Ok((corpus, report))) => {
            println!(
                "corpus: {} rows, {} models",
                corpus.dataset.len(),
                corpus.profiles.len()
            );
            println!("report: {}", report.summary());
            for cell in &report.cells {
                match &cell.status {
                    CellStatus::Ok => {}
                    CellStatus::Degraded {
                        transient_retries,
                        hangs,
                        rejected_outliers,
                        failed_runs,
                    } => println!(
                        "  degraded {}@{}: {} retries, {} hangs, {} outliers, {} dead runs ({} kept)",
                        cell.model,
                        cell.device,
                        transient_retries,
                        hangs,
                        rejected_outliers,
                        failed_runs,
                        cell.runs_retained
                    ),
                    CellStatus::Failed { error } => {
                        println!("  FAILED {}@{}: {error}", cell.model, cell.device)
                    }
                    CellStatus::TimedOut { waited_ms } => println!(
                        "  TIMEOUT {}@{}: silent for {waited_ms} ms, cancelled by watchdog",
                        cell.model, cell.device
                    ),
                }
            }
            match out {
                Some(path) => match std::fs::write(path, corpus.canonical_json()) {
                    Ok(()) => {
                        eprintln!("canonical corpus written to {}", path.display());
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(1, format!("cannot write --out {}: {e}", path.display())),
                },
                None => ExitCode::SUCCESS,
            }
        }
        Ok(Err(e)) => {
            let kind = if e.transient() {
                "transient"
            } else {
                "permanent"
            };
            fail(1, format!("corpus build failed ({kind}): {e}"))
        }
    };
    emit_stats(stats);
    Ok(code)
}

const ESTIMATE: Flags = Flags {
    switches: &["--all-devices"],
    options: &[
        "--deadline-ms",
        "--tiers",
        "--chaos",
        "--queue-capacity",
        "--stats",
    ],
};

fn cmd_estimate(a: &Args) -> Result<ExitCode, Usage> {
    let defaults = EngineConfig::default();
    let config = EngineConfig {
        deadline_ms: a.int("--deadline-ms", 1)?.unwrap_or(defaults.deadline_ms),
        tiers: a
            .parsed("--tiers", Tier::parse_ladder)?
            .unwrap_or(defaults.tiers),
        chaos: a
            .parsed("--chaos", ChaosProfile::parse)?
            .unwrap_or(defaults.chaos),
        queue_capacity: a
            .int("--queue-capacity", 1)?
            .unwrap_or(defaults.queue_capacity),
        ..defaults
    };
    let stats = a.stats("--stats")?;
    let all_devices = a.has("--all-devices");
    // --all-devices stands in for the device list
    let (Some(models_spec), Some(devices_spec)) =
        (a.arg(0), a.arg(1).or(all_devices.then_some("")))
    else {
        return Err(Usage(
            "estimate needs <models> and <devices> (or --all-devices)".into(),
        ));
    };
    let models: Vec<String> = split_list(models_spec).map(String::from).collect();
    let devices: Vec<String> = if all_devices {
        gpu_sim::all_devices().into_iter().map(|d| d.name).collect()
    } else {
        split_list(devices_spec).map(String::from).collect()
    };
    let requests: Vec<(String, String)> = models
        .iter()
        .flat_map(|m| devices.iter().map(move |d| (m.clone(), d.clone())))
        .collect();

    let mut engine = ResilientEngine::new(config.clone());
    // a cached corpus arms the regressor and stale-cache tiers; estimation
    // is deadline-bounded, so a cache miss must not trigger a minute-long
    // corpus build here — the tiers simply degrade
    if let Some(corpus) = corpus_if_cached() {
        engine.warm_from_corpus(&corpus);
        engine = engine.with_predictor(PerformancePredictor::train(
            &corpus.dataset,
            RegressorKind::DecisionTree,
            42,
        ));
        eprintln!(
            "corpus cache armed regressor + stale-cache tiers ({} entries)",
            engine.cache_len()
        );
    } else if config.tiers.contains(&Tier::Regressor) || config.tiers.contains(&Tier::StaleCache) {
        eprintln!(
            "no corpus cache: regressor/stale-cache tiers will degrade (run `cnnperf corpus` to arm them)"
        );
    }

    println!(
        "estimating {} request(s), deadline {} ms, tiers [{}]:",
        requests.len(),
        config.deadline_ms,
        config
            .tiers
            .iter()
            .map(|t| t.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let outcomes = engine.estimate_batch(&requests);
    let mut served = 0;
    for out in &outcomes {
        if out.served() {
            served += 1;
        }
        println!("  {} elapsed_ms={:.1}", out.canonical(), out.elapsed_ms);
    }
    println!("served {served}/{} within deadline", outcomes.len());
    emit_stats(stats);
    Ok(if served == outcomes.len() {
        ExitCode::SUCCESS
    } else if outcomes
        .iter()
        .any(|o| matches!(o.kind, OutcomeKind::Overloaded))
    {
        // load shed at admission outranks a mere deadline miss: the
        // caller's remedy (back off / raise capacity) is different
        ExitCode::from(EXIT_OVERLOADED)
    } else {
        ExitCode::from(EXIT_DEADLINE)
    })
}

const SERVE: Flags = Flags {
    switches: &["--no-revalidate"],
    options: &[
        "--socket",
        "--metrics",
        "--workers",
        "--deadlines",
        "--quotas",
        "--max-retries",
        "--retry-backoff-ms",
        "--tiers",
        "--chaos",
        "--max-frame-bytes",
        "--frame-stall-ms",
        "--drain-deadline-ms",
        "--stats-dump",
        "--model-dir",
        "--retrain-interval-s",
        "--shadow-window",
        "--promotion-threshold",
        "--drift-window",
        "--drift-threshold",
    ],
};

fn cmd_serve(a: &Args) -> Result<ExitCode, Usage> {
    use cnnperf_core::{
        ColdStart, LifecycleConfig, LifecycleManager, ModelStore, PredictorSlot, QosPolicy,
        ServeError, Server, ServerConfig,
    };
    use std::sync::Arc;

    let d = ServerConfig::default();
    let triple = "three positive integers: interactive,batch,best-effort";
    let cfg = ServerConfig {
        workers: a.int("--workers", 1)?.unwrap_or(d.workers),
        policy: QosPolicy {
            deadline_ms: a
                .get("--deadlines", &format!("{triple} (ms)"), positive_triple)?
                .unwrap_or(d.policy.deadline_ms),
            queue_quota: a
                .get("--quotas", triple, positive_triple)?
                .unwrap_or(d.policy.queue_quota),
        },
        max_retries: a.int("--max-retries", 0)?.unwrap_or(d.max_retries),
        retry_backoff_ms: a
            .int("--retry-backoff-ms", 0)?
            .unwrap_or(d.retry_backoff_ms),
        revalidate_stale: !a.has("--no-revalidate"),
        engine: EngineConfig {
            tiers: a
                .parsed("--tiers", Tier::parse_ladder)?
                .unwrap_or(d.engine.tiers),
            chaos: a
                .parsed("--chaos", ChaosProfile::parse)?
                .unwrap_or(d.engine.chaos),
            ..d.engine
        },
        max_frame_bytes: a.int("--max-frame-bytes", 64)?.unwrap_or(d.max_frame_bytes),
        frame_stall_ms: a.int("--frame-stall-ms", 1)?.unwrap_or(d.frame_stall_ms),
        drain_deadline_ms: a
            .int("--drain-deadline-ms", 1)?
            .unwrap_or(d.drain_deadline_ms),
        ..d
    };
    let d = LifecycleConfig::default();
    let lc = LifecycleConfig {
        retrain_interval: a
            .int("--retrain-interval-s", 1)?
            .map_or(d.retrain_interval, std::time::Duration::from_secs),
        shadow_window: a.int("--shadow-window", 1)?.unwrap_or(d.shadow_window),
        promotion_threshold: a
            .float("--promotion-threshold", "a non-negative number", |f| {
                f >= 0.0
            })?
            .unwrap_or(d.promotion_threshold),
        drift_window: a.int("--drift-window", 1)?.unwrap_or(d.drift_window),
        drift_threshold: a
            .float("--drift-threshold", "a positive number", |f| f > 0.0)?
            .unwrap_or(d.drift_threshold),
        ..d
    };
    let stats_dump = a.stats("--stats-dump")?;
    let model_dir = a.value("--model-dir").map(Path::new);
    let socket = a.value("--socket").map(Path::new);
    let metrics = a.value("--metrics");
    if metrics.is_some() && socket.is_none() {
        return Err(Usage(
            "--metrics needs --socket (the endpoint is served from the socket accept loop)".into(),
        ));
    }

    // a cached corpus arms every shard's regressor + stale-cache tiers;
    // like `estimate`, a cache miss degrades instead of blocking startup
    // on a minute-long corpus build
    let corpus = corpus_if_cached().map(Arc::new);
    match &corpus {
        Some(c) => eprintln!(
            "serve: corpus cache armed regressor + stale-cache tiers ({} samples)",
            c.samples.len()
        ),
        None => eprintln!(
            "serve: no corpus cache — regressor/stale-cache tiers degrade (run `cnnperf corpus` to arm them)"
        ),
    }

    let server = match model_dir {
        Some(dir) => {
            let store = match ModelStore::open(dir) {
                Ok((store, report)) => {
                    eprintln!(
                        "serve: model store {} ({} valid, {} quarantined, {} temp swept)",
                        dir.display(),
                        report.loaded,
                        report.quarantined,
                        report.tmp_swept
                    );
                    store
                }
                Err(e) => {
                    return Ok(fail(
                        EXIT_MODELSTORE,
                        format!("serve: model store init failed: {e}"),
                    ))
                }
            };
            let base = corpus.as_ref().map(|c| c.dataset.clone());
            let manager = Arc::new(LifecycleManager::new(
                lc,
                Arc::new(PredictorSlot::new()),
                Some(store),
                base,
            ));
            match manager.cold_start() {
                ColdStart::Snapshot {
                    version,
                    generation,
                } => eprintln!(
                    "serve: lifecycle cold-start from snapshot v{version} (generation {generation})"
                ),
                ColdStart::Trained {
                    generation,
                    version,
                } => eprintln!(
                    "serve: lifecycle cold-start trained from corpus (generation {generation}{})",
                    match version {
                        Some(v) => format!(", snapshotted as v{v}"),
                        None => String::new(),
                    }
                ),
                ColdStart::Empty => eprintln!(
                    "serve: lifecycle cold-start empty — no snapshot, no corpus cache; the \
                     regressor tier stays dark until ground truth accrues"
                ),
            }
            Server::with_lifecycle(cfg, corpus, manager)
        }
        None => {
            let predictor = corpus.as_ref().map(|c| {
                Arc::new(PerformancePredictor::train(
                    &c.dataset,
                    RegressorKind::DecisionTree,
                    42,
                ))
            });
            Server::new(cfg, predictor, corpus)
        }
    };
    let result = match socket {
        Some(path) => {
            eprintln!(
                "serve: listening on {} ({} workers){}",
                path.display(),
                server.config().workers,
                match metrics {
                    Some(a) => format!(", metrics on http://{a}/metrics"),
                    None => String::new(),
                }
            );
            server.run_unix(path, metrics)
        }
        None => {
            eprintln!(
                "serve: NDJSON on stdin/stdout ({} workers), EOF drains",
                server.config().workers
            );
            server.run_stdio()
        }
    };
    let code = match result {
        Ok(report) => {
            eprintln!(
                "serve: drained in {:.1} ms ({} flushed{})",
                report.elapsed.as_secs_f64() * 1e3,
                report.flushed,
                if report.forced {
                    ", deadline forced"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e @ ServeError::Bind { .. }) => fail(EXIT_BIND, format!("serve: {e}")),
    };
    emit_stats(stats_dump);
    Ok(code)
}

const MODELS: Flags = Flags {
    switches: &[],
    options: &["--model-dir"],
};

/// Inspect and steer the snapshot model store (`cnnperf models ...`).
/// Every action opens the store first, so orphaned temp files are swept
/// and corrupt snapshots quarantined as a side effect of any invocation.
fn cmd_models(a: &Args) -> Result<ExitCode, Usage> {
    use cnnperf_core::ModelStore;

    let action = a.arg(0).unwrap_or_default();
    // inspect and pin take a version; the other actions take nothing
    let version = match (action, a.arg(1).map(str::parse::<u64>)) {
        ("inspect" | "pin", Some(Ok(v))) => Ok(Some(v)),
        ("list" | "unpin" | "rollback", None) => Ok(None),
        ("inspect" | "pin", _) => Err(format!("models {action} needs a version number")),
        ("list" | "unpin" | "rollback", Some(_)) => {
            Err(format!("models {action} takes no version"))
        }
        _ => Err(format!(
            "models needs an action: list | inspect V | pin V | unpin | rollback (got `{}`)",
            a.positional.join(" ")
        )),
    }
    .map_err(Usage)?;
    let Some(dir) = a.value("--model-dir").map(Path::new) else {
        return Err(Usage("models needs --model-dir DIR".into()));
    };

    let (mut store, report) = match ModelStore::open(dir) {
        Ok(ok) => ok,
        Err(e) => {
            return Ok(fail(
                EXIT_MODELSTORE,
                format!("models: store init failed: {e}"),
            ))
        }
    };
    Ok(match (action, version) {
        ("inspect", Some(v)) => match store.load_version(v) {
            Ok((info, predictor)) => {
                println!("version:    v{:06}", info.meta.version);
                println!("path:       {}", info.path.display());
                println!("kind:       {}", info.meta.kind);
                println!("train rows: {}", info.meta.train_rows);
                println!("note:       {}", info.meta.note);
                println!("checksum:   {:016x}", info.checksum);
                println!("features:   {}", predictor.feature_names.len());
                println!(
                    "pinned:     {}",
                    if store.pinned() == Some(v) {
                        "yes"
                    } else {
                        "no"
                    }
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(EXIT_MODELSTORE, format!("models: {e}")),
        },
        ("pin", Some(v)) => match store.pin(v) {
            Ok(()) => {
                println!("pinned v{v} — cold starts serve it until unpin/rollback");
                ExitCode::SUCCESS
            }
            Err(e) => fail(EXIT_MODELSTORE, format!("models: {e}")),
        },
        ("unpin", _) => {
            store.unpin();
            println!("unpinned — cold starts return to the newest valid snapshot");
            ExitCode::SUCCESS
        }
        ("rollback", _) => match store.demote_latest() {
            Ok((demoted, now_newest)) => {
                match now_newest {
                    Some(v) => println!("demoted v{demoted}; newest valid is now v{v}"),
                    None => println!("demoted v{demoted}; store is now empty"),
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(EXIT_MODELSTORE, format!("models: {e}")),
        },
        ("list", _) => {
            println!(
                "model store {} — {} valid snapshot(s), {} quarantined, {} temp swept",
                dir.display(),
                report.loaded,
                report.quarantined,
                report.tmp_swept
            );
            let pinned = store.pinned();
            for info in store.list() {
                println!(
                    "  v{:06}  {:<4}  {:>5} rows  checksum {:016x}  {}{}",
                    info.meta.version,
                    info.meta.kind,
                    info.meta.train_rows,
                    info.checksum,
                    info.meta.note,
                    if pinned == Some(info.meta.version) {
                        "  [pinned]"
                    } else {
                        ""
                    }
                );
            }
            if store.list().is_empty() {
                println!("  (empty)");
            }
            ExitCode::SUCCESS
        }
        _ => unreachable!("actions are validated before the store opens"),
    })
}

const SCRUB: Flags = Flags {
    switches: &["--dry-run"],
    options: &["--stats"],
};

/// `cnnperf scrub <dir>` — audit and repair a persisted state directory.
/// Exit 0 when the directory is clean or every repair succeeded;
/// [`EXIT_SCRUB`] when damage remains (dry run or failed repair).
fn cmd_scrub(a: &Args) -> Result<ExitCode, Usage> {
    let Some(dir) = a.arg(0) else {
        return Err(Usage("scrub needs a directory to audit".into()));
    };
    let apply = !a.has("--dry-run");
    let stats = a.stats("--stats")?;
    let report = match cnnperf_core::scrub_path(Path::new(dir), ScrubOptions { apply }) {
        Ok(r) => r,
        Err(e) => return Ok(fail(1, format!("scrub: cannot audit {dir}: {e}"))),
    };
    println!(
        "scrub {dir}: {} file(s) in {} dir(s), {} finding(s), {} repaired, {} unrepaired{}",
        report.files_checked,
        report.dirs_visited,
        report.findings.len(),
        report.repaired(),
        report.unrepaired(),
        if apply { "" } else { " (dry run)" },
    );
    for f in &report.findings {
        println!(
            "  [{}] {} — {} ({:?})",
            f.kind.label(),
            f.path.display(),
            f.detail,
            f.repair
        );
    }
    emit_stats(stats);
    Ok(if report.unrepaired() > 0 {
        ExitCode::from(EXIT_SCRUB)
    } else {
        ExitCode::SUCCESS
    })
}

/// Parse a non-negative integer out of a snapshot `Value`.
fn stat_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// The counter invariants the instrumentation promises, one rule a line:
/// `sum == sum` or `sum <= sum`, each sum a ` + `-separated list of
/// counter names or integers (an absent counter counts as 0). A rule
/// written `guard: rule` is checked only when the guard counter is in the
/// snapshot.
const INVARIANTS: &[&str] = &[
    "engine.requests: engine.outcome.served + engine.outcome.exhausted + engine.outcome.overloaded == engine.requests",
    "engine.cache.lookups: engine.cache.hits + engine.cache.misses == engine.cache.lookups",
    "analysis.cache.lookups: analysis.cache.hits + analysis.cache.misses == analysis.cache.lookups",
    // eviction can never outpace insertion
    "analysis.cache.lookups: analysis.cache.evictions <= analysis.cache.misses",
    // poly counting tier: every compile attempt either produced a
    // polynomial or fell back to the interpreter
    "ptx.poly.attempts: ptx.poly.compiled + ptx.poly.fallbacks == ptx.poly.attempts",
    // an evaluation-time fallback is a subset of evaluations
    "ptx.poly.attempts: ptx.poly.eval_fallbacks <= ptx.poly.evals",
    // every shipped kernel template compiles on the poly tier since the
    // tid-sloped strided-loop and gemm_micro guard fixes, so a
    // compile-time fallback in a template-driven run is a regression
    "ptx.poly.attempts: ptx.poly.fallbacks == 0",
    // a journaling build appends at least one record per computed cell
    "journal.appends: journal.computed <= journal.appends",
    // the store validates exclusively inside scan(), so every scanned
    // snapshot is either loaded or quarantined
    "modelstore.snapshots.scanned: modelstore.snapshots.loaded + modelstore.snapshots.quarantined == modelstore.snapshots.scanned",
    // every retrain that reaches the shadow gate is promoted or
    // rejected, never both; cycles skipped for lack of data or lost
    // races don't reach the gate, so the sum is bounded by retrains
    "lifecycle.retrains: lifecycle.promotions + lifecycle.rejections <= lifecycle.retrains",
    // a shadow evaluation precedes every gate decision
    "lifecycle.retrains: lifecycle.promotions + lifecycle.rejections <= lifecycle.shadow.evals",
    // a rollback only ever follows a drift trip
    "lifecycle.rollbacks <= lifecycle.drift.trips",
    // every promotion with a store attached writes a snapshot (and
    // cold-start training writes one too)
    "modelstore.snapshots.written: lifecycle.promotions <= modelstore.snapshots.written",
    // vfs fault injection can only tag operations that actually ran
    "vfs.injected <= vfs.ops",
    // sync calls are themselves vfs operations
    "vfs.sync_file + vfs.sync_dir <= vfs.ops",
    // scrub never repairs more than it found
    "scrub.repaired <= scrub.findings",
    // the watchdog only fires tokens of cells it first declared stale
    "supervise.cancelled <= supervise.stale_cells",
    // server admission: every request is admitted, shed, or rejected
    // while draining — same determinism contract as the engine.* counters
    "server.requests: server.admitted + server.shed + server.rejected.draining == server.requests",
    "server.requests: server.shed.interactive + server.shed.batch + server.shed.best-effort == server.shed",
    // a coalesced request is by definition an admitted one
    "server.requests: server.coalesced <= server.admitted",
    // every admitted request resolves at most once: computed or
    // drain-flushed, never both
    "server.requests: server.completed + server.drain.flushed <= server.admitted",
    // drain-phase resolutions are a subset of all resolutions
    "server.requests: server.drained <= server.completed + server.drain.flushed",
];

/// A ` + `-separated sum of counter names and integers.
fn sum_of(terms: &str, counter: &impl Fn(&str) -> Option<u64>) -> u64 {
    terms
        .split(" + ")
        .map(|t| t.parse().unwrap_or_else(|_| counter(t).unwrap_or(0)))
        .sum()
}

/// Evaluate one [`INVARIANTS`] rule: `None` when its guard is absent,
/// else whether it holds, and both sides.
fn eval_rule(rule: &str, counter: &impl Fn(&str) -> Option<u64>) -> Option<(bool, u64, u64)> {
    let rule = match rule.split_once(": ") {
        Some((guard, rule)) => counter(guard).map(|_| rule)?,
        None => rule,
    };
    let sum = |side| sum_of(side, counter);
    Some(match rule.split_once(" <= ") {
        Some((lhs, rhs)) => (sum(lhs) <= sum(rhs), sum(lhs), sum(rhs)),
        None => {
            let (lhs, rhs) = rule.split_once(" == ").expect("rule is `==` or `<=`");
            (sum(lhs) == sum(rhs), sum(lhs), sum(rhs))
        }
    })
}

/// Read the last JSON line of `file` as a schema-1 metrics snapshot.
fn load_snapshot(file: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let line = (text.lines().rev())
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| format!("no JSON line found in {file}"))?;
    let snap = serde_json::parse(line.trim())
        .map_err(|e| format!("snapshot line is not valid JSON: {e}"))?;
    match snap.get("schema").and_then(stat_u64) {
        Some(1) => Ok(snap),
        other => Err(format!("bad schema version {other:?} (want 1)")),
    }
}

/// Validate a `--stats json` snapshot: find the last JSON line of `file`,
/// check the schema version and overall shape, and enforce the counter
/// [`INVARIANTS`] the instrumentation promises. Exits non-zero with a
/// reason on any violation, so CI can gate on it.
fn cmd_stats_check(a: &Args) -> Result<ExitCode, Usage> {
    let file = a.arg(0).ok_or_else(usage)?;
    let snap = match load_snapshot(file) {
        Ok(snap) => snap,
        Err(e) => return Ok(fail(1, format!("stats-check: {e}"))),
    };
    let (Some(serde_json::Value::Obj(counters)), Some(serde_json::Value::Obj(histograms))) =
        (snap.get("counters"), snap.get("histograms"))
    else {
        return Ok(fail(
            1,
            "stats-check: `counters` or `histograms` object missing",
        ));
    };
    let counter = |name: &str| -> Option<u64> {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| stat_u64(v))
    };
    let mut failures = 0u32;
    let mut check = |rule: &str| {
        if let Some((false, lhs, rhs)) = eval_rule(rule, &counter) {
            eprintln!("stats-check: invariant violated: {rule} ({lhs} vs {rhs})");
            failures += 1;
        }
    };
    INVARIANTS.iter().for_each(|rule| check(rule));
    // every corpus cell is either replayed from the journal or computed;
    // the split must account for all of them
    let cells =
        "corpus.cells.ok + corpus.cells.degraded + corpus.cells.failed + corpus.cells.timeout";
    let journaled = counter("journal.replayed").is_some() || counter("journal.computed").is_some();
    if journaled && sum_of(cells, &counter) > 0 {
        check(&format!("journal.replayed + journal.computed == {cells}"));
    }
    // a compiled kernel is always evaluated at least once (compilation
    // only happens on the counting path), so warm poly traffic shows up
    if counter("ptx.poly.attempts").is_some()
        && counter("ptx.poly.compiled").unwrap_or(0) > 0
        && counter("ptx.poly.evals").unwrap_or(0) == 0
    {
        eprintln!("stats-check: invariant violated: ptx.poly.compiled > 0 but evals == 0");
        failures += 1;
    }
    for (name, v) in histograms {
        let buckets = match v.get("buckets") {
            Some(serde_json::Value::Obj(b)) => {
                Some(b.iter().filter_map(|(_, c)| stat_u64(c)).sum::<u64>())
            }
            _ => None,
        };
        let count = v.get("count").and_then(stat_u64);
        match (count, v.get("sum").and_then(stat_u64), buckets) {
            (Some(count), Some(_), Some(total)) if total == count => continue,
            (Some(count), Some(_), Some(total)) => eprintln!(
                "stats-check: invariant violated: histogram `{name}` bucket sum == count: \
                 {total} != {count}"
            ),
            _ => eprintln!("stats-check: histogram `{name}` missing count, sum or buckets"),
        }
        failures += 1;
    }
    if failures > 0 {
        return Ok(fail(
            1,
            format!("stats-check: {failures} failure(s) in {file}"),
        ));
    }
    println!(
        "stats OK: {} counters, {} histograms",
        counters.len(),
        histograms.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_ptx(a: &Args) -> Result<ExitCode, Usage> {
    let model = model(a.arg(0).ok_or_else(usage)?)?;
    let plan = ptx_codegen::lower(&model, DEFAULT_SM_TARGET).expect("lowering");
    print!("{}", ptx::printer::module(&plan.module));
    Ok(ExitCode::SUCCESS)
}

fn cmd_dot(a: &Args) -> Result<ExitCode, Usage> {
    print!("{}", cnn_ir::to_dot(&model(a.arg(0).ok_or_else(usage)?)?));
    Ok(ExitCode::SUCCESS)
}

/// Find the command (the first argument not consumed by a global
/// option), parse the rest against its flags, install the global
/// `--count-mode` process-wide — so every counting entry point inherits it
/// without plumbing — and run it.
fn run(args: &[&str]) -> Result<ExitCode, Usage> {
    let mut at = 0;
    while args.get(at).is_some_and(|a| GLOBAL_OPTIONS.contains(a)) {
        at += 2;
    }
    let Some((_, positionals, flags, run)) = args
        .get(at)
        .and_then(|cmd| COMMANDS.iter().find(|(name, ..)| name == cmd))
    else {
        return Err(usage());
    };
    let rest: Vec<&str> = args[..at].iter().chain(&args[at + 1..]).copied().collect();
    let parsed = Args::parse(args[at], *positionals, flags, &rest)?;
    if let Some(mode) = parsed.parsed("--count-mode", |v| v.parse::<ptx_analysis::CountMode>())? {
        ptx_analysis::set_default_count_mode(mode);
    }
    run(&parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&args).unwrap_or_else(|Usage(msg)| fail(EXIT_USAGE, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_flag_is_in_usage() {
        for (name, _, flags, _) in COMMANDS {
            assert!(USAGE.contains(&format!("  {name} ")), "{name} not in usage");
            for flag in flags
                .switches
                .iter()
                .chain(flags.options)
                .chain(GLOBAL_OPTIONS)
            {
                assert!(USAGE.contains(flag), "{name} {flag} not in usage");
            }
        }
    }
}
