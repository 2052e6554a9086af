//! The measured flow every workload runs: corpus build and journal
//! replay, Decision Tree training, device ranking, tiered estimates and
//! the serve stack. A workload chooses the inputs and the size of each
//! phase ([`Plan`]); every run therefore reports every end-to-end metric.

use crate::plan::{cell_order, KeySkew, Qos, Req, Rng};
use crate::report::Run;
use crate::serve::{self, Reply, ServerProc, Step};
use crate::stats::Dist;
use crate::trace;
use cnn_ir::ModelGraph;
use cnnperf_core::{
    analyze_cached, build_corpus_robust_with, clear_analysis_cache, rank_devices, store_corpus,
    BuildMeta, BuildOptions, Corpus, EngineConfig, Journal, OutcomeKind, PerformancePredictor,
    ResilientEngine, RobustConfig, Tier, DEFAULT_SM_TARGET, JOURNAL_SCHEMA,
};
use gpu_sim::{DeviceSpec, SimMode, Simulator};
use mlkit::RegressorKind;
use ptx_analysis::ExecBudget;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCorpus,
    DseSweep,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper-corpus" => Some(Workload::PaperCorpus),
            "dse-sweep" => Some(Workload::DseSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCorpus => "paper-corpus",
            Workload::DseSweep => "dse-sweep",
        }
    }
}

/// Estimate models of the paper-corpus workload, which does not centre
/// on estimates: three cheap CNNs and three transformer encoders, two
/// passes. A model's first request per sm target is cold (5 of its 18), so
/// the p90 falls inside the cold requests; with three models and four
/// passes it fell on the edge between cold and warm ones, and moved by
/// 0.2 IQR/median from run to run.
const LIGHT_ESTIMATE: [&str; 6] = [
    "mobilenet",
    "MobileNetV2",
    "Xception",
    "bert-micro",
    "vit-micro",
    "gpt-micro",
];
/// The dse-sweep models: ten Table I CNNs spanning 45-230 ms per
/// detailed estimate (GTX 1080 Ti cell, 2-core x86 host) and two
/// transformer encoders. Fixed: a seeded draw from the zoo moved the
/// sweep's medians and the analytical MAPE by more than their bounds
/// from seed to seed. The seed orders the 108 cells.
const DSE_MODELS: [&str; 12] = [
    "mobilenet",
    "MobileNetV2",
    "Xception",
    "alexnet",
    "efficientnetb0",
    "resnet50",
    "efficientnetb2",
    "vgg16",
    "densenet121",
    "inceptionv3",
    "vit-micro",
    "bert-micro",
];
/// The serve keys of every workload (x 9 devices) and the dse-sweep
/// corpus: eight Table I CNNs spread over the zoo's size range. Fixed, so the regressor MAPE, the server's capacity
/// and its memory compare across runs; the seed draws the key skew and
/// the schedule.
const SERVE_MODELS: [&str; 8] = [
    "alexnet",
    "mobilenet",
    "MobileNetV2",
    "Xception",
    "efficientnetb0",
    "resnet50",
    "vgg16",
    "densenet121",
];

/// What one workload runs; its seed orders the estimates and draws the
/// serve schedule.
#[derive(Debug, Clone)]
pub struct Plan {
    pub corpus_models: Vec<String>,
    /// Time spent replaying the journal, and again ranking, over all
    /// rounds.
    pub window_s: f64,
    pub estimate_models: Vec<String>,
    /// Passes over estimate models x devices; the first one is cold.
    pub estimate_passes: usize,
    /// Cold corpus builds (median reported).
    pub corpus_builds: usize,
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

impl Plan {
    pub fn new(workload: Workload, seconds: f64) -> Plan {
        let window_s = 0.1 * seconds;
        match workload {
            Workload::PaperCorpus => Plan {
                corpus_models: cnn_ir::zoo::all()
                    .iter()
                    .map(|e| e.name.to_string())
                    .collect(),
                window_s,
                estimate_models: names(&LIGHT_ESTIMATE),
                estimate_passes: 2,
                corpus_builds: 1,
            },
            Workload::DseSweep => Plan {
                corpus_models: names(&SERVE_MODELS),
                window_s,
                estimate_models: names(&DSE_MODELS),
                estimate_passes: 1,
                corpus_builds: 3,
            },
        }
    }
}

/// Serve set-ups per run (median reported).
const SETUPS: usize = 5;
/// Rounds the estimates, replays, rankings and serve traffic are spread
/// over, so one noisy stretch on the host does not set their medians.
const ROUNDS: usize = 3;
/// Saturated serve windows per round: the closed-loop generator keeps
/// [`SAT_OUTSTANDING`] requests in flight on each of its two connections.
/// Each window reports its throughput (`serve_max_rps`) and per-class
/// latencies, and the run reports the median over all windows. With a
/// deep queue both cores stay busy and every wake-up finds work, so the
/// figures follow the host's speed like the in-process timings do. At
/// light load they are set by how fast an idle vCPU wakes, which moved
/// them by 0.2-1.6 IQR/median from run to run on a 2-vCPU host as its CPU
/// steal came and went; 8 requests per connection still moved the
/// throughput by 0.14, 32 by 0.05. About half of the saturated requests
/// coalesce (`core.server.coalesced_ratio`).
const SAT_WINDOWS: usize = 5;
const SAT_WINDOW_REQUESTS: usize = 4000;
const SAT_OUTSTANDING: usize = 32;
/// Light-load serve traffic, traced run only: open-loop windows per
/// round at `REF_RATE` requests/s, a third of the rate (~4 500/s on a
/// 2-core x86 host) past which the two workers fall behind and
/// coalescing carries the load; ~2 % of its requests coalesce.
const REF_WINDOWS: usize = 2;
const REF_RATE: f64 = 1500.0;
/// Requests per open-loop window: 500 interactive ones, enough for a p90
/// under the tail rule.
const REF_WINDOW_REQUESTS: usize = 1000;

/// Values the traced run derives per-layer metrics from.
#[derive(Debug, Default)]
pub struct Stash {
    pub corpus_cells: usize,
    pub corpus_build_s: f64,
    pub cell_busy_us: u64,
    pub journal_deltas: BTreeMap<String, u64>,
    pub analysis_hits: u64,
    pub analysis_misses: u64,
    /// Server counter deltas over all serve traffic, and over the
    /// saturated windows alone.
    pub server_deltas: BTreeMap<String, u64>,
    pub saturated_deltas: BTreeMap<String, u64>,
    pub late_ms: Vec<f64>,
    /// (model, device, class, due µs) of the first light-load window.
    pub ref_schedule: Vec<(String, String, Qos, u64)>,
}

pub struct Ctx {
    pub seed: u64,
    pub plan: Plan,
    pub dir: PathBuf,
    pub server_bin: PathBuf,
    pub run: Run,
    pub stash: Stash,
    /// Set when the flow was run with tracing on: the exhaustive output
    /// checks and the light-load serve windows run there.
    pub traced: bool,
}

fn snapshot() -> obs::Snapshot {
    obs::global().snapshot()
}

/// Check the counter invariants that must hold on any delta.
pub fn check_invariants(run: &mut Run, before: &obs::Snapshot, after: &obs::Snapshot, phase: &str) {
    let d = |n: &str| after.counter_delta(before, n);
    let rules = [
        (
            "analysis.cache.hits + misses == lookups",
            d("analysis.cache.hits") + d("analysis.cache.misses"),
            d("analysis.cache.lookups"),
        ),
        (
            "ptx.poly.attempts == compiled + fallbacks",
            d("ptx.poly.attempts"),
            d("ptx.poly.compiled") + d("ptx.poly.fallbacks"),
        ),
        (
            "engine.requests == served + exhausted + overloaded",
            d("engine.requests"),
            d("engine.outcome.served")
                + d("engine.outcome.exhausted")
                + d("engine.outcome.overloaded"),
        ),
        (
            "engine.cache.hits + misses == lookups",
            d("engine.cache.hits") + d("engine.cache.misses"),
            d("engine.cache.lookups"),
        ),
    ];
    for (rule, lhs, rhs) in rules {
        run.op(lhs == rhs, || {
            format!("{phase}: invariant {rule} broke ({lhs} != {rhs})")
        });
    }
}

pub(crate) fn build_meta(cfg: &RobustConfig) -> BuildMeta {
    BuildMeta {
        schema: JOURNAL_SCHEMA,
        sm_target: DEFAULT_SM_TARGET.to_string(),
        runs: cfg.runs,
        retry: cfg.retry.clone(),
        faults: cfg.faults.clone(),
        strict: cfg.strict,
    }
}

pub fn graphs(names: &[String]) -> Result<Vec<ModelGraph>, String> {
    names
        .iter()
        .map(|n| cnn_ir::zoo::build_any(n).ok_or_else(|| format!("unknown model {n}")))
        .collect()
}

/// Run the whole flow; returns the corpus it built.
pub fn run_flow(ctx: &mut Ctx) -> Result<Corpus, String> {
    let t0 = Instant::now();
    let before = snapshot();
    let corpus_graphs = graphs(&ctx.plan.corpus_models)?;
    let built = corpus_phase(ctx, &corpus_graphs)?;
    let predictor = train_phase(ctx, &built.corpus);
    // peak RSS of this process's own work (corpus build, estimates,
    // replays, rankings): read before and reset after each stretch of
    // serve traffic, which the load generator in this process sends
    let mut peak_mb = Some(0.0_f64);
    let mut read_peak = || {
        peak_mb = peak_mb
            .zip(serve::peak_rss_mb("/proc/self/status"))
            .map(|(a, b)| a.max(b));
    };
    read_peak();
    let t1 = Instant::now();
    let mut serving = Serving::start(ctx, &built.corpus)?;
    serve::reset_peak_rss()?;
    let t2 = Instant::now();
    let mut windows = Windows::default();
    let mut estimates = Estimates::new(ctx);
    for round in 0..ROUNDS {
        estimates.round(ctx, round)?;
        window(ctx, &built, &corpus_graphs, &predictor, &mut windows)?;
        read_peak();
        serving.round(ctx)?;
        serve::reset_peak_rss()?;
    }
    estimates.finish(ctx);
    record_rss(ctx, peak_mb);
    let after_in_process = snapshot();
    ctx.stash.analysis_hits = after_in_process.counter_delta(&before, "analysis.cache.hits");
    ctx.stash.analysis_misses = after_in_process.counter_delta(&before, "analysis.cache.misses");
    check_invariants(&mut ctx.run, &before, &after_in_process, "flow");
    serving.finish(ctx)?;
    let after = snapshot();
    for name in ["journal.appends", "journal.replayed", "journal.computed"] {
        ctx.stash
            .journal_deltas
            .insert(name.into(), after.counter_delta(&before, name));
    }
    ctx.run
        .timing("corpus_replay_ms", "ms", &Dist::new(windows.replay_ms), &[]);
    ctx.run
        .timing("rank_ms", "ms", &Dist::new(windows.rank_ms), &[]);
    eprintln!(
        "phases: corpus and training {:.1} s, serve set-up {:.1} s, rounds {:.1} s",
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        t2.elapsed().as_secs_f64(),
    );
    Ok(built.corpus)
}

/// A finished, journaled corpus build and what its replays must match.
struct Built {
    corpus: Corpus,
    canonical: String,
    summary: String,
    jdir: PathBuf,
    meta: BuildMeta,
    cfg: RobustConfig,
    cells: usize,
}

/// [`Plan::corpus_builds`] cold journaled builds (median reported), each
/// into a fresh journal; the last one's journal is replayed afterwards.
fn corpus_phase(ctx: &mut Ctx, models: &[ModelGraph]) -> Result<Built, String> {
    let devices = gpu_sim::training_devices();
    let cfg = RobustConfig::default();
    let meta = build_meta(&cfg);
    let jdir = ctx.dir.join("journal");
    let cells = models.len() * devices.len();
    let mut build_s = Vec::new();
    let mut first: Option<String> = None;
    let mut last = None;
    for _ in 0..ctx.plan.corpus_builds {
        let _ = std::fs::remove_dir_all(&jdir);
        clear_analysis_cache();
        let before = snapshot();
        let t0 = Instant::now();
        let (corpus, report) = {
            let _g = trace::span("core.pipeline.build_corpus", 0);
            let (journal, _) = {
                let _g = trace::span("core.journal.open_fresh", 0);
                Journal::open(&jdir, &meta, false).map_err(|e| format!("journal open: {e}"))?
            };
            let opts = BuildOptions {
                journal: Some(&journal),
                ..BuildOptions::none()
            };
            build_corpus_robust_with(models, &devices, &cfg, &opts)
                .map_err(|e| format!("corpus build: {e}"))?
        };
        let secs = t0.elapsed().as_secs_f64();
        let after = snapshot();
        eprintln!("corpus: {} ({secs:.2} s)", report.summary());
        // degraded cells kept a measurement after rejecting an outlier run;
        // only failed or timed-out cells lose their row
        ctx.run.op(
            report.cells.len() == cells
                && report.failed_count() == 0
                && report.timed_out_count() == 0
                && corpus.samples.len() == cells,
            || format!("corpus build: {} of {cells} cells", report.summary()),
        );
        let computed = after.counter_delta(&before, "journal.computed");
        ctx.run.op(computed == cells as u64, || {
            format!("corpus build computed {computed} cells, want {cells}")
        });
        check_invariants(&mut ctx.run, &before, &after, "corpus build");
        let canonical = corpus.canonical_json();
        let first = first.get_or_insert_with(|| canonical.clone());
        ctx.run.op(*first == canonical, || {
            "a repeated cold build gave another corpus".into()
        });
        let busy = |s: &obs::Snapshot| s.histograms.get("profile.cell_us").map_or(0, |h| h.sum);
        ctx.stash.corpus_build_s = secs;
        ctx.stash.cell_busy_us = busy(&after).saturating_sub(busy(&before));
        ctx.stash.corpus_cells = cells;
        build_s.push(secs);
        last = Some(Built {
            canonical,
            summary: report.summary(),
            corpus,
            jdir: jdir.clone(),
            meta: meta.clone(),
            cfg: cfg.clone(),
            cells,
        });
    }
    ctx.run.median("corpus_build_s", "s", &Dist::new(build_s));
    last.ok_or_else(|| "no corpus build".into())
}

fn train_phase(ctx: &mut Ctx, corpus: &Corpus) -> PerformancePredictor {
    let (train, test) = corpus.dataset.split(0.7, 42);
    let predictor = {
        let _g = trace::span("mlkit.train", 0);
        PerformancePredictor::train(&train, RegressorKind::DecisionTree, 42)
    };
    let scores = predictor.evaluate(&test);
    ctx.run.op(
        scores.mape.is_finite() && scores.mape > 0.0 && scores.mape_rows_used > 0,
        || {
            format!(
                "regressor MAPE is {} over {} rows",
                scores.mape, scores.mape_rows_used
            )
        },
    );
    eprintln!(
        "regressor: DT on {} train / {} test rows, MAPE {:.3} %",
        train.len(),
        test.len(),
        scores.mape
    );
    ctx.run.metric(
        "regressor_mape_pct",
        scores.mape,
        "%",
        scores.mape_rows_used,
    );
    predictor
}

#[derive(Default)]
struct Windows {
    replay_ms: Vec<f64>,
    rank_ms: Vec<f64>,
    rank_checked: bool,
}

/// One sampling window: replay the finished journal (resume, then a build
/// that must recompute nothing and reproduce the corpus exactly), then
/// rank every corpus model over all devices on a warm analysis cache.
fn window(
    ctx: &mut Ctx,
    built: &Built,
    models: &[ModelGraph],
    predictor: &PerformancePredictor,
    w: &mut Windows,
) -> Result<(), String> {
    let devices = gpu_sim::training_devices();
    let until = Instant::now() + Duration::from_secs_f64(ctx.plan.window_s / ROUNDS as f64);
    let mut reps = 0;
    while reps < 2 || Instant::now() < until {
        reps += 1;
        let b = snapshot();
        let t = Instant::now();
        let replayed = {
            let _g = trace::span("core.pipeline.replay_build", 0);
            let (journal, replay) = {
                let _g = trace::span("core.journal.open_resume", 0);
                Journal::open(&built.jdir, &built.meta, true)
                    .map_err(|e| format!("journal resume: {e}"))?
            };
            let opts = BuildOptions {
                journal: Some(&journal),
                replay: Some(&replay),
                ..BuildOptions::none()
            };
            build_corpus_robust_with(models, &devices, &built.cfg, &opts)
        };
        w.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let a = snapshot();
        let ok = match &replayed {
            Ok((c, r)) => {
                c.canonical_json() == built.canonical
                    && r.summary() == built.summary
                    && a.counter_delta(&b, "journal.computed") == 0
                    && a.counter_delta(&b, "journal.replayed") == built.cells as u64
            }
            Err(_) => false,
        };
        ctx.run.op(ok, || match &replayed {
            Ok(_) => "journal replay differs from the built corpus or recomputed cells".into(),
            Err(e) => format!("journal replay failed: {e}"),
        });
    }

    let devices = gpu_sim::all_devices();
    for g in models {
        // the estimate phase may have evicted the corpus analyses: warm
        cnnperf_core::profile_model_cached(g).map_err(|e| e.to_string())?;
    }
    let until = Instant::now() + Duration::from_secs_f64(ctx.plan.window_s / ROUNDS as f64);
    let mut pass = 0;
    while pass < 1 || Instant::now() < until {
        pass += 1;
        for g in models {
            let t = Instant::now();
            let out = {
                let _g = trace::span("core.dse.rank_devices", 0);
                rank_devices(predictor, g, &devices)
            };
            w.rank_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if w.rank_checked {
                continue;
            }
            // first pass: the ranking must be the predictor's, sorted
            let ok = match (&out, cnnperf_core::peek_cached(g, DEFAULT_SM_TARGET)) {
                (Ok(o), Some(a)) => {
                    o.ranking.len() == devices.len()
                        && o.ranking
                            .windows(2)
                            .all(|w| w[0].predicted_ipc >= w[1].predicted_ipc)
                        && o.ranking.iter().all(|r| {
                            let dev = gpu_sim::device_by_name(&r.device).expect("ranked device");
                            predictor.predict(&a.profile, &dev).to_bits()
                                == r.predicted_ipc.to_bits()
                        })
                }
                _ => false,
            };
            ctx.run.op(ok, || {
                format!("rank_devices({}) is wrong or failed", g.name())
            });
        }
        w.rank_checked = true;
    }
    Ok(())
}

/// FNV-1a over the bytes of every (model, device, tier, IPC bits) cell.
fn digest(cells: &BTreeMap<(String, String, &'static str), (u64, u64)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ((m, d, t), (ipc, _)) in cells {
        for b in m
            .bytes()
            .chain([0])
            .chain(d.bytes())
            .chain([0])
            .chain(t.bytes())
            .chain(ipc.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Tiered estimates through `ResilientEngine`, one slice of the models
/// per round. Each round starts from an empty analysis cache, so every
/// model's first request per target is cold, as in one sweep from an
/// empty cache, while the slices spread the estimates over the run.
struct Estimates {
    groups: Vec<Vec<String>>,
    devices: Vec<String>,
    results: BTreeMap<(String, String, &'static str), (u64, u64)>,
    /// Per-request milliseconds, detailed then analytical.
    samples: [Vec<f64>; 2],
}

impl Estimates {
    fn new(ctx: &Ctx) -> Estimates {
        let mut models = ctx.plan.estimate_models.clone();
        Rng::new(ctx.seed ^ 0x9e0).shuffle(&mut models);
        let mut groups = vec![Vec::new(); ROUNDS];
        for (i, m) in models.into_iter().enumerate() {
            groups[i % ROUNDS].push(m);
        }
        Estimates {
            groups,
            devices: gpu_sim::all_devices()
                .iter()
                .map(|d| d.name.clone())
                .collect(),
            results: BTreeMap::new(),
            samples: [Vec::new(), Vec::new()],
        }
    }

    fn round(&mut self, ctx: &mut Ctx, round: usize) -> Result<(), String> {
        let models = self.groups[round].clone();
        let cells = cell_order(&models, &self.devices, ctx.seed ^ 0xe57 ^ round as u64);
        clear_analysis_cache();
        for (i, tier) in [Tier::Detailed, Tier::Analytical].into_iter().enumerate() {
            let mut engine = ResilientEngine::new(EngineConfig {
                deadline_ms: 600_000,
                tiers: vec![tier],
                ..EngineConfig::default()
            });
            let span_name = match tier {
                Tier::Detailed => "core.engine.estimate.detailed",
                _ => "core.engine.estimate.analytical",
            };
            for _pass in 0..ctx.plan.estimate_passes {
                for (m, d) in &cells {
                    let req = next_request_id();
                    let t = Instant::now();
                    let out = {
                        let _g = trace::span(span_name, req);
                        engine.estimate(m, d)
                    };
                    self.samples[i].push(t.elapsed().as_secs_f64() * 1e3);
                    let served = out.kind == OutcomeKind::Served { tier };
                    let value = (
                        out.ipc.unwrap_or(f64::NAN).to_bits(),
                        out.latency_ms.unwrap_or(f64::NAN).to_bits(),
                    );
                    let key = (m.clone(), d.clone(), tier.name());
                    let stable = *self.results.entry(key).or_insert(value) == value;
                    ctx.run.op(
                        served && out.ipc.is_some_and(|v| v.is_finite() && v > 0.0) && stable,
                        || format!("estimate {m}@{d} on {}: {}", tier.name(), out.canonical()),
                    );
                }
            }
        }
        self.verify(ctx, &models)
    }

    /// Each served value must equal the simulator run on the cached
    /// analysis plan: every cell when traced, otherwise every analytical
    /// cell and one device per model on the detailed tier.
    fn verify(&self, ctx: &mut Ctx, models: &[String]) -> Result<(), String> {
        for m in models {
            let graph = cnn_ir::zoo::build_any(m).ok_or_else(|| format!("unknown model {m}"))?;
            let name_hash = m.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            });
            let checked_device = Rng::new(ctx.seed ^ name_hash).below(self.devices.len());
            for (j, d) in self.devices.iter().enumerate() {
                let dev =
                    gpu_sim::device_by_name(d).ok_or_else(|| format!("unknown device {d}"))?;
                for (tier, mode) in [
                    ("detailed", SimMode::Detailed),
                    ("analytical", SimMode::Analytical),
                ] {
                    if tier == "detailed" && !ctx.traced && j != checked_device {
                        continue;
                    }
                    let Some(&(ipc, lat)) = self.results.get(&(m.clone(), d.clone(), tier)) else {
                        continue;
                    };
                    let report = analyze_cached(&graph, &dev.sm_target(), &ExecBudget::default())
                        .map_err(|e| e.to_string())
                        .and_then(|a| {
                            let _g = trace::span("gpu_sim.verify", 0);
                            Simulator::new(dev.clone(), mode)
                                .simulate_plan(&a.plan)
                                .map_err(|e| e.to_string())
                        });
                    ctx.run.op(
                        report
                            .as_ref()
                            .is_ok_and(|r| r.ipc.to_bits() == ipc && r.latency_ms.to_bits() == lat),
                        || {
                            format!(
                                "{tier} estimate of {m}@{d} differs from simulate_plan: {report:?}"
                            )
                        },
                    );
                }
            }
        }
        Ok(())
    }

    fn finish(self, ctx: &mut Ctx) {
        let [detailed, analytical] = self.samples;
        ctx.run
            .timing("estimate_detailed_ms", "ms", &Dist::new(detailed), &[90.0]);
        ctx.run.timing(
            "estimate_analytical_ms",
            "ms",
            &Dist::new(analytical),
            &[90.0],
        );
        // analytical tier error against the detailed tier on the same cells
        let errors: Vec<f64> = self
            .results
            .iter()
            .filter(|((_, _, tier), _)| *tier == "analytical")
            .filter_map(|((m, d, _), (ana, _))| {
                let det = f64::from_bits(self.results.get(&(m.clone(), d.clone(), "detailed"))?.0);
                Some((f64::from_bits(*ana) - det).abs() / det * 100.0)
            })
            .collect();
        let n = errors.len();
        ctx.run.metric(
            "analytical_mape_pct",
            errors.iter().sum::<f64>() / n as f64,
            "%",
            n,
        );
        println!(
            "estimate digest {:016x} over {} cells",
            digest(&self.results),
            self.results.len()
        );
    }
}

pub fn next_request_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The serve keys: every serve model on every device.
pub fn serve_keys(devices: &[DeviceSpec]) -> Vec<(String, String)> {
    SERVE_MODELS
        .iter()
        .flat_map(|m| devices.iter().map(move |d| (m.to_string(), d.name.clone())))
        .collect()
}

/// IPC each key must be answered with, as the server prints it: the
/// Decision Tree the server trains (whole corpus, seed 42) predicting
/// from the model's cached analysis.
pub fn expected_ipc(
    corpus: &Corpus,
    keys: &[(String, String)],
) -> Result<(PerformancePredictor, Vec<String>), String> {
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);
    let expected = keys
        .iter()
        .map(|(m, d)| {
            let graph = cnn_ir::zoo::build_any(m).ok_or_else(|| format!("unknown model {m}"))?;
            let dev = gpu_sim::device_by_name(d).ok_or_else(|| format!("unknown device {d}"))?;
            let a = cnnperf_core::profile_model_cached(&graph).map_err(|e| e.to_string())?;
            Ok(format!("{:.9}", predictor.predict(&a.profile, &dev)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((predictor, expected))
}

/// Send every key once, one at a time, checking each answer.
fn warm(
    server: &ServerProc,
    keys: &[(String, String)],
    expected: &[String],
) -> Result<usize, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = server.connect()?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut bad = 0;
    for (i, (m, d)) in keys.iter().enumerate() {
        writer
            .write_all(serve::estimate_frame(i, m, d, Qos::Batch).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let want_id = format!("\"id\":\"r{i}\"");
        let want_ipc = format!("\"ipc\":{}", expected[i]);
        if !(line.contains(&want_id)
            && line.contains("\"ok\":true")
            && line.contains("\"outcome\":\"served:regressor\"")
            && line.contains(&want_ipc))
        {
            eprintln!("warm-up reply for {m}@{d} is wrong: {}", line.trim());
            bad += 1;
        }
    }
    Ok(bad)
}

fn check_step(run: &mut Run, step: &Step, expected: &[String], what: &str) {
    let mut bad = 0;
    for s in &step.samples {
        let ok = match &s.reply {
            Reply::Ok { ipc, outcome } => *ipc == expected[s.key] && outcome == "served:regressor",
            Reply::Shed | Reply::Bad(_) | Reply::Missing => false,
        };
        if !ok {
            bad += 1;
            if bad <= 3 {
                eprintln!("{what}: bad reply {:?} for key {}", s.reply, s.key);
            }
        }
    }
    run.op(bad == 0, || {
        format!("{what}: {bad} of {} replies wrong", step.samples.len())
    });
}

/// Server counters the flow reads through the `stats` op.
const SERVER_COUNTERS: [&str; 6] = [
    "server.requests",
    "server.admitted",
    "server.coalesced",
    "server.shed",
    "server.retries",
    "server.rejected.draining",
];

fn counter_deltas(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    let get = |m: &BTreeMap<String, u64>, n: &str| m.get(n).copied().unwrap_or(0);
    SERVER_COUNTERS
        .iter()
        .map(|&n| (n.to_string(), get(after, n).saturating_sub(get(before, n))))
        .collect()
}

/// The serve stack under test: a `cnnperf serve` child with its keys, the
/// answers it must give, and the samples gathered so far.
struct Serving {
    server: ServerProc,
    keys: Vec<(String, String)>,
    expected: Vec<String>,
    skew: KeySkew,
    rng: Rng,
    counters_before: BTreeMap<String, u64>,
    saturated: Vec<Step>,
    light: Vec<Step>,
}

impl Serving {
    /// Set-up, repeated (median reported): start the server, which loads
    /// the corpus and trains its Decision Tree, and warm every key.
    fn start(ctx: &mut Ctx, corpus: &Corpus) -> Result<Serving, String> {
        let keys = serve_keys(&gpu_sim::all_devices());
        let (_, expected) = expected_ipc(corpus, &keys)?;
        let corpus_path = ctx.dir.join("serve-corpus.json");
        store_corpus(&corpus_path, corpus).map_err(|e| format!("store corpus: {e}"))?;
        let mut setup_s = Vec::new();
        let mut server = None;
        for i in 0..SETUPS {
            let t = Instant::now();
            let s = {
                let _g = trace::span("serve.setup", 0);
                let s = ServerProc::start(&ctx.server_bin, &ctx.dir, &corpus_path)?;
                let bad = warm(&s, &keys, &expected)?;
                ctx.run
                    .op(bad == 0, || format!("{bad} warm-up replies wrong"));
                s
            };
            setup_s.push(t.elapsed().as_secs_f64());
            if i + 1 < SETUPS {
                let stopped = s.stop();
                ctx.run
                    .op(stopped.is_ok(), || format!("server stop: {stopped:?}"));
            } else {
                server = Some(s);
            }
        }
        let server = server.ok_or("no serve set-up")?;
        ctx.run.median("setup_s", "s", &Dist::new(setup_s));
        let mut rng = Rng::new(ctx.seed ^ 0x5e7e);
        let skew = KeySkew::new(keys.len(), &mut rng);
        let counters_before = server.counters()?;
        Ok(Serving {
            server,
            keys,
            expected,
            skew,
            rng,
            counters_before,
            saturated: Vec::new(),
            light: Vec::new(),
        })
    }

    /// Send a seeded schedule of `count` requests at `rate`: open loop,
    /// or closed loop (the rate then only draws the schedule, which the
    /// closed loop ignores).
    fn send(
        &mut self,
        ctx: &mut Ctx,
        rate: f64,
        count: usize,
        closed: bool,
    ) -> Result<Step, String> {
        let reqs = crate::plan::schedule(rate, count, &self.skew, &mut self.rng);
        let keys = &self.keys;
        let frame_of = |i: usize, r: &Req| {
            let (m, d) = &keys[r.key];
            serve::estimate_frame(i, m, d, r.qos)
        };
        let _g = trace::span("serve.step", 0);
        if closed {
            return serve::run_closed(&self.server, &reqs, &frame_of, SAT_OUTSTANDING);
        }
        if ctx.stash.ref_schedule.is_empty() {
            // one window: each window's due times start again at zero
            ctx.stash.ref_schedule = reqs
                .iter()
                .map(|r| {
                    let (m, d) = &keys[r.key];
                    (m.clone(), d.clone(), r.qos, r.due_us)
                })
                .collect();
        }
        serve::run_schedule(&self.server, &reqs, &frame_of)
    }

    /// One round of serve traffic: in the traced run [`REF_WINDOWS`]
    /// light-load windows, then [`SAT_WINDOWS`] saturated ones (with the
    /// server's counter deltas over them).
    fn round(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        if ctx.traced {
            for _ in 0..REF_WINDOWS {
                let step = self.send(ctx, REF_RATE, REF_WINDOW_REQUESTS, false)?;
                check_step(&mut ctx.run, &step, &self.expected, "light load");
                self.light.push(step);
            }
        }
        let before = self.server.counters()?;
        for _ in 0..SAT_WINDOWS {
            let step = self.send(ctx, REF_RATE, SAT_WINDOW_REQUESTS, true)?;
            check_step(&mut ctx.run, &step, &self.expected, "saturated");
            eprintln!(
                "serve: saturated {:.0} rps, interactive p50 {:.2} ms p90 {:.2} ms, batch p90 {:.2} ms, shed per class {:?}",
                step.served_per_s(),
                step.latencies(Qos::Interactive).median().unwrap_or(f64::NAN),
                step.latencies(Qos::Interactive).tail(90.0).unwrap_or(f64::NAN),
                step.latencies(Qos::Batch).tail(90.0).unwrap_or(f64::NAN),
                Qos::ALL.map(|q| step.shed(q)),
            );
            self.saturated.push(step);
        }
        for (name, d) in counter_deltas(&before, &self.server.counters()?) {
            *ctx.stash.saturated_deltas.entry(name).or_insert(0) += d;
        }
        Ok(())
    }

    /// The serve metrics, the server's counter deltas, and a clean drain.
    fn finish(self, ctx: &mut Ctx) -> Result<(), String> {
        // each statistic per window, then its median over the windows: a
        // host stall in one window does not set the run's figure
        let throughput: Vec<f64> = self.saturated.iter().map(Step::served_per_s).collect();
        ctx.run
            .median("serve_max_rps", "1/s", &Dist::new(throughput));
        for (steps, metric, qos, p) in [
            (
                &self.saturated,
                "serve_interactive_ms.p50",
                Qos::Interactive,
                50.0,
            ),
            (
                &self.saturated,
                "serve_interactive_ms.p90",
                Qos::Interactive,
                90.0,
            ),
            (&self.saturated, "serve_batch_ms.p90", Qos::Batch, 90.0),
            (
                &self.light,
                "serve.light_interactive_ms.p50",
                Qos::Interactive,
                50.0,
            ),
            (
                &self.light,
                "serve.light_interactive_ms.p90",
                Qos::Interactive,
                90.0,
            ),
        ] {
            if steps.is_empty() {
                continue;
            }
            let mut per_window = Vec::new();
            let mut n = 0;
            for step in steps {
                let lat = step.latencies(qos);
                n += lat.len();
                match lat.tail(p) {
                    Some(v) => per_window.push(v),
                    None => {
                        ctx.run.op(false, || {
                            format!(
                                "{metric}: {} samples in a window leave too few beyond p{p}",
                                lat.len()
                            )
                        });
                    }
                }
            }
            if let Some(v) = Dist::new(per_window).median() {
                ctx.run.metric(metric, v, "ms", n);
            }
        }
        ctx.stash.late_ms = self
            .light
            .iter()
            .flat_map(|s| s.lateness().sorted_samples())
            .collect();

        let d = counter_deltas(&self.counters_before, &self.server.counters()?);
        let (req, adm, shed, drn) = (
            d["server.requests"],
            d["server.admitted"],
            d["server.shed"],
            d["server.rejected.draining"],
        );
        ctx.run.op(req == adm + shed + drn, || {
            format!("server invariant requests == admitted + shed + draining broke ({req} != {adm} + {shed} + {drn})")
        });
        ctx.stash.server_deltas = d;
        let stopped = self.server.stop();
        ctx.run
            .op(stopped.is_ok(), || format!("server stop: {stopped:?}"));
        Ok(())
    }
}

fn record_rss(ctx: &mut Ctx, mb: Option<f64>) {
    match mb {
        Some(mb) => ctx.run.metric("peak_rss_mb", mb, "MB", 1),
        None => {
            ctx.run.op(false, || "peak RSS unreadable".into());
        }
    }
}

/// A scratch directory for one run, removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> Result<ScratchDir, String> {
        let dir = root.join(format!("run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_enough_samples_for_their_tails() {
        let need = Dist::min_samples_for_tail(90.0);
        assert!(Qos::Interactive.at_least(SAT_WINDOW_REQUESTS) >= need);
        assert!(Qos::Batch.at_least(SAT_WINDOW_REQUESTS) >= need);
        assert!(Qos::Interactive.at_least(REF_WINDOW_REQUESTS) >= need);
    }
}
