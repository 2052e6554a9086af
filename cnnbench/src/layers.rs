//! Per-layer metrics of the traced run: spans around calls into each
//! layer's public functions, plus deltas of the program's own counters.
//! Runs after the traced flow, on a few of the workload's models.

use crate::flow::{self, Ctx};
use crate::plan::Qos;
use crate::serve;
use crate::stats::Dist;
use crate::trace::{self, Span};
use cnnperf_core::server::protocol;
use cnnperf_core::{
    analyze_cached, clear_analysis_cache, model_content_hash, rank_devices, rank_devices_profiled,
    EngineConfig, Journal, OutcomeKind, PerformancePredictor, QosClass, ResilientEngine, Scheduler,
    ServerConfig, Tier, DEFAULT_SM_TARGET,
};
use gpu_sim::{FaultInjector, FaultProfile, RetryPolicy, SimMode, Simulator};
use mlkit::RegressorKind;
use ptx_analysis::{CountMode, DenseProgram, ExecBudget};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const REPS: usize = 5;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn family(name: &str) -> &'static str {
    let transformer = cnn_ir::zoo::transformer::all_transformers()
        .iter()
        .any(|(n, _)| *n == name);
    if transformer {
        "transformer"
    } else {
        "cnn"
    }
}

/// The probed models: the first and the middle CNN of the workload's
/// estimate models plus its first transformer encoder.
fn probe_models(ctx: &Ctx) -> Vec<String> {
    let models = &ctx.plan.estimate_models;
    let cnns: Vec<&String> = models.iter().filter(|m| family(m) == "cnn").collect();
    let mut out: Vec<String> = [cnns.first(), cnns.get(cnns.len() / 2)]
        .into_iter()
        .flatten()
        .map(|m| m.to_string())
        .collect();
    out.dedup();
    out.extend(models.iter().find(|m| family(m) == "transformer").cloned());
    out
}

fn p50(run: &mut crate::report::Run, name: &str, unit: &'static str, samples: Vec<f64>) {
    run.median(name, unit, &Dist::new(samples));
}

/// `trace.overhead_pct`: the workload's densest span-wrapped calls, a
/// `rank_devices` per corpus model (~0.2-0.6 ms each), timed one by one
/// (span included) in blocks of [`OVERHEAD_BLOCK_CALLS`] with tracing off
/// and on in ABBA order after an untimed block, so warm-up and drift fall
/// on both sides alike; the medians of the two sides are compared, so a
/// host stall in one block does not set the figure. The flow's other
/// spans wrap calls of milliseconds to seconds, where the same per-span
/// cost weighs less.
pub fn tracing_overhead(ctx: &mut Ctx, corpus: &cnnperf_core::Corpus) -> Result<(), String> {
    const OVERHEAD_BLOCK_CALLS: usize = 400;
    let graphs = flow::graphs(&ctx.plan.corpus_models)?;
    let devices = gpu_sim::all_devices();
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);
    for g in &graphs {
        cnnperf_core::profile_model_cached(g).map_err(|e| e.to_string())?;
    }
    let passes = OVERHEAD_BLOCK_CALLS.div_ceil(graphs.len().max(1));
    // index 2: the untimed warm-up block
    let mut calls_us: [Vec<f64>; 3] = Default::default();
    for block in [2, 0, 1, 1, 0, 0, 1, 1, 0] {
        if block == 1 {
            trace::enable();
        } else {
            trace::disable();
        }
        for _ in 0..passes {
            for g in &graphs {
                let t = Instant::now();
                let r = {
                    let _g = trace::span("trace.overhead.rank_devices", 0);
                    rank_devices(&predictor, g, &devices)
                };
                calls_us[block].push(us(t));
                ctx.run
                    .op(r.is_ok(), || format!("rank_devices({}) failed", g.name()));
            }
        }
    }
    trace::enable();
    let [off, on, _] = calls_us;
    let n = off.len() + on.len();
    if let (Some(off), Some(on)) = (Dist::new(off).median(), Dist::new(on).median()) {
        ctx.run
            .metric("trace.overhead_pct", (on / off - 1.0) * 100.0, "%", n);
    }
    Ok(())
}

pub fn probe(ctx: &mut Ctx, corpus: &cnnperf_core::Corpus) -> Result<(), String> {
    let models = probe_models(ctx);
    let graphs = flow::graphs(&models)?;
    let before = obs::global().snapshot();

    // cnn-ir: graph construction and static analysis
    let (mut build, mut analyze) = (Vec::new(), Vec::new());
    for m in &models {
        for _ in 0..REPS {
            let (g, t) = trace::timed("cnn_ir.build", 0, || cnn_ir::zoo::build_any(m));
            build.push(t);
            let g = g.ok_or_else(|| format!("unknown model {m}"))?;
            let (_, t) = trace::timed("cnn_ir.analyze", 0, || cnn_ir::analyze(&g));
            analyze.push(t);
        }
    }
    p50(&mut ctx.run, "cnn_ir.build_us", "us", build);
    p50(&mut ctx.run, "cnn_ir.analyze_us", "us", analyze);

    // ptx-codegen: lowering for each (model, target)
    let targets: BTreeSet<String> = gpu_sim::all_devices()
        .iter()
        .map(|d| d.sm_target())
        .collect();
    let (mut lower, mut launches) = (Vec::new(), 0usize);
    for g in &graphs {
        for target in &targets {
            let (plan, t) = trace::timed("ptx_codegen.lower", 0, || ptx_codegen::lower(g, target));
            lower.push(t);
            launches += plan.map_err(|e| e.to_string())?.launches.len();
        }
    }
    let plans = lower.len();
    p50(&mut ctx.run, "ptx_codegen.lower_us", "us", lower);
    ctx.run
        .metric("ptx_codegen.launches", launches as f64, "count", plans);

    // ptx-analysis: auto counting, poly compilation and the interpreter
    // reference, per family
    let budget = ExecBudget::default();
    let mut per_family: BTreeMap<&str, [Vec<f64>; 3]> = BTreeMap::new();
    let mut family_counts: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for (m, g) in models.iter().zip(&graphs) {
        let fam = family(m);
        let plan = ptx_codegen::lower(g, DEFAULT_SM_TARGET).map_err(|e| e.to_string())?;
        let b = obs::global().snapshot();
        let t = Instant::now();
        let auto = {
            let _g = trace::span("ptx_analysis.count_plan", 0);
            ptx_analysis::count_plan_report_budgeted(&plan, true, &budget, CountMode::Auto)
        };
        let auto_ms = us(t) / 1e3;
        let a = obs::global().snapshot();
        for (short, counter) in [
            ("poly_compiled", "ptx.poly.compiled"),
            ("poly_fallbacks", "ptx.poly.fallbacks"),
        ] {
            *family_counts.entry((fam, short)).or_default() += a.counter_delta(&b, counter);
        }
        let kernels: BTreeSet<usize> = plan.launches.iter().map(|l| l.kernel).collect();
        let t = Instant::now();
        for &k in &kernels {
            let _g = trace::span("ptx_analysis.poly_compile", 0);
            let kernel = &plan.module.kernels[k];
            let program = DenseProgram::decode(kernel);
            let slice = ptx_analysis::branch_slice(kernel);
            let _ = ptx_analysis::compile_kernel(&program, Some(&slice));
        }
        let compile_ms = us(t) / 1e3;
        // the interpreter reference; its steps are the work the poly tier
        // saves (auto mode executes none when every kernel compiles)
        let b = obs::global().snapshot();
        let t = Instant::now();
        let interp = {
            let _g = trace::span("ptx_analysis.interp_count", 0);
            ptx_analysis::count_plan_mode_budgeted(&plan, true, &budget, CountMode::Interp)
        };
        let interp_ms = us(t) / 1e3;
        let a = obs::global().snapshot();
        *family_counts.entry((fam, "exec_steps")).or_default() +=
            a.counter_delta(&b, "ptx.exec.steps");
        let same = match (&auto, &interp) {
            (Ok((x, _)), Ok(y)) => {
                x.thread_instructions == y.thread_instructions && x.warp_issues == y.warp_issues
            }
            _ => false,
        };
        ctx.run.op(same, || {
            format!("auto and interpreter counts of {m} differ")
        });
        let e = per_family.entry(fam).or_default();
        e[0].push(auto_ms);
        e[1].push(compile_ms);
        e[2].push(interp_ms);
    }
    for fam in ["cnn", "transformer"] {
        let [auto, compile, interp] = per_family.remove(fam).unwrap_or_default();
        p50(
            &mut ctx.run,
            &format!("ptx_analysis.count_plan_ms.{fam}"),
            "ms",
            auto,
        );
        p50(
            &mut ctx.run,
            &format!("ptx_analysis.poly_compile_ms.{fam}"),
            "ms",
            compile,
        );
        p50(
            &mut ctx.run,
            &format!("ptx_analysis.interp_count_ms.{fam}"),
            "ms",
            interp,
        );
        for short in ["poly_compiled", "poly_fallbacks", "exec_steps"] {
            let v = family_counts.get(&(fam, short)).copied().unwrap_or(0);
            ctx.run
                .metric(&format!("ptx_analysis.{short}.{fam}"), v as f64, "count", 1);
        }
    }

    // gpu-sim: both simulator modes, the counting share of the
    // analytical mode, and one robust profiling cell
    let sim_devices = ["GTX 1080 Ti", "A100"].map(|d| gpu_sim::device_by_name(d).expect("device"));
    let (mut det_ms, mut ana_ms) = (Vec::new(), Vec::new());
    let (mut det_total_ns, mut events, mut hits, mut misses) = (0.0, 0u64, 0u64, 0u64);
    let (mut ana_total, mut count_total) = (0.0, 0.0);
    let mut cell_ms = Vec::new();
    for g in &graphs {
        for dev in &sim_devices {
            let analyzed =
                analyze_cached(g, &dev.sm_target(), &budget).map_err(|e| e.to_string())?;
            let plan = &analyzed.plan;
            let b = obs::global().snapshot();
            let t = Instant::now();
            let det = {
                let _g = trace::span("gpu_sim.detailed", 0);
                Simulator::new(dev.clone(), SimMode::Detailed).simulate_plan(plan)
            };
            let ns = t.elapsed().as_nanos() as f64;
            let a = obs::global().snapshot();
            ctx.run.op(det.is_ok(), || {
                format!("detailed simulation of {}: {det:?}", g.name())
            });
            det_ms.push(ns / 1e6);
            det_total_ns += ns;
            events += a.counter_delta(&b, "sim.events");
            hits += a.counter_delta(&b, "sim.memo.hits");
            misses += a.counter_delta(&b, "sim.memo.misses");

            let t = Instant::now();
            let ana = {
                let _g = trace::span("gpu_sim.analytical", 0);
                Simulator::new(dev.clone(), SimMode::Analytical).simulate_plan(plan)
            };
            let a_us = us(t);
            ctx.run.op(ana.is_ok(), || {
                format!("analytical simulation of {}: {ana:?}", g.name())
            });
            ana_ms.push(a_us / 1e3);
            ana_total += a_us;
            let t = Instant::now();
            for l in &plan.launches {
                let _g = trace::span("ptx_analysis.count_launch", 0);
                let _ = ptx_analysis::count_launch_budgeted(
                    &plan.module.kernels[l.kernel],
                    l,
                    true,
                    &budget,
                );
            }
            count_total += us(t);
        }
        let dev = &sim_devices[0];
        let analyzed = analyze_cached(g, &dev.sm_target(), &budget).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let cell = {
            let _g = trace::span("gpu_sim.profile_cell", 0);
            gpu_sim::profile_robust_budgeted(
                &analyzed.plan,
                dev,
                cnnperf_core::RobustConfig::default().runs,
                &RetryPolicy::default(),
                &FaultInjector::new(FaultProfile::none()),
                &budget,
            )
        };
        cell_ms.push(us(t) / 1e3);
        ctx.run.op(cell.is_ok(), || {
            format!("profiling cell of {}: {:?}", g.name(), cell.err())
        });
    }
    p50(&mut ctx.run, "gpu_sim.detailed_ms", "ms", det_ms);
    ctx.run.metric(
        "gpu_sim.detailed_ns_per_event",
        det_total_ns / events.max(1) as f64,
        "ns",
        events as usize,
    );
    ctx.run.metric(
        "gpu_sim.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    p50(&mut ctx.run, "gpu_sim.analytical_ms", "ms", ana_ms);
    ctx.run.metric(
        "gpu_sim.analytical_count_share",
        count_total / ana_total.max(1e-9),
        "ratio",
        graphs.len() * sim_devices.len(),
    );
    p50(&mut ctx.run, "gpu_sim.profile_cell_ms", "ms", cell_ms);

    // mlkit: training on the run's corpus, and one prediction
    let mut train = Vec::new();
    let mut predictor = None;
    for _ in 0..3 {
        let (p, t) = trace::timed("mlkit.train", 0, || {
            PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42)
        });
        train.push(t / 1e3);
        predictor = Some(p);
    }
    let predictor = predictor.expect("trained at least once");
    p50(&mut ctx.run, "mlkit.train_ms", "ms", train);
    let profiles: Vec<_> = graphs
        .iter()
        .map(|g| cnnperf_core::profile_model_cached(g).map(|a| a.profile.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let devices = gpu_sim::all_devices();
    let mut predict = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let _g = trace::span("mlkit.predict_batch", 0);
        let mut acc = 0.0;
        for p in &profiles {
            for d in &devices {
                acc += predictor.predict(std::hint::black_box(p), d);
            }
        }
        std::hint::black_box(acc);
        predict.push(us(t) / (profiles.len() * devices.len()) as f64);
    }
    p50(&mut ctx.run, "mlkit.predict_us", "us", predict);

    // core::analysis_cache: hashing, a hit, a miss; the run's hit ratio
    let (mut hash, mut hit, mut miss) = (Vec::new(), Vec::new(), Vec::new());
    for g in &graphs {
        for _ in 0..REPS {
            hash.push(trace::timed("core.analysis_cache.hash", 0, || model_content_hash(g)).1);
            hit.push(
                trace::timed("core.analysis_cache.hit", 0, || {
                    analyze_cached(g, DEFAULT_SM_TARGET, &budget)
                })
                .1,
            );
        }
    }
    for g in &graphs {
        clear_analysis_cache();
        miss.push(
            trace::timed("core.analysis_cache.miss", 0, || {
                analyze_cached(g, DEFAULT_SM_TARGET, &budget)
            })
            .1 / 1e3,
        );
    }
    p50(&mut ctx.run, "core.analysis_cache.hash_us", "us", hash);
    p50(&mut ctx.run, "core.analysis_cache.hit_us", "us", hit);
    p50(&mut ctx.run, "core.analysis_cache.miss_ms", "ms", miss);
    let (h, m) = (ctx.stash.analysis_hits, ctx.stash.analysis_misses);
    ctx.run.metric(
        "core.analysis_cache.hit_ratio",
        h as f64 / (h + m).max(1) as f64,
        "ratio",
        (h + m) as usize,
    );

    // core::engine: regressor-tier requests, each replayed layer by layer
    // under the same request id; the engine's overhead is its span minus
    // the replayed spans
    let mut engine = ResilientEngine::new(EngineConfig {
        deadline_ms: 60_000,
        tiers: vec![Tier::Regressor],
        ..EngineConfig::default()
    })
    .with_predictor(predictor.clone());
    let keys = flow::serve_keys(&devices);
    for (m, d) in &keys {
        // warm: the measured passes below must all hit the analysis cache
        engine.estimate(m, d);
    }
    let mut outcomes = Vec::new();
    for (m, d) in keys.iter().cycle().take(keys.len() * 3) {
        let req = flow::next_request_id();
        let out = {
            let _g = trace::span("core.engine.estimate.regressor", req);
            engine.estimate(m, d)
        };
        ctx.run.op(
            out.kind
                == OutcomeKind::Served {
                    tier: Tier::Regressor,
                },
            || format!("regressor estimate {m}@{d}: {}", out.canonical()),
        );
        let _g = trace::span("engine.replay", req);
        let g = {
            let _g = trace::span("cnn_ir.build", req);
            cnn_ir::zoo::build_any(m)
        }
        .ok_or_else(|| format!("unknown model {m}"))?;
        let dev = {
            let _g = trace::span("gpu_sim.device_by_name", req);
            gpu_sim::device_by_name(d)
        }
        .ok_or_else(|| format!("unknown device {d}"))?;
        let analyzed = {
            let _g = trace::span("core.analysis_cache.lookup", req);
            cnnperf_core::profile_model_cached_budgeted(&g, &budget)
        }
        .map_err(|e| e.to_string())?;
        let ipc = {
            let _g = trace::span("mlkit.predict", req);
            predictor.predict(&analyzed.profile, &dev)
        };
        ctx.run
            .op(out.ipc.map(f64::to_bits) == Some(ipc.to_bits()), || {
                format!("regressor estimate {m}@{d} differs from predict")
            });
        outcomes.push((req, out));
    }
    let spans = trace::snapshot();
    engine_metrics(ctx, &spans);
    // over the whole run: both flows' estimates and these probes
    let failures: u64 = obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("engine.tier.") && k.contains(".failure."))
        .map(|(_, v)| *v)
        .sum();
    ctx.run
        .metric("core.engine.tier_failures", failures as f64, "count", 1);

    // core::pipeline, from the flow's corpus build
    let cells = ctx.stash.corpus_cells as f64;
    ctx.run.metric(
        "core.pipeline.cells_per_s",
        cells / ctx.stash.corpus_build_s,
        "1/s",
        ctx.stash.corpus_cells,
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    ctx.run.metric(
        "core.pipeline.parallel_efficiency",
        ctx.stash.cell_busy_us as f64 / (ctx.stash.corpus_build_s * 1e6 * nproc),
        "ratio",
        ctx.stash.corpus_cells,
    );

    // core::journal: the flow's journal re-applied to a scratch journal
    let jdir = ctx.dir.join("journal");
    let meta = flow::build_meta(&cnnperf_core::RobustConfig::default());
    let (_, replay) = Journal::open(&jdir, &meta, true).map_err(|e| e.to_string())?;
    let (scratch, _) =
        Journal::open(&ctx.dir.join("scratch-journal"), &meta, false).map_err(|e| e.to_string())?;
    let mut append = Vec::new();
    let profiles: BTreeMap<u64, &cnnperf_core::features::CnnProfile> =
        replay.profiles.iter().map(|(h, p)| (*h, p)).collect();
    for (hash, profile) in &profiles {
        let (r, t) = trace::timed("core.journal.append_model", 0, || {
            scratch.append_model(&profile.name, *hash, profile)
        });
        ctx.run.op(r.is_ok(), || format!("append_model: {r:?}"));
        append.push(t);
    }
    let cells: BTreeMap<&(u64, String), _> = replay.cells.iter().collect();
    for ((hash, device), outcome) in cells {
        let name = profiles.get(hash).map_or("", |p| p.name.as_str());
        let (r, t) = trace::timed("core.journal.append_cell", 0, || {
            scratch.append_cell(name, *hash, device, outcome)
        });
        ctx.run.op(r.is_ok(), || format!("append_cell: {r:?}"));
        append.push(t);
    }
    p50(&mut ctx.run, "core.journal.append_us", "us", append);
    p50(
        &mut ctx.run,
        "core.journal.open_replay_ms",
        "ms",
        trace::durations_us(&spans, "core.journal.open_resume")
            .iter()
            .map(|v| v / 1e3)
            .collect(),
    );
    for (metric, counter) in [
        ("core.journal.appends", "journal.appends"),
        ("core.journal.replayed", "journal.replayed"),
        ("core.journal.computed", "journal.computed"),
    ] {
        let v = ctx.stash.journal_deltas.get(counter).copied().unwrap_or(0);
        ctx.run.metric(metric, v as f64, "count", 1);
    }

    // core::dse: ranking from an existing profile
    let mut rank = Vec::new();
    for p in &profiles_of(&graphs)? {
        for _ in 0..REPS {
            let (r, t) = trace::timed("core.dse.rank_profiled", 0, || {
                rank_devices_profiled(&predictor, p, &devices)
            });
            ctx.run.op(r.is_ok(), || {
                format!("rank_devices_profiled: {:?}", r.err())
            });
            rank.push(t);
        }
    }
    p50(&mut ctx.run, "core.dse.rank_profiled_us", "us", rank);

    server_metrics(ctx, corpus, &predictor, &outcomes)?;

    let after = obs::global().snapshot();
    flow::check_invariants(&mut ctx.run, &before, &after, "layer probes");
    Ok(())
}

fn profiles_of(
    graphs: &[cnn_ir::ModelGraph],
) -> Result<Vec<cnnperf_core::features::CnnProfile>, String> {
    graphs
        .iter()
        .map(|g| {
            cnnperf_core::profile_model_cached(g)
                .map(|a| a.profile.clone())
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn engine_metrics(ctx: &mut Ctx, spans: &[Span]) {
    for (metric, span) in [
        (
            "core.engine.estimate_us.detailed",
            "core.engine.estimate.detailed",
        ),
        (
            "core.engine.estimate_us.analytical",
            "core.engine.estimate.analytical",
        ),
        (
            "core.engine.estimate_us.regressor",
            "core.engine.estimate.regressor",
        ),
    ] {
        p50(&mut ctx.run, metric, "us", trace::durations_us(spans, span));
    }
    let engine = trace::per_request_us(spans, &["core.engine.estimate.regressor"]);
    let layers = trace::per_request_us(
        spans,
        &[
            "cnn_ir.build",
            "gpu_sim.device_by_name",
            "core.analysis_cache.lookup",
            "mlkit.predict",
        ],
    );
    let overhead: Vec<f64> = engine
        .iter()
        .filter_map(|(req, e)| layers.get(req).map(|l| e - l))
        .collect();
    ctx.run
        .op(!overhead.is_empty(), || "no engine spans to replay".into());
    p50(&mut ctx.run, "core.engine.overhead_us", "us", overhead);
}

fn server_metrics(
    ctx: &mut Ctx,
    corpus: &cnnperf_core::Corpus,
    predictor: &PerformancePredictor,
    outcomes: &[(u64, cnnperf_core::EstimateOutcome)],
) -> Result<(), String> {
    // frame parsing over the light-load schedule's frames
    let frames: Vec<String> = ctx
        .stash
        .ref_schedule
        .iter()
        .enumerate()
        .map(|(i, (m, d, q, _))| serve::estimate_frame(i, m, d, *q).trim_end().to_string())
        .collect();
    let mut parse = Vec::new();
    for f in &frames {
        let (r, t) = trace::timed("core.server.parse", 0, || protocol::parse_frame(f));
        ctx.run.op(r.is_ok(), || format!("parse_frame({f}): {r:?}"));
        parse.push(t);
    }
    p50(&mut ctx.run, "core.server.parse_us", "us", parse);
    let mut render = Vec::new();
    for (req, out) in outcomes {
        let id = format!("r{req}");
        let (line, t) = trace::timed("core.server.render", *req, || {
            protocol::render_result(&id, &protocol::result_body(out, 0))
        });
        ctx.run.op(line.contains("\"ok\":true"), || {
            format!("render_result: {line}")
        });
        render.push(t);
    }
    p50(&mut ctx.run, "core.server.render_us", "us", render);

    // queue wait: the light-load schedule replayed through an in-process
    // scheduler; reply time minus the engine's mean request time
    let mut cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    cfg.engine.tiers = vec![Tier::Regressor, Tier::StaleCache];
    let scheduler = Scheduler::start(
        &cfg,
        Some(std::sync::Arc::new(predictor.clone())),
        Some(std::sync::Arc::new(corpus.clone())),
    );
    let b = obs::global().snapshot();
    let (tx, rx) = mpsc::channel::<String>();
    let n = frames.len().min(2000);
    let mut submitted: Vec<Instant> = Vec::with_capacity(n);
    let replies = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got: Vec<(Instant, String)> = Vec::with_capacity(n);
            while got.len() < n {
                match rx.recv_timeout(Duration::from_secs(20)) {
                    Ok(line) => got.push((Instant::now(), line)),
                    Err(_) => break,
                }
            }
            got
        });
        let start = Instant::now();
        for (i, (m, d, q, due_us)) in ctx.stash.ref_schedule.iter().take(n).enumerate() {
            let at = start + Duration::from_micros(*due_us);
            while Instant::now() < at {
                std::thread::sleep(Duration::from_micros(100));
            }
            let req = protocol::EstimateRequest {
                id: format!("q{i}"),
                model: m.clone(),
                device: d.clone(),
                qos: match q {
                    Qos::Interactive => QosClass::Interactive,
                    Qos::Batch => QosClass::Batch,
                    Qos::BestEffort => QosClass::BestEffort,
                },
                deadline_ms: None,
            };
            submitted.push(Instant::now());
            let _g = trace::span("core.server.submit", 0);
            if scheduler.submit(req, tx.clone()).is_err() {
                // a shed request gets no reply; account for it below
            }
        }
        drop(tx);
        collector.join().expect("reply collector panicked")
    });
    let report = scheduler.drain(Duration::from_secs(5));
    let a = obs::global().snapshot();
    let engine_us = a.histograms.get("engine.request_us").map_or(0.0, |h| {
        let before = b.histograms.get("engine.request_us");
        let count = h.count - before.map_or(0, |x| x.count);
        let sum = h.sum - before.map_or(0, |x| x.sum);
        sum as f64 / count.max(1) as f64
    });
    let mut wait = Vec::new();
    for (at, line) in &replies {
        let idx = line
            .split("\"id\":\"q")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .and_then(|s| s.parse::<usize>().ok());
        if let Some(i) = idx.filter(|&i| i < submitted.len()) {
            wait.push((at.duration_since(submitted[i]).as_secs_f64() * 1e6 - engine_us).max(0.0));
        }
    }
    ctx.run.op(replies.len() == n && !report.forced, || {
        format!("in-process scheduler answered {} of {n}", replies.len())
    });
    p50(&mut ctx.run, "core.server.queue_wait_us", "us", wait);

    // server counters, from the real server's stats op in the flow:
    // coalescing in the saturated windows, shed and retries over all
    // traffic
    let d = |n: &str| ctx.stash.server_deltas.get(n).copied().unwrap_or(0);
    let r = |n: &str| ctx.stash.saturated_deltas.get(n).copied().unwrap_or(0);
    let (coalesced, admitted) = (r("server.coalesced"), r("server.admitted"));
    ctx.run.metric(
        "core.server.coalesced_ratio",
        coalesced as f64 / admitted.max(1) as f64,
        "ratio",
        admitted as usize,
    );
    ctx.run
        .metric("core.server.shed", d("server.shed") as f64, "count", 1);
    ctx.run.metric(
        "core.server.retries",
        d("server.retries") as f64,
        "count",
        1,
    );

    // the load generator's own clock
    let late = Dist::new(ctx.stash.late_ms.clone());
    if let (Some(m), Some(p99)) = (late.median(), late.tail(99.0)) {
        ctx.run.metric("loadgen.late_ms.p50", m, "ms", late.len());
        ctx.run.metric("loadgen.late_ms.p99", p99, "ms", late.len());
    }
    Ok(())
}
