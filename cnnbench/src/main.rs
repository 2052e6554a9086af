//! cnnperf benchmark: one seeded workload per invocation, end-to-end
//! metrics from an untraced run (`--trace 0`) or per-layer metrics from a
//! traced one (`--trace 1`). The last stdout line is the JSON result.
//!
//! ```text
//! python3 cnnbench/run.py --workload dse-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds this package and the `cnnperf` binary, then runs this
//! program with `--server-bin` pointing at the latter.

mod flow;
mod layers;
mod plan;
mod report;
mod serve;
mod stats;
mod trace;

use flow::{Ctx, Plan, ScratchDir, Stash, Workload};
use report::Run;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 15] = [
    ("corpus_build_s", "s"),
    ("corpus_replay_ms.p50", "ms"),
    ("rank_ms.p50", "ms"),
    ("regressor_mape_pct", "%"),
    ("estimate_detailed_ms.p50", "ms"),
    ("estimate_detailed_ms.p90", "ms"),
    ("estimate_analytical_ms.p50", "ms"),
    ("estimate_analytical_ms.p90", "ms"),
    ("analytical_mape_pct", "%"),
    ("serve_interactive_ms.p50", "ms"),
    ("serve_interactive_ms.p90", "ms"),
    ("serve_batch_ms.p90", "ms"),
    ("serve_max_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 54] = [
    ("cnn_ir.build_us", "us"),
    ("cnn_ir.analyze_us", "us"),
    ("ptx_codegen.lower_us", "us"),
    ("ptx_codegen.launches", "count"),
    ("ptx_analysis.count_plan_ms.cnn", "ms"),
    ("ptx_analysis.count_plan_ms.transformer", "ms"),
    ("ptx_analysis.poly_compile_ms.cnn", "ms"),
    ("ptx_analysis.poly_compile_ms.transformer", "ms"),
    ("ptx_analysis.interp_count_ms.cnn", "ms"),
    ("ptx_analysis.interp_count_ms.transformer", "ms"),
    ("ptx_analysis.poly_compiled.cnn", "count"),
    ("ptx_analysis.poly_compiled.transformer", "count"),
    ("ptx_analysis.poly_fallbacks.cnn", "count"),
    ("ptx_analysis.poly_fallbacks.transformer", "count"),
    ("ptx_analysis.exec_steps.cnn", "count"),
    ("ptx_analysis.exec_steps.transformer", "count"),
    ("gpu_sim.detailed_ms", "ms"),
    ("gpu_sim.detailed_ns_per_event", "ns"),
    ("gpu_sim.memo_hit_ratio", "ratio"),
    ("gpu_sim.analytical_ms", "ms"),
    ("gpu_sim.analytical_count_share", "ratio"),
    ("gpu_sim.profile_cell_ms", "ms"),
    ("mlkit.train_ms", "ms"),
    ("mlkit.predict_us", "us"),
    ("core.analysis_cache.hash_us", "us"),
    ("core.analysis_cache.hit_us", "us"),
    ("core.analysis_cache.miss_ms", "ms"),
    ("core.analysis_cache.hit_ratio", "ratio"),
    ("core.engine.estimate_us.detailed", "us"),
    ("core.engine.estimate_us.analytical", "us"),
    ("core.engine.estimate_us.regressor", "us"),
    ("core.engine.overhead_us", "us"),
    ("core.engine.tier_failures", "count"),
    ("core.pipeline.cells_per_s", "1/s"),
    ("core.pipeline.parallel_efficiency", "ratio"),
    ("core.journal.append_us", "us"),
    ("core.journal.open_replay_ms", "ms"),
    ("core.journal.appends", "count"),
    ("core.journal.replayed", "count"),
    ("core.journal.computed", "count"),
    ("core.dse.rank_profiled_us", "us"),
    ("core.server.parse_us", "us"),
    ("core.server.render_us", "us"),
    ("core.server.queue_wait_us", "us"),
    ("core.server.coalesced_ratio", "ratio"),
    ("core.server.shed", "count"),
    ("core.server.retries", "count"),
    ("serve.light_interactive_ms.p50", "ms"),
    ("serve.light_interactive_ms.p90", "ms"),
    ("loadgen.late_ms.p50", "ms"),
    ("loadgen.late_ms.p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.self_ms.corpus_build", "ms"),
    ("trace.self_ms.replay_build", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    work_root: PathBuf,
    git_sha: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut server_bin = None;
    let mut work_root = PathBuf::from(".cnnbench");
    let mut git_sha = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work-root" => work_root = PathBuf::from(value),
            "--git-sha" => git_sha = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_root,
        git_sha,
    })
}

fn ctx_for(args: &Args, dir: PathBuf, traced: bool) -> Ctx {
    Ctx {
        seed: args.seed,
        plan: Plan::new(args.workload, args.seconds as f64),
        dir,
        server_bin: args.server_bin.clone(),
        run: Run::default(),
        stash: Stash::default(),
        traced,
    }
}

fn print_table(run: &Run) {
    for (name, m) in &run.metrics {
        println!("  {name:<44} {:>16.6} {:<6} n={}", m.value, m.unit, m.n);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cnnbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::new(&args.work_root, args.workload.name()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cnnbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "cnnbench workload={} seed={} seconds={} trace={} nproc={nproc} git_sha={} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.git_sha
    );
    let plan = Plan::new(args.workload, args.seconds as f64);
    println!(
        "  corpus {} models; estimate {:?} x{} passes",
        plan.corpus_models.len(),
        plan.estimate_models,
        plan.estimate_passes,
    );

    let result = if args.trace {
        traced(&args, &scratch)
    } else {
        let mut ctx = ctx_for(&args, scratch.0.clone(), false);
        flow::run_flow(&mut ctx).map(|_| {
            print_table(&ctx.run);
            ctx.run.result_json(&END_TO_END)
        })
    };
    drop(scratch);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cnnbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flow once, traced, then the tracing overhead and the per-layer
/// probes.
fn traced(args: &Args, scratch: &ScratchDir) -> Result<String, String> {
    let mut ctx = ctx_for(args, scratch.0.clone(), true);
    trace::enable();
    let corpus = flow::run_flow(&mut ctx)?;
    let flow_spans = trace::snapshot();
    layers::tracing_overhead(&mut ctx, &corpus)?;
    // self time: a build or replay span minus its journal-open child
    let selfs = trace::self_times(&flow_spans);
    for (metric, span) in [
        ("trace.self_ms.corpus_build", "core.pipeline.build_corpus"),
        ("trace.self_ms.replay_build", "core.pipeline.replay_build"),
    ] {
        let samples: Vec<f64> = flow_spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == span)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .collect();
        ctx.run.median(metric, "ms", &stats::Dist::new(samples));
    }

    layers::probe(&mut ctx, &corpus)?;

    let spans = trace::take();
    let out = args.work_root.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&out, trace::to_jsonl(&spans))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("  {} spans written to {}", spans.len(), out.display());
    print_table(&ctx.run);
    Ok(ctx.run.result_json(&PER_LAYER))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark package");
        let v = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let Some(serde_json::Value::Arr(items)) = v.get(key) else {
            panic!("{key} missing");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| match m.get(k) {
                    Some(serde_json::Value::Str(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
