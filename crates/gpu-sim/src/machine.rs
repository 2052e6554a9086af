//! Whole-plan simulation: run every launch of a [`LaunchPlan`] on a device
//! and aggregate cycles, instruction counts and the headline IPC metric.
//!
//! The simulators never count instructions themselves: [`Simulator::simulate`]
//! reads the [`PlanCount`] the dynamic code analysis produced, so a caller
//! holding an analysis (the engine's analysis cache) simulates with no DCA.
//! Entry points that take a bare plan count it once with the plan counter
//! first.

use crate::detailed::{simulate_launch_budgeted, LaunchSim};
use crate::specs::DeviceSpec;
use ptx::kernel::LaunchPlan;
use ptx_analysis::{ExecBudget, ExecError, PlanCount};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Launch simulations answered from the per-plan memo table.
static SIM_MEMO_HITS: obs::LazyCounter = obs::LazyCounter::new("sim.memo.hits");
/// Unique launch shapes actually simulated in memoized mode.
static SIM_MEMO_MISSES: obs::LazyCounter = obs::LazyCounter::new("sim.memo.misses");

/// Simulation fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Event-driven wave simulation with launch memoization (dataset
    /// building).
    Detailed,
    /// Event-driven without memoization — every launch simulated
    /// separately, the honest stand-in for "run it on hardware under
    /// nvprof" in the Table IV timing comparison.
    DetailedNoMemo,
    /// Closed-form roofline estimate (ablation).
    Analytical,
}

/// Aggregated simulation result for one model on one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    pub model_name: String,
    pub device_name: String,
    /// Total core cycles of the inference pass.
    pub cycles: f64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Thread-level executed instructions.
    pub thread_instructions: u64,
    /// The paper's response variable: warp instructions per *active* SM
    /// cycle, matching `nvprof`'s `ipc` metric (which averages over SMs
    /// that have resident work, not over idle ones).
    pub ipc: f64,
    /// Wall-clock latency implied by `cycles` at boost clock, in ms.
    pub latency_ms: f64,
    /// Total DRAM traffic (bytes).
    pub dram_bytes: f64,
    /// Traffic-weighted average L2 hit rate.
    pub l2_hit: f64,
    pub num_launches: usize,
}

/// The simulator: one device, one fidelity mode.
#[derive(Debug, Clone)]
pub struct Simulator {
    pub dev: DeviceSpec,
    pub mode: SimMode,
}

impl Simulator {
    pub fn new(dev: DeviceSpec, mode: SimMode) -> Self {
        Self { dev, mode }
    }

    /// Simulate a full launch plan (serialized launches, as in single-stream
    /// inference), counting it first with the plan counter.
    pub fn simulate_plan(&self, plan: &LaunchPlan) -> Result<SimReport, ExecError> {
        let counts = ptx_analysis::count_plan(plan, true)?;
        self.simulate(plan, &counts, &ExecBudget::default())
    }

    /// Simulate `plan` from its instruction counts (`counts.per_launch[i]`
    /// belongs to `plan.launches[i]`, as the plan counter produces them).
    /// The budget's step fuel and cancellation token propagate into every
    /// per-launch simulation (detailed cycle loops included), so a
    /// deadline-driven caller can abort the whole plan cooperatively.
    pub fn simulate(
        &self,
        plan: &LaunchPlan,
        counts: &PlanCount,
        budget: &ExecBudget,
    ) -> Result<SimReport, ExecError> {
        if counts.per_launch.len() != plan.launches.len() {
            return Err(ExecError::Unlaunchable {
                kernel: plan.model_name.clone(),
                reason: format!(
                    "counts cover {} launches but the plan has {}",
                    counts.per_launch.len(),
                    plan.launches.len()
                ),
            });
        }
        let detailed = |i: usize| {
            let l = &plan.launches[i];
            let k = &plan.module.kernels[l.kernel];
            simulate_launch_budgeted(k, l, &counts.per_launch[i], &self.dev, budget)
        };
        let sims: Vec<LaunchSim> = match self.mode {
            SimMode::Detailed => run_memoized(plan, detailed)?,
            SimMode::DetailedNoMemo => (0..plan.launches.len())
                .into_par_iter()
                .map(detailed)
                .collect::<Result<_, _>>()?,
            SimMode::Analytical => plan
                .launches
                .iter()
                .zip(&counts.per_launch)
                .map(|(l, lc)| {
                    let k = &plan.module.kernels[l.kernel];
                    Ok(LaunchSim {
                        cycles: crate::analytical::estimate_launch(k, l, lc, &self.dev)?,
                        warp_instructions: lc.warp_issues,
                        thread_instructions: lc.thread_instructions,
                        dram_bytes: (l.bytes_read + l.bytes_written) as f64,
                        l2_hit: crate::timing::l2_hit_rate(l.bytes_read, self.dev.l2_cache_kb),
                        active_sms: self.dev.sm_count,
                    })
                })
                .collect::<Result<_, _>>()?,
        };

        let cycles: f64 = sims.iter().map(|s| s.cycles).sum();
        let dram_bytes: f64 = sims.iter().map(|s| s.dram_bytes).sum();
        let l2_hit = if dram_bytes > 0.0 {
            sims.iter().map(|s| s.l2_hit * s.dram_bytes).sum::<f64>() / dram_bytes
        } else {
            0.0
        };
        // active-SM cycle integral: each launch contributes its cycles
        // weighted by the SMs that actually held blocks (nvprof semantics)
        let active_cycles: f64 = sims
            .iter()
            .map(|s| s.cycles * s.active_sms.max(1) as f64)
            .sum();
        let ipc = counts.warp_issues as f64 / active_cycles.max(1.0);
        let latency_ms = cycles / (self.dev.boost_clock_mhz as f64 * 1e3);

        Ok(SimReport {
            model_name: plan.model_name.clone(),
            device_name: self.dev.name.clone(),
            cycles,
            warp_instructions: counts.warp_issues,
            thread_instructions: counts.thread_instructions,
            ipc,
            latency_ms,
            dram_bytes,
            l2_hit,
            num_launches: plan.launches.len(),
        })
    }
}

/// Detailed simulation with per-(kernel, grid, args, traffic)
/// memoization: repeated identical layers cost one simulation, of the
/// first launch of each shape.
fn run_memoized<F>(plan: &LaunchPlan, simulate: F) -> Result<Vec<LaunchSim>, ExecError>
where
    F: Fn(usize) -> Result<LaunchSim, ExecError> + Sync,
{
    type Key = (usize, u32, Vec<u64>, u64, u64);
    let mut firsts: Vec<usize> = Vec::new();
    let mut ids: Vec<usize> = Vec::with_capacity(plan.launches.len());
    let mut index: HashMap<Key, usize> = HashMap::new();
    for (i, l) in plan.launches.iter().enumerate() {
        let key = (
            l.kernel,
            l.grid.0,
            l.args.clone(),
            l.bytes_read,
            l.bytes_written,
        );
        let id = *index.entry(key).or_insert_with(|| {
            firsts.push(i);
            firsts.len() - 1
        });
        ids.push(id);
    }
    SIM_MEMO_MISSES.add(firsts.len() as u64);
    SIM_MEMO_HITS.add((plan.launches.len() - firsts.len()) as u64);
    let uniques: Vec<LaunchSim> = firsts
        .into_par_iter()
        .map(simulate)
        .collect::<Result<_, _>>()?;
    Ok(ids.iter().map(|&id| uniques[id].clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{gtx_1080_ti, quadro_p1000, v100s};

    fn plan_for(name: &str) -> LaunchPlan {
        let model = cnn_ir::zoo::build(name).unwrap();
        ptx_codegen::lower(&model, "sm_61").unwrap()
    }

    #[test]
    fn alexnet_simulates_on_1080ti() {
        let sim = Simulator::new(gtx_1080_ti(), SimMode::Detailed);
        let r = sim.simulate_plan(&plan_for("alexnet")).unwrap();
        assert!(r.cycles > 0.0);
        assert!(r.ipc > 0.01 && r.ipc < 8.0, "ipc {}", r.ipc);
        // AlexNet inference on a 1080 Ti is single-digit milliseconds in
        // reality; accept a broad band for the model
        assert!(
            r.latency_ms > 0.3 && r.latency_ms < 300.0,
            "latency {} ms",
            r.latency_ms
        );
    }

    #[test]
    fn memoized_equals_unmemoized() {
        let plan = plan_for("alexnet");
        let a = Simulator::new(gtx_1080_ti(), SimMode::Detailed)
            .simulate_plan(&plan)
            .unwrap();
        let b = Simulator::new(gtx_1080_ti(), SimMode::DetailedNoMemo)
            .simulate_plan(&plan)
            .unwrap();
        assert_eq!(a.warp_instructions, b.warp_instructions);
        assert!((a.cycles - b.cycles).abs() < 1e-6 * a.cycles.max(1.0));
    }

    #[test]
    fn counts_of_another_plan_are_a_typed_error() {
        let plan = plan_for("alexnet");
        let mut counts = ptx_analysis::count_plan(&plan, true).unwrap();
        counts.per_launch.pop();
        for mode in [
            SimMode::Detailed,
            SimMode::DetailedNoMemo,
            SimMode::Analytical,
        ] {
            match Simulator::new(gtx_1080_ti(), mode).simulate(
                &plan,
                &counts,
                &ExecBudget::default(),
            ) {
                Err(ExecError::Unlaunchable { reason, .. }) => {
                    assert!(reason.contains("counts cover"), "{reason}")
                }
                other => panic!("{mode:?}: expected Unlaunchable, got {other:?}"),
            }
        }
    }

    #[test]
    fn device_ordering_holds() {
        let plan = plan_for("mobilenet");
        let lat = |dev: DeviceSpec| {
            Simulator::new(dev, SimMode::Detailed)
                .simulate_plan(&plan)
                .unwrap()
                .latency_ms
        };
        let v100 = lat(v100s());
        let gtx = lat(gtx_1080_ti());
        let p1000 = lat(quadro_p1000());
        assert!(v100 < p1000, "V100S {v100} >= P1000 {p1000}");
        assert!(gtx < p1000, "1080Ti {gtx} >= P1000 {p1000}");
    }

    #[test]
    fn ipc_varies_across_models() {
        let sim = Simulator::new(gtx_1080_ti(), SimMode::Detailed);
        let a = sim.simulate_plan(&plan_for("alexnet")).unwrap().ipc;
        let b = sim.simulate_plan(&plan_for("mobilenet")).unwrap().ipc;
        assert!(
            (a - b).abs() > 1e-3,
            "IPC suspiciously identical: {a} vs {b}"
        );
    }
}
