//! Pinned simulator outputs: the exact bits of `Simulator::simulate_plan`
//! for two models, two devices and all three fidelity modes. Any change
//! to how counts reach the simulators must leave every number here
//! bit-identical.

use gpu_sim::{device_by_name, SimMode, Simulator};

/// `(model, device, mode, ipc bits, latency_ms bits, cycles bits,
/// warp_instructions, thread_instructions)`.
type Pin = (
    &'static str,
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    u64,
);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("alexnet", "GTX 1080 Ti", "detailed", 4600167949991587191, 4622655909484894051, 4715643098452459520, 118122650, 3778606573),
    ("alexnet", "GTX 1080 Ti", "detailed-no-memo", 4600167949991587191, 4622655909484894051, 4715643098452459520, 118122650, 3778606573),
    ("alexnet", "GTX 1080 Ti", "analytical", 4604479010126482182, 4615762402110313211, 4708230376161912521, 118122650, 3778606573),
    ("alexnet", "A100", "detailed", 4600302055272148119, 4620944803676672867, 4712655817342451712, 118122650, 3778606573),
    ("alexnet", "A100", "detailed-no-memo", 4600302055272148119, 4620944803676672867, 4712655817342451712, 118122650, 3778606573),
    ("alexnet", "A100", "analytical", 4601631017053946435, 4610585417555132210, 4702570336811725705, 118122650, 3778606573),
    ("vit-micro", "GTX 1080 Ti", "detailed", 4590162825283230475, 4595108923313363434, 4688203129085231103, 93265, 2937210),
    ("vit-micro", "GTX 1080 Ti", "detailed-no-memo", 4590162825283230475, 4595108923313363434, 4688203129085231103, 93265, 2937210),
    ("vit-micro", "GTX 1080 Ti", "analytical", 4580914052274405768, 4592983010009947222, 4685515193819872066, 93265, 2937210),
    ("vit-micro", "A100", "detailed", 4590780349319049975, 4595067007560748901, 4687172267677843456, 93265, 2937210),
    ("vit-micro", "A100", "detailed-no-memo", 4590780349319049975, 4595067007560748901, 4687172267677843456, 93265, 2937210),
    ("vit-micro", "A100", "analytical", 4572843543959288555, 4592879611425179897, 4684763417423993998, 93265, 2937210),
];

fn mode_of(name: &str) -> SimMode {
    match name {
        "detailed" => SimMode::Detailed,
        "detailed-no-memo" => SimMode::DetailedNoMemo,
        "analytical" => SimMode::Analytical,
        other => panic!("unknown mode {other}"),
    }
}

#[test]
fn simulate_plan_outputs_are_pinned() {
    let mut got = Vec::new();
    for model in ["alexnet", "vit-micro"] {
        let graph = cnn_ir::zoo::build_any(model).expect("model");
        for device in ["GTX 1080 Ti", "A100"] {
            let dev = device_by_name(device).expect("device");
            let plan = ptx_codegen::lower(&graph, &dev.sm_target()).expect("lower");
            for mode in ["detailed", "detailed-no-memo", "analytical"] {
                let r = Simulator::new(dev.clone(), mode_of(mode))
                    .simulate_plan(&plan)
                    .expect("simulate");
                got.push((
                    model,
                    device,
                    mode,
                    r.ipc.to_bits(),
                    r.latency_ms.to_bits(),
                    r.cycles.to_bits(),
                    r.warp_instructions,
                    r.thread_instructions,
                ));
            }
        }
    }
    assert_eq!(got.as_slice(), PINNED);
}
