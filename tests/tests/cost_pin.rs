//! The analytic cost model pinned bit for bit: training FLOPs, memory and
//! parameter bytes of LeNet, AlexNet and ResNet-18 at keep 0.25, 0.5 and
//! 1.0 (`probe_mask`), under one random mask and under no mask. These
//! numbers feed straggler identification, the keep-ratio fit and every
//! simulated cycle time, so a reordered term anywhere in the layer walk —
//! the residual block's included — moves sim time; this file says where.
//! The goldens were captured with each mask installed on the network, and
//! the cost is read here without installing anything.

use helios_core::target::probe_mask;
use helios_integration::random_mask;
use helios_nn::models::ModelKind;
use helios_nn::NetworkCost;
use helios_tensor::TensorRng;

/// `("model mask", [flops_training, memory_bytes, param_bytes])` as f64
/// bits, batch 16.
#[rustfmt::skip]
const PINS: [(&str, [u64; 3]); 15] = [
    ("LeNet k25", [0x41305f0000000000, 0x40fe350000000000, 0x40b4680000000000]),
    ("LeNet k50", [0x41489f0000000000, 0x4110214000000000, 0x40d2ba0000000000]),
    ("LeNet k100", [0x41648f8000000000, 0x41223fa000000000, 0x40f1ea8000000000]),
    ("LeNet random", [0x4130482000000000, 0x41015f8000000000, 0x40bb380000000000]),
    ("LeNet none", [0x41648f8000000000, 0x41223fa000000000, 0x40f1ea8000000000]),
    ("AlexNet k25", [0x416053c000000000, 0x4114734000000000, 0x40d54a0000000000]),
    ("AlexNet k50", [0x417b33c000000000, 0x4126d9a000000000, 0x40f4528000000000]),
    ("AlexNet k100", [0x419879e000000000, 0x413baed000000000, 0x4113d8a000000000]),
    ("AlexNet random", [0x417535ca00000000, 0x4124891000000000, 0x40e2b08000000000]),
    ("AlexNet none", [0x419879e000000000, 0x413baed000000000, 0x4113d8a000000000]),
    ("ResNet18 k25", [0x418ccbc000000000, 0x4139da5000000000, 0x40d9fa0000000000]),
    ("ResNet18 k50", [0x41a215f000000000, 0x4142f8e800000000, 0x40ee750000000000]),
    ("ResNet18 k100", [0x41ba41f800000000, 0x414fa4e800000000, 0x4104fd4000000000]),
    ("ResNet18 random", [0x4194946000000000, 0x414049e800000000, 0x40e6950000000000]),
    ("ResNet18 none", [0x41ba41f800000000, 0x414fa4e800000000, 0x4104fd4000000000]),
];

#[test]
fn cost_bits_are_pinned_per_model_and_mask() {
    for (name, want) in PINS {
        let (model, tag) = name.split_once(' ').expect("model and mask");
        let kind = match model {
            "LeNet" => ModelKind::LeNet,
            "AlexNet" => ModelKind::AlexNet,
            _ => ModelKind::ResNet18,
        };
        let net = kind.build(10, &mut TensorRng::seed_from(0));
        let units = net.maskable_units();
        let mask = match tag {
            "k25" => Some(probe_mask(&units, 0.25)),
            "k50" => Some(probe_mask(&units, 0.5)),
            "k100" => Some(probe_mask(&units, 1.0)),
            "random" => Some(random_mask(&units)),
            _ => None,
        };
        let c = NetworkCost::of(&net, mask.as_ref(), 16);
        let got = [c.flops_training(), c.memory_bytes(), c.param_bytes()].map(f64::to_bits);
        assert_eq!(got, want, "{name}");
    }
}
