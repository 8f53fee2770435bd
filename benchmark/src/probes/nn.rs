//! `nn` probes: one model of the workload's kind at batch 16, trained
//! full and under `probe_mask` at keep 0.5 and 0.25, step by step the way
//! `Client::train_local` does it.

use super::{us, ProbeInputs, Prober, BATCH, WARMUP_ITERS};
use crate::metrics::Metrics;
use crate::stats::{summarize, Summary};
use crate::workloads::BoxResult;
use helios_core::target::probe_mask;
use helios_fl::GRAD_CLIP_NORM;
use helios_nn::{CrossEntropyLoss, Network, Sgd};
use helios_tensor::{kernel_counters, uniform_init, Tensor, TensorRng};
use std::time::Instant;

/// Batch the global model is evaluated with (`FlConfig::eval_batch`).
const EVAL_BATCH: usize = 64;

/// Per-part samples of one training step, in seconds.
#[derive(Default)]
struct StepSamples {
    zero_grad: Vec<f64>,
    forward: Vec<f64>,
    loss: Vec<f64>,
    backward: Vec<f64>,
    step: Vec<f64>,
    total: Vec<f64>,
    /// Kernel flops of one whole step, from the first warm-up iteration.
    flops: u64,
}

fn train_steps(
    net: &mut Network,
    x: &Tensor,
    labels: &[usize],
    learning_rate: f32,
    iters: usize,
) -> BoxResult<StepSamples> {
    let loss_fn = CrossEntropyLoss::new();
    let mut sgd = Sgd::with_momentum(learning_rate, 0.9).with_grad_clip(GRAD_CLIP_NORM);
    let mut s = StepSamples::default();
    for it in 0..WARMUP_ITERS + iters {
        let before = kernel_counters();
        let t0 = Instant::now();
        net.zero_grad();
        let t1 = Instant::now();
        let logits = net.forward(x)?;
        let t2 = Instant::now();
        let (_, grad) = loss_fn.forward_backward(&logits, labels)?;
        let t3 = Instant::now();
        net.backward(&grad)?;
        let t4 = Instant::now();
        sgd.step(net)?;
        let t5 = Instant::now();
        if it == 0 {
            s.flops = kernel_counters().since(&before).flops;
        }
        if it >= WARMUP_ITERS {
            s.zero_grad.push((t1 - t0).as_secs_f64());
            s.forward.push((t2 - t1).as_secs_f64());
            s.loss.push((t3 - t2).as_secs_f64());
            s.backward.push((t4 - t3).as_secs_f64());
            s.step.push((t5 - t4).as_secs_f64());
            s.total.push((t5 - t0).as_secs_f64());
        }
    }
    Ok(s)
}

/// The workload model with the probes' inputs: a random batch and
/// balanced labels.
pub struct ProbeModel {
    pub net: Network,
    pub x: Tensor,
    pub labels: Vec<usize>,
}

pub fn probe_model(inputs: &ProbeInputs<'_>, batch: usize) -> ProbeModel {
    let w = inputs.workload;
    let mut rng = TensorRng::seed_from(inputs.seed ^ 0x6e6e_6e6e);
    let net = w.model.build(w.data.num_classes, &mut rng);
    let [c, h, wd] = w.model.input_dims();
    ProbeModel {
        net,
        x: uniform_init(&[batch, c, h, wd], -1.0, 1.0, &mut rng),
        labels: (0..batch).map(|i| i % w.data.num_classes).collect(),
    }
}

pub fn run(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    let w = inputs.workload;
    let mut build_rng = TensorRng::seed_from(inputs.seed);
    let build = p.time("nn.model_build", || {
        Ok(w.model.build(w.data.num_classes, &mut build_rng))
    });
    m.set("nn.model_build_us", build.map(us));

    let ProbeModel { mut net, x, labels } = probe_model(inputs, BATCH);
    let units = net.maskable_units();
    let pristine = net.param_vector();
    let mut totals: Vec<(Summary, u64)> = Vec::new();
    for (tag, keep) in [("full", None), ("k50", Some(0.5)), ("k25", Some(0.25))] {
        p.run(&format!("nn.train_step.{tag}"), |iters| {
            // Every variant starts from the same parameters.
            net.set_param_vector(&pristine)?;
            match keep {
                Some(k) => net.set_masks(&probe_mask(&units, k))?,
                None => net.clear_masks(),
            }
            let s = train_steps(&mut net, &x, &labels, w.learning_rate, iters)?;
            m.set(
                &format!("nn.train_step_us.{tag}"),
                summarize(&s.total).map(us),
            );
            m.set(
                &format!("nn.forward_us.{tag}"),
                summarize(&s.forward).map(us),
            );
            m.set(
                &format!("nn.backward_us.{tag}"),
                summarize(&s.backward).map(us),
            );
            if keep.is_none() {
                m.set("nn.step_us", summarize(&s.step).map(us));
                m.set("nn.loss_us", summarize(&s.loss).map(us));
                m.set("nn.zero_grad_us", summarize(&s.zero_grad).map(us));
            }
            totals.push((summarize(&s.total), s.flops));
            Ok(())
        });
    }
    if let [(full, full_flops), masked @ ..] = totals.as_slice() {
        for (tag, (t, flops)) in ["k50", "k25"].iter().zip(masked) {
            m.single(
                &format!("nn.masked_wall_ratio.{tag}"),
                t.median / full.median,
            );
            m.single(
                &format!("nn.masked_flop_ratio.{tag}"),
                *flops as f64 / *full_flops as f64,
            );
        }
    }

    net.clear_masks();
    let eval = probe_model(inputs, EVAL_BATCH);
    m.set(
        "nn.eval_forward_us",
        p.time("nn.eval_forward", || Ok(net.forward(&eval.x)?))
            .map(us),
    );
    m.set(
        "nn.param_vector_us",
        p.time("nn.param_vector", || Ok(net.param_vector())).map(us),
    );
    m.set(
        "nn.set_param_vector_us",
        p.time("nn.set_param_vector", || {
            Ok(net.set_param_vector(&pristine)?)
        })
        .map(us),
    );
    let mask = probe_mask(&units, 0.5);
    m.set(
        "nn.set_masks_us",
        p.time("nn.set_masks", || Ok(net.set_masks(&mask)?)).map(us),
    );
    m.set(
        "nn.param_mask_us",
        p.time("nn.param_mask", || Ok(net.layout().param_mask(&mask)))
            .map(us),
    );
}
