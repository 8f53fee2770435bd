//! `tensor` probes: the GEMM shapes the workload model lowers to at
//! batch 16, its heaviest convolution, its first pooling layer, and the
//! gather/scatter that packed execution adds.
//!
//! The shape table is derived from the model's layer specs (the README
//! lists it for both models) and cross-checked against the kernel flop
//! counter: one forward and one backward pass must count exactly the
//! flops the table predicts.

use super::nn::probe_model;
use super::{measure, us, ProbeInputs, Prober, BATCH};
use crate::metrics::Metrics;
use crate::stats::summarize;
use crate::workloads::BoxResult;
use helios_nn::{CrossEntropyLoss, Layer, Network};
use helios_tensor::{
    conv2d, conv2d_backward, conv2d_backward_packed, gather_channels, gather_rows_cols,
    kernel_counters, max_pool2d, max_pool2d_backward, scatter_channels, uniform_init, ConvSpec,
    PoolSpec, Tensor, TensorRng,
};

/// Which public GEMM entry point a shape goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `a[m,k].matmul(b[k,n])`
    Nn,
    /// `a[k,m].matmul_tn(b[k,n])`
    Tn,
    /// `a[m,k].matmul_nt(b[n,k])`
    Nt,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmShape {
    pub layer: String,
    pub forward: bool,
    pub entry: Entry,
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

impl GemmShape {
    /// A constructor for the shapes of one layer:
    /// `(forward, entry, m, k, n)`.
    fn in_layer(layer: String) -> impl Fn(bool, Entry, usize, usize, usize) -> GemmShape {
        move |forward, entry, m, k, n| GemmShape {
            layer: layer.clone(),
            forward,
            entry,
            m,
            k,
            n,
        }
    }

    pub fn flops(&self) -> u64 {
        2 * (self.m * self.k * self.n) as u64
    }
}

/// What the model lowers to at a given batch size.
#[derive(Debug, Default)]
pub struct Lowering {
    pub gemms: Vec<GemmShape>,
    /// Flops the pooling layers count in a forward / a backward pass.
    pub pool_fwd_flops: u64,
    pub pool_bwd_flops: u64,
    /// The convolution with the most forward flops, with its input
    /// height and width.
    pub heaviest_conv: Option<(ConvSpec, usize, usize)>,
    /// The first max-pool layer, with its input `[C, H, W]`.
    pub first_pool: Option<(PoolSpec, [usize; 3])>,
}

/// Walks the layer list, tracking the activation shape, and lists every
/// GEMM a training step issues.
pub fn lower(net: &Network, batch: usize) -> BoxResult<Lowering> {
    let dims = net.input_dims();
    let (mut c, mut h, mut w) = (dims[0], dims[1], dims[2]);
    let mut out = Lowering::default();
    let (mut convs, mut denses, mut heaviest) = (0, 0, 0u64);
    for layer in net.layers() {
        match layer {
            Layer::Conv2d(conv) => {
                convs += 1;
                let spec = *conv.spec();
                let (oh, ow) = spec.output_hw(h, w);
                let rows = batch * oh * ow;
                let patch = spec.in_channels * spec.kernel * spec.kernel;
                let o = spec.out_channels;
                let shape = GemmShape::in_layer(format!("conv{convs}"));
                let fwd = shape(true, Entry::Nt, rows, patch, o);
                if fwd.flops() > heaviest {
                    heaviest = fwd.flops();
                    out.heaviest_conv = Some((spec, h, w));
                }
                out.gemms.push(fwd);
                out.gemms.push(shape(false, Entry::Tn, o, rows, patch));
                out.gemms.push(shape(false, Entry::Nn, rows, o, patch));
                (c, h, w) = (o, oh, ow);
            }
            Layer::Dense(dense) => {
                denses += 1;
                let (i, o) = (dense.in_features(), dense.out_features());
                let shape = GemmShape::in_layer(format!("fc{denses}"));
                out.gemms.push(shape(true, Entry::Nn, batch, i, o));
                out.gemms.push(shape(false, Entry::Tn, i, batch, o));
                out.gemms.push(shape(false, Entry::Nt, batch, o, i));
            }
            Layer::MaxPool2d(pool) => {
                let spec = *pool.spec();
                out.first_pool.get_or_insert((spec, [c, h, w]));
                let (oh, ow) = spec.output_hw(h, w);
                let outputs = (batch * c * oh * ow) as u64;
                out.pool_fwd_flops += outputs * (spec.kernel * spec.kernel) as u64;
                out.pool_bwd_flops += outputs;
                (h, w) = (oh, ow);
            }
            Layer::Relu(_) | Layer::Flatten(_) => {}
            other => {
                return Err(format!("no GEMM lowering rule for layer {other:?}").into());
            }
        }
    }
    Ok(out)
}

fn random(dims: &[usize], rng: &mut TensorRng) -> Tensor {
    uniform_init(dims, -1.0, 1.0, rng)
}

/// Times one shape through its entry point: seconds per call, and the
/// workspace reallocations inside the timed calls.
fn time_gemm(shape: &GemmShape, iters: usize, rng: &mut TensorRng) -> BoxResult<(Vec<f64>, u64)> {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let (a, b) = match shape.entry {
        Entry::Nn => (random(&[m, k], rng), random(&[k, n], rng)),
        Entry::Tn => (random(&[k, m], rng), random(&[k, n], rng)),
        Entry::Nt => (random(&[m, k], rng), random(&[n, k], rng)),
    };
    measure(iters, || {
        Ok(match shape.entry {
            Entry::Nn => a.matmul(&b),
            Entry::Tn => a.matmul_tn(&b),
            Entry::Nt => a.matmul_nt(&b),
        }?)
    })
}

/// One forward and one backward pass must count the flops the lowering
/// predicts, or the shape table no longer describes the model.
fn check_against_flop_counter(inputs: &ProbeInputs<'_>, lowering: &Lowering) -> BoxResult<()> {
    let mut pm = probe_model(inputs, BATCH);
    let sum = |forward: bool| -> u64 {
        lowering
            .gemms
            .iter()
            .filter(|g| g.forward == forward)
            .map(GemmShape::flops)
            .sum()
    };
    let before = kernel_counters();
    let logits = pm.net.forward(&pm.x)?;
    let fwd = kernel_counters().since(&before).flops;
    let (_, grad) = CrossEntropyLoss::new().forward_backward(&logits, &pm.labels)?;
    let before = kernel_counters();
    pm.net.backward(&grad)?;
    let bwd = kernel_counters().since(&before).flops;
    let (want_fwd, want_bwd) = (
        sum(true) + lowering.pool_fwd_flops,
        sum(false) + lowering.pool_bwd_flops,
    );
    if (fwd, bwd) != (want_fwd, want_bwd) {
        return Err(format!(
            "shape table predicts {want_fwd} forward / {want_bwd} backward flops, \
             the kernel counter saw {fwd} / {bwd}"
        )
        .into());
    }
    Ok(())
}

/// Every `step`-th index below `n`, at least one.
fn strided(n: usize, step: usize) -> Vec<usize> {
    (0..n).step_by(step).collect()
}

pub fn run(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    let mut rng = TensorRng::seed_from(inputs.seed ^ 0x7465_6e73);
    let lowering = match lower(&probe_model(inputs, BATCH).net, BATCH) {
        Ok(l) => l,
        Err(e) => {
            p.tally.op::<(), _>("tensor.lower", Err(e));
            return;
        }
    };
    p.tally.op(
        "tensor.shape_table_vs_flop_counter",
        check_against_flop_counter(inputs, &lowering),
    );

    let reallocs_before = p.timed_reallocs;
    let mut gemm_reallocs = 0;

    // GEMM: sample j of a geomean is the geomean over shapes of each
    // shape's j-th timing, so the summary keeps a real spread.
    p.run("tensor.gemm", |iters| {
        let mut rates: Vec<(bool, Vec<f64>)> = Vec::new();
        for shape in &lowering.gemms {
            let (secs, reallocs) = time_gemm(shape, iters, &mut rng)?;
            gemm_reallocs += reallocs;
            let gflop = shape.flops() as f64 / 1e9;
            rates.push((shape.forward, secs.iter().map(|s| gflop / s).collect()));
        }
        let geomean = |forward: bool| -> Vec<f64> {
            let rows: Vec<&Vec<f64>> = rates
                .iter()
                .filter(|(f, _)| *f == forward)
                .map(|(_, r)| r)
                .collect();
            (0..iters)
                .map(|j| {
                    let log_sum: f64 = rows.iter().map(|r| r[j].ln()).sum();
                    (log_sum / rows.len() as f64).exp()
                })
                .collect()
        };
        let slowest: Vec<f64> = (0..iters)
            .map(|j| {
                rates
                    .iter()
                    .map(|(_, r)| r[j])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        m.set("tensor.gemm_gflops.fwd_geomean", summarize(&geomean(true)));
        m.set("tensor.gemm_gflops.bwd_geomean", summarize(&geomean(false)));
        m.set("tensor.gemm_gflops.min_shape", summarize(&slowest));
        Ok(())
    });

    if let Some((spec, h, w)) = lowering.heaviest_conv {
        let (oh, ow) = spec.output_hw(h, w);
        let input = random(&[BATCH, spec.in_channels, h, w], &mut rng);
        let weight = random(&spec.weight_dims(), &mut rng);
        let bias = random(&[spec.out_channels], &mut rng);
        let grad_out = random(&[BATCH, spec.out_channels, oh, ow], &mut rng);
        m.set(
            "tensor.conv2d_fwd_us",
            p.time("tensor.conv2d_fwd", || {
                Ok(conv2d(&input, &weight, &bias, &spec)?)
            })
            .map(us),
        );
        m.set(
            "tensor.conv2d_bwd_us",
            p.time("tensor.conv2d_bwd", || {
                Ok(conv2d_backward(&input, &weight, &grad_out, &spec)?)
            })
            .map(us),
        );
        // Keep 0.25 on both axes: every fourth input and output channel.
        let (in_idx, out_idx) = (strided(spec.in_channels, 4), strided(spec.out_channels, 4));
        let packed = (|| -> BoxResult<_> {
            Ok((
                gather_channels(&input, &in_idx)?,
                gather_rows_cols(&weight, Some(&out_idx), None)?,
                gather_channels(&grad_out, &out_idx)?,
            ))
        })();
        if let Some((input_p, weight_rows, grad_p)) = p.tally.op("tensor.pack_operands", packed) {
            m.set(
                "tensor.conv2d_bwd_packed_us.k25",
                p.time("tensor.conv2d_bwd_packed", || {
                    Ok(conv2d_backward_packed(
                        &input_p,
                        &weight_rows,
                        &grad_p,
                        &spec,
                    )?)
                })
                .map(us),
            );
        }
        // Gather/scatter move half of the conv output's channel planes;
        // the rate counts the bytes read plus the bytes written.
        let half = strided(spec.out_channels, 2);
        let moved_gb = 2.0 * (BATCH * half.len() * oh * ow * 4) as f64 / 1e9;
        let gathered = p.time("tensor.gather", || Ok(gather_channels(&grad_out, &half)?));
        m.set("tensor.gather_gbps", gathered.map(|s| moved_gb / s));
        if let Ok(src) = gather_channels(&grad_out, &half) {
            let scattered = p.time("tensor.scatter", || {
                Ok(scatter_channels(&src, &half, spec.out_channels)?)
            });
            m.set("tensor.scatter_gbps", scattered.map(|s| moved_gb / s));
        }
    }

    if let Some((spec, [c, h, w])) = lowering.first_pool {
        let input = random(&[BATCH, c, h, w], &mut rng);
        m.set(
            "tensor.pool_fwd_us",
            p.time("tensor.pool_fwd", || Ok(max_pool2d(&input, &spec)?))
                .map(us),
        );
        if let Ok((pooled, indices)) = max_pool2d(&input, &spec) {
            m.set(
                "tensor.pool_bwd_us",
                p.time("tensor.pool_bwd", || {
                    Ok(max_pool2d_backward(&pooled, &indices)?)
                })
                .map(us),
            );
        }
    }

    // Each probe's untimed iterations warm the arena for its sizes, so
    // the timed ones are the steady state and should allocate nothing.
    let reallocs = p.timed_reallocs - reallocs_before + gemm_reallocs;
    m.single("tensor.workspace_reallocs", reallocs as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_nn::models::ModelKind;

    fn table(model: ModelKind) -> Vec<(String, bool, usize, usize, usize)> {
        let net = model.build(10, &mut TensorRng::seed_from(0));
        lower(&net, BATCH)
            .expect("lowering")
            .gemms
            .into_iter()
            .map(|g| (g.layer, g.forward, g.m, g.k, g.n))
            .collect()
    }

    /// The README prints these tables; keep them in step.
    #[test]
    fn shape_tables_match_the_readme() {
        let alexnet = table(ModelKind::AlexNet);
        assert_eq!(alexnet.len(), 15);
        assert_eq!(alexnet[0], ("conv1".into(), true, 4096, 27, 16));
        assert_eq!(alexnet[6], ("conv3".into(), true, 1024, 288, 32));
        assert_eq!(alexnet[7], ("conv3".into(), false, 32, 1024, 288));
        assert_eq!(alexnet[9], ("fc1".into(), true, 16, 512, 128));
        assert_eq!(alexnet[14], ("fc2".into(), false, 16, 10, 128));
        let lenet = table(ModelKind::LeNet);
        assert_eq!(lenet.len(), 12);
        assert_eq!(lenet[0], ("conv1".into(), true, 4096, 9, 8));
        assert_eq!(lenet[3], ("conv2".into(), true, 1024, 72, 16));
        assert_eq!(lenet[6], ("fc1".into(), true, 16, 256, 64));
    }

    #[test]
    fn residual_models_are_refused_not_mislowered() {
        let net = ModelKind::ResNet18.build(10, &mut TensorRng::seed_from(0));
        assert!(lower(&net, BATCH).is_err());
    }
}
