//! **BENCH_parallel** — kernel-throughput and thread-scaling
//! microbenchmark for the execution engine.
//!
//! Two sections, both written to `results/BENCH_parallel.json`:
//!
//! 1. **Single-core GEMM throughput** — the blocked cache-aware kernel
//!    (`matmul`) versus the pinned naive reference (`naive_matmul`) on
//!    the GEMM shapes a LeNet/AlexNet-class federated round actually
//!    runs (im2col'd convs, dense forward/backward), in flops/s. This
//!    section **self-checks**: the bench exits nonzero unless the
//!    blocked kernel's geometric-mean speedup across the alexnet-class
//!    shapes is ≥ 3× and every shape clears a 1.8× floor. (Per-shape
//!    3× everywhere is not physically available: on L1-resident dense
//!    shapes the naive kernel already runs near half of the machine's
//!    non-FMA peak.)
//! 2. **Thread scaling** — the hot tensor kernels (matmul, conv2d
//!    forward/backward) and a full federated client round
//!    (`FlEnv::train_selected`) at thread budgets 1/2/4/8, with speedups
//!    relative to the serial baseline. On a single-core host every
//!    speedup is ≈1.0 (the engine degrades to inline serial
//!    execution); the parity test suite — not this bench — is what
//!    guarantees correctness at every width.

use helios_bench::results_dir;
use helios_data::{partition, Dataset, SyntheticVision};
use helios_device::presets;
use helios_fl::{FlConfig, FlEnv};
use helios_nn::models::ModelKind;
use helios_tensor::{
    conv2d, conv2d_backward, naive_matmul, uniform_init, ConvSpec, ParallelismConfig, Tensor,
    TensorRng,
};
use serde::Serialize;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

/// Gates for the blocked-vs-naive self-check (single core, best-of-N).
const GEOMEAN_FLOOR: f64 = 3.0;
const PER_SHAPE_FLOOR: f64 = 1.8;

/// Best-of trials for the GEMM throughput section: machine noise on a
/// shared host easily reaches ±25%, so each trial runs a fixed wall
/// window and the fastest per-iteration time wins.
const GEMM_TRIALS: usize = 6;
const GEMM_WINDOW_MS: u128 = 60;

#[derive(Debug, Serialize)]
struct KernelRecord {
    kernel: String,
    threads: usize,
    millis: f64,
    speedup_vs_serial: f64,
}

#[derive(Debug, Serialize)]
struct GemmRecord {
    shape: String,
    m: usize,
    k: usize,
    n: usize,
    /// Part of the alexnet-class set the self-check gates on.
    alexnet: bool,
    naive_gflops: f64,
    blocked_gflops: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    hardware_threads: usize,
    reps: usize,
    note: String,
    gemm_single_core: Vec<GemmRecord>,
    /// Geometric-mean blocked/naive speedup over the alexnet shapes —
    /// the self-checked headline number.
    gemm_geomean_speedup: f64,
    records: Vec<KernelRecord>,
}

/// Best-of-`REPS` wall time in milliseconds (minimum is the standard
/// low-noise estimator for short deterministic kernels).
fn time_millis(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-`GEMM_TRIALS` throughput in flops/s: each trial spins the
/// kernel for a fixed wall window and the fastest per-iteration time
/// across trials wins.
fn throughput(f: &dyn Fn() -> Tensor, flops: f64) -> f64 {
    std::hint::black_box(f()); // warm-up (and workspace priming)
    let mut best_per_iter = f64::INFINITY;
    for _ in 0..GEMM_TRIALS {
        let start = Instant::now();
        let mut iters = 0u32;
        while start.elapsed().as_millis() < GEMM_WINDOW_MS {
            std::hint::black_box(f());
            iters += 1;
        }
        best_per_iter = best_per_iter.min(start.elapsed().as_secs_f64() / f64::from(iters));
    }
    flops / best_per_iter
}

/// The GEMM shapes one federated AlexNet-class cycle actually issues
/// (im2col'd convolutions and dense layers, forward and backward),
/// plus two square reference points. `(name, m, k, n, alexnet)`.
const GEMM_SHAPES: [(&str, usize, usize, usize, bool); 10] = [
    ("square_512", 512, 512, 512, false),
    ("square_1024", 1024, 1024, 1024, false),
    ("conv1_fwd", 2048, 27, 16, true),
    ("conv2_fwd", 512, 144, 32, true),
    ("conv3_fwd", 512, 288, 32, true),
    ("conv2_bwd_dw", 32, 512, 144, true),
    ("dense1_fwd", 32, 512, 128, true),
    ("dense1_bwd_dw", 512, 32, 128, true),
    ("dense1_bwd_dx", 32, 128, 512, true),
    ("dense2_fwd", 32, 128, 10, true),
];

/// Times the blocked kernel against the pinned naive reference on a
/// single core and returns the per-shape curve plus the alexnet
/// geometric-mean speedup.
fn bench_gemm_single_core() -> (Vec<GemmRecord>, f64) {
    let _serial = ParallelismConfig::serial().scoped();
    let mut rng = TensorRng::seed_from(42);
    let mut out = Vec::new();
    for (shape, m, k, n, alexnet) in GEMM_SHAPES {
        let a = uniform_init(&[m, k], -1.0, 1.0, &mut rng);
        let b = uniform_init(&[k, n], -1.0, 1.0, &mut rng);
        let flops = (2 * m * k * n) as f64;
        let blocked = throughput(&|| a.matmul(&b).expect("matmul"), flops);
        let naive = throughput(&|| naive_matmul(&a, &b).expect("naive"), flops);
        out.push(GemmRecord {
            shape: shape.to_string(),
            m,
            k,
            n,
            alexnet,
            naive_gflops: naive / 1e9,
            blocked_gflops: blocked / 1e9,
            speedup: blocked / naive,
        });
    }
    let alexnet: Vec<f64> = out
        .iter()
        .filter(|r| r.alexnet)
        .map(|r| r.speedup)
        .collect();
    let geomean = (alexnet.iter().map(|s| s.ln()).sum::<f64>() / alexnet.len() as f64).exp();
    (out, geomean)
}

fn bench_kernels(records: &mut Vec<KernelRecord>) {
    let mut rng = TensorRng::seed_from(7);
    let a = uniform_init(&[256, 256], -1.0, 1.0, &mut rng);
    let b = uniform_init(&[256, 256], -1.0, 1.0, &mut rng);
    let spec = ConvSpec::new(3, 16, 3, 1, 1);
    let x = uniform_init(&[8, 3, 32, 32], -1.0, 1.0, &mut rng);
    let w = uniform_init(&spec.weight_dims(), -0.5, 0.5, &mut rng);
    let bias = uniform_init(&[16], -0.1, 0.1, &mut rng);
    let (oh, ow) = spec.output_hw(32, 32);
    let gout = uniform_init(&[8, 16, oh, ow], -1.0, 1.0, &mut rng);

    type NamedKernel<'a> = (&'a str, Box<dyn Fn()>);
    let kernels: Vec<NamedKernel<'_>> = vec![
        (
            "matmul_256",
            Box::new({
                let (a, b) = (a.clone(), b.clone());
                move || {
                    a.matmul(&b).expect("matmul");
                }
            }),
        ),
        (
            "conv2d_8x3x32",
            Box::new({
                let (x, w, bias) = (x.clone(), w.clone(), bias.clone());
                move || {
                    conv2d(&x, &w, &bias, &spec).expect("conv2d");
                }
            }),
        ),
        (
            "conv2d_backward_8x3x32",
            Box::new({
                let (x, w, gout) = (x.clone(), w.clone(), gout.clone());
                move || {
                    conv2d_backward(&x, &w, &gout, &spec).expect("conv2d_backward");
                }
            }),
        ),
    ];

    for (name, f) in &kernels {
        let mut serial_ms = 0.0;
        for &t in &THREADS {
            let guard = ParallelismConfig::with_threads(t);
            let ms = time_millis(|| {
                let _g = guard.scoped();
                f();
            });
            if t == 1 {
                serial_ms = ms;
            }
            records.push(KernelRecord {
                kernel: (*name).to_string(),
                threads: t,
                millis: ms,
                speedup_vs_serial: serial_ms / ms,
            });
        }
    }
}

fn client_round_env(threads: usize) -> FlEnv {
    let clients = 4;
    let mut rng = TensorRng::seed_from(11);
    let (train, test) = SyntheticVision::mnist_like()
        .generate(40 * clients, 40, &mut rng)
        .expect("dataset");
    let shards: Vec<Dataset> = partition::iid(train.len(), clients, &mut rng)
        .into_iter()
        .map(|idx| train.subset(&idx).expect("subset"))
        .collect();
    FlEnv::new(
        ModelKind::LeNet,
        presets::mixed_fleet(2, 2),
        shards,
        test,
        FlConfig {
            parallelism: ParallelismConfig::with_threads(threads),
            ..FlConfig::default()
        },
    )
    .expect("env")
}

fn bench_client_round(records: &mut Vec<KernelRecord>) {
    let mut serial_ms = 0.0;
    for &t in &THREADS {
        let mut env = client_round_env(t);
        let ms = time_millis(|| {
            // Re-broadcast so every rep trains from the same state.
            env.broadcast_global(0).expect("broadcast");
            env.train_selected(&[0, 1, 2, 3]).expect("train_selected");
        });
        if t == 1 {
            serial_ms = ms;
        }
        records.push(KernelRecord {
            kernel: "fl_client_round_4x".to_string(),
            threads: t,
            millis: ms,
            speedup_vs_serial: serial_ms / ms,
        });
    }
}

fn main() {
    // Zero the process-global host accumulators (kernel counters, nn
    // wall timers) so repeated bench invocations don't bleed totals.
    let _host = helios_nn::HostMetricsScope::enter();
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let (gemm, geomean) = bench_gemm_single_core();
    println!("Blocked vs naive GEMM — single core, best of {GEMM_TRIALS}");
    println!(
        "{:<16} {:>6} {:>5} {:>5} {:>14} {:>16} {:>9}",
        "shape", "m", "k", "n", "naive GF/s", "blocked GF/s", "speedup"
    );
    for r in &gemm {
        println!(
            "{:<16} {:>6} {:>5} {:>5} {:>14.2} {:>16.2} {:>8.2}x",
            r.shape, r.m, r.k, r.n, r.naive_gflops, r.blocked_gflops, r.speedup
        );
    }
    println!("alexnet-shape geomean speedup: {geomean:.2}x\n");

    let mut records = Vec::new();
    bench_kernels(&mut records);
    bench_client_round(&mut records);

    println!("Parallel execution engine — thread scaling (hardware threads: {hardware})");
    println!(
        "{:<24} {:>8} {:>12} {:>10}",
        "kernel", "threads", "best ms", "speedup"
    );
    for r in &records {
        println!(
            "{:<24} {:>8} {:>12.3} {:>9.2}x",
            r.kernel, r.threads, r.millis, r.speedup_vs_serial
        );
    }

    let report = BenchReport {
        hardware_threads: hardware,
        reps: REPS,
        note: "gemm_single_core compares the blocked cache-aware kernel to the pinned \
               naive reference on one core (self-checked: alexnet geomean >= 3x). \
               Thread-scaling speedups are machine-dependent: they scale with physical \
               cores up to the thread budget, and an explicit budget above the hardware \
               thread count only adds spawn overhead (<=1.0 on a single-core host). \
               Outputs are bitwise identical at every width; see \
               tests/tests/parallel_parity.rs and tests/tests/gemm_parity.rs"
            .to_string(),
        gemm_single_core: gemm,
        gemm_geomean_speedup: geomean,
        records,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("BENCH_parallel.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write report");
    println!("\nwrote {}", path.display());

    // Self-check: the blocked kernel must actually pay for its
    // complexity on the shapes a federated round runs.
    let mut failed = false;
    for r in report.gemm_single_core.iter().filter(|r| r.alexnet) {
        if r.speedup < PER_SHAPE_FLOOR {
            eprintln!(
                "SELF-CHECK FAIL: {} blocked/naive {:.2}x < per-shape floor {PER_SHAPE_FLOOR}x",
                r.shape, r.speedup
            );
            failed = true;
        }
    }
    if report.gemm_geomean_speedup < GEOMEAN_FLOOR {
        eprintln!(
            "SELF-CHECK FAIL: alexnet geomean {:.2}x < {GEOMEAN_FLOOR}x",
            report.gemm_geomean_speedup
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "self-check OK: alexnet geomean {:.2}x >= {GEOMEAN_FLOOR}x, every shape >= {PER_SHAPE_FLOOR}x",
        report.gemm_geomean_speedup
    );
}
