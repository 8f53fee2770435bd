//! `fl`, `helios`, `data` and `device` probes: the per-participant
//! bookkeeping around training — lazy materialization, cohort sampling,
//! streaming aggregation, straggler identification and mask selection,
//! and the input generators.

use super::{ns, us, ProbeInputs, Prober, BATCH, WARMUP_ITERS};
use crate::metrics::Metrics;
use crate::stats::summarize;
use crate::workloads::{BoxResult, Fleet, StrategyKind};
use helios_core::softtrain::{contributions_from_delta, SoftTrainer};
use helios_core::{aggregation, identify, target};
use helios_fl::{
    AvailabilityModel, ClientSampler, FlEnv, MaskedUpdate, OnlineAggregator, SamplerConfig,
};
use helios_tensor::TensorRng;
use std::hint::black_box;
use std::time::Instant;

/// Slowdown over the fastest cohort member that makes a straggler
/// (`HeliosConfig::default()`'s threshold).
const SLOWDOWN_THRESHOLD: f64 = 1.5;

/// Calls per timed sample for operations that take well under a
/// microsecond.
const TINY_BATCH: usize = 1_000;

pub fn run(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    fleet(p, inputs, m);
    aggregator(p, inputs, m);
    helios(p, inputs, m);
    data_device(p, inputs, m);
}

/// Lazy-fleet bookkeeping; `n/a` on an eager fleet, which builds every
/// client in `FlEnv::new` and selects everyone.
fn fleet(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    let w = inputs.workload;
    let Fleet::Lazy {
        population, cohort, ..
    } = w.fleet
    else {
        m.na("fl.materialize_client_us");
        m.na("fl.sampler_cohort_us");
        return;
    };
    p.run("fl.materialize_client", |iters| {
        // A fresh environment has materialized nobody, so every id is
        // an unsampled one; spread the ids over the population.
        let mut env = w.build_env(inputs.seed, 1)?;
        let total = WARMUP_ITERS + iters;
        let mut samples = Vec::with_capacity(iters);
        for it in 0..total {
            let id = it * (population / total);
            let t = Instant::now();
            env.ensure_client(id)?;
            if it >= WARMUP_ITERS {
                samples.push(t.elapsed().as_secs_f64());
            }
        }
        m.set("fl.materialize_client_us", summarize(&samples).map(us));
        Ok(())
    });
    let sampler = ClientSampler::new(SamplerConfig::uniform(cohort), inputs.seed);
    let availability = AvailabilityModel::always_on();
    let mut cycle = 0;
    let drawn = p.time("fl.sampler_cohort", || {
        cycle += 1;
        Ok(sampler.cohort(population, cycle, &availability))
    });
    m.set("fl.sampler_cohort_us", drawn.map(us));
}

/// The streaming FedAvg fold over the captured updates, the way both
/// policies drive it: full vectors, one weight each.
fn aggregator(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    let (updates, base) = (&inputs.captured.updates, &inputs.captured.base);
    p.run("fl.aggregator", |iters| {
        if updates.is_empty() {
            return Err("the traced run captured no updates".into());
        }
        let pushed_params = (updates.len() * base.len()) as f64;
        let (mut push, mut finish) = (Vec::new(), Vec::new());
        for it in 0..WARMUP_ITERS + iters {
            let mut global = base.clone();
            let mut acc = OnlineAggregator::new(global.len());
            let t0 = Instant::now();
            for u in updates {
                acc.push(&MaskedUpdate {
                    params: &u.params,
                    param_mask: None,
                    weight: u.num_samples as f64,
                });
            }
            let t1 = Instant::now();
            acc.finish_into(&mut global);
            let t2 = Instant::now();
            black_box(&global);
            if it >= WARMUP_ITERS {
                push.push((t1 - t0).as_secs_f64() / pushed_params);
                finish.push((t2 - t1).as_secs_f64());
            }
        }
        m.set("fl.aggregator_push_ns_per_param", summarize(&push).map(ns));
        m.set("fl.aggregator_finish_us", summarize(&finish).map(us));
        Ok(())
    });
}

/// A fresh 1-thread environment with cycle 0's cohort materialized.
fn env_with_cohort(inputs: &ProbeInputs<'_>) -> BoxResult<(FlEnv, Vec<usize>)> {
    let mut env = inputs.workload.build_env(inputs.seed, 1)?;
    let cohort = env.select_cohort(0)?;
    Ok((env, cohort))
}

const HELIOS_PROBED: [&str; 5] = [
    "helios.next_mask_us",
    "helios.contributions_us",
    "helios.identify_us",
    "helios.fit_keep_us",
    "helios.weights_us",
];

fn helios(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    if inputs.workload.strategy != StrategyKind::Helios {
        HELIOS_PROBED.iter().for_each(|n| m.na(n));
        return;
    }
    let Some((mut env, cohort)) = p.tally.op("helios.env", env_with_cohort(inputs)) else {
        return;
    };
    let identified = p.time("helios.identify", || {
        Ok(identify::resource_based_combined_cohort(
            &env,
            &cohort,
            SLOWDOWN_THRESHOLD,
        )?)
    });
    m.set("helios.identify_us", identified.map(us));

    // Fit one straggler's volume to the capable pace, as
    // `HeliosStrategy` does at its first cohort.
    let fit_inputs = (|| -> BoxResult<_> {
        let stragglers =
            identify::resource_based_combined_cohort(&env, &cohort, SLOWDOWN_THRESHOLD)?;
        let &straggler = stragglers.first().ok_or("the cohort has no straggler")?;
        let mut deadline = helios_device::SimTime::ZERO;
        for &i in cohort.iter().filter(|i| !stragglers.contains(i)) {
            deadline = deadline.max(env.combined_cycle_time(i)?);
        }
        let budget = target::comm_adjusted_deadline(deadline, env.comm_overhead(straggler)?);
        Ok((straggler, budget))
    })();
    if let Some((straggler, budget)) = p.tally.op("helios.fit_inputs", fit_inputs) {
        let fitted = p.time("helios.fit_keep", || {
            Ok(target::fitted_keep_ratio(
                env.client_mut(straggler)?,
                budget,
            )?)
        });
        m.set("helios.fit_keep_us", fitted.map(us));
    }

    let (updates, base) = (&inputs.captured.updates, &inputs.captured.base);
    let Some(update) = updates.first() else {
        p.tally
            .op::<(), _>("helios.captured", Err("the traced run captured no updates"));
        return;
    };
    let model = (|| -> BoxResult<_> {
        let net = env.client_mut(update.client)?.network_mut();
        Ok((net.layout(), net.maskable_units()))
    })();
    let Some((layout, units)) = p.tally.op("helios.layout", model) else {
        return;
    };
    let contributed = p.time("helios.contributions", || {
        Ok(contributions_from_delta(
            &layout,
            &units,
            base,
            &update.params,
        ))
    });
    m.set("helios.contributions_us", contributed.map(us));

    let contributions = contributions_from_delta(&layout, &units, base, &update.params);
    let rng = TensorRng::seed_from(inputs.seed ^ 0x6d61_736b);
    if let Some(mut trainer) = p.tally.op(
        "helios.soft_trainer",
        SoftTrainer::new(units, 0.5, 0.1, true, rng),
    ) {
        let masked = p.time("helios.next_mask", || {
            Ok(trainer.next_mask(Some(&contributions)))
        });
        m.set("helios.next_mask_us", masked.map(us));
    }

    let ratios: Vec<f64> = updates.iter().map(|u| u.keep_ratio).collect();
    let samples: Vec<usize> = updates.iter().map(|u| u.num_samples).collect();
    let weighed = p.time("helios.weights", || {
        Ok(aggregation::combined_weights(&ratios, &samples))
    });
    m.set("helios.weights_us", weighed.map(us));
}

fn data_device(p: &mut Prober<'_>, inputs: &ProbeInputs<'_>, m: &mut Metrics) {
    let w = inputs.workload;
    let shard = match w.fleet {
        Fleet::Eager {
            capable,
            stragglers,
            samples_per_client,
        } => {
            let train = samples_per_client * (capable + stragglers);
            let generated = p.time("data.generate", || {
                let mut rng = TensorRng::seed_from(inputs.seed);
                Ok(w.data.generate(train, w.test_samples, &mut rng)?)
            });
            m.set("data.generate_ms", generated.map(|s| s * 1e3));
            m.na("data.shard_synth_us");
            m.na("device.profile_synth_us");
            w.eager_data(inputs.seed)
                .map(|(mut shards, _)| shards.swap_remove(0))
        }
        Fleet::Lazy { population, .. } => {
            m.na("data.generate_ms");
            let spec = match p.tally.op("data.fleet_spec", w.fleet_spec(inputs.seed)) {
                Some(s) => s,
                None => return,
            };
            let mut device = 0;
            let synthesized = p.time("data.shard_synth", || {
                device = (device + 7919) % population;
                Ok(spec.shards.shard(device)?)
            });
            m.set("data.shard_synth_us", synthesized.map(us));
            let profiled = p.time_batched("device.profile_synth", TINY_BATCH, || {
                for i in 0..TINY_BATCH {
                    black_box(spec.profiles.profile(black_box(i)));
                }
                Ok(())
            });
            m.set("device.profile_synth_us", profiled.map(us));
            spec.shards.shard(0).map_err(Into::into)
        }
    };
    if let Some(shard) = p.tally.op("data.shard", shard) {
        let mut rng = TensorRng::seed_from(inputs.seed);
        let batched = p.time("data.shuffled_batches", || {
            Ok(shard.shuffled_batches(BATCH, &mut rng).count())
        });
        m.set("data.shuffled_batches_us", batched.map(us));
    }

    // `Client::cycle_time` is what the driver reads per participant per
    // cycle to bill simulated compute.
    if let Some((env, cohort)) = p.tally.op("device.env", env_with_cohort(inputs)) {
        let billed = p.time_batched("device.cycle_time", TINY_BATCH, || {
            let client = env.client(cohort[0])?;
            for _ in 0..TINY_BATCH {
                black_box(black_box(client).cycle_time());
            }
            Ok(())
        });
        m.set("device.cycle_time_ns", billed.map(ns));
    }
}
