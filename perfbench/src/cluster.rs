//! `cluster_ft`: a closed loop, one caller, of fault-tolerant
//! distributed pricing through `Backend::Cluster` on
//! `Machine::smp_cluster2002`.
//!
//! Three jobs (an MC basket, an American BEG lattice and an LSMC
//! option) each run with one seeded rank crash under checkpointing and
//! once fault-free; the recovered price must equal the fault-free one
//! bit for bit. The small set is scored by host wall time. The wide set
//! runs once per run at many more ranks than cores, where host wall
//! time means nothing, and is reported in virtual time and counts only.

use crate::host;
use crate::median;
use crate::report::Report;
use crate::rng::Rng;
use crate::spec::cluster as spec;
use crate::trace::Tracer;
use mdp_core::prelude::*;
use std::time::Instant;

/// One distributed job.
#[derive(Debug, Clone)]
pub struct Job {
    pub name: &'static str,
    pub method: Method,
    pub market: GbmMarket,
    pub product: Product,
    pub interval: usize,
    /// Step boundaries the driver passes through (checkpointed batches,
    /// lattice steps or exercise dates); crashes land in their middle.
    pub steps: usize,
}

/// Generate the jobs from the seed (strikes are seeded; sizes are
/// fixed).
pub fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, "cluster.jobs");
    let mut strike = || (rng.range(90.0, 110.0) * 4.0).round() / 4.0;
    let m5 = GbmMarket::symmetric(5, 100.0, 0.3, 0.0, 0.05, 0.3).expect("valid market");
    let m2 = GbmMarket::symmetric(2, 100.0, 0.2, 0.0, 0.05, 0.3).expect("valid market");
    vec![
        Job {
            name: "mc",
            method: Method::MonteCarlo(McConfig {
                paths: spec::MC_PATHS,
                block_size: spec::MC_BLOCK,
                ..Default::default()
            }),
            market: m5.clone(),
            product: Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(5),
                    strike: strike(),
                },
                1.0,
            ),
            interval: spec::MC_CKPT_INTERVAL,
            // The facade's fault-tolerant MC driver runs 16 batches.
            steps: 16,
        },
        Job {
            name: "lattice",
            method: Method::lattice(spec::LATTICE_STEPS),
            market: m2,
            product: Product::american(Payoff::MaxPut { strike: strike() }, 1.0),
            interval: spec::LATTICE_CKPT_INTERVAL,
            steps: spec::LATTICE_STEPS,
        },
        Job {
            name: "lsmc",
            method: Method::Lsmc(LsmcConfig {
                paths: spec::LSMC_PATHS,
                steps: spec::LSMC_DATES,
                block_size: spec::LSMC_BLOCK,
                ..Default::default()
            }),
            market: m5,
            product: Product::american(Payoff::MaxCall { strike: strike() }, 1.0),
            interval: spec::LSMC_CKPT_INTERVAL,
            steps: spec::LSMC_DATES,
        },
    ]
}

/// Seeded crash placements `(rank, step)` for each job: a rank other
/// than 0, at a step in the middle fifth of the job.
pub fn crashes(seed: u64, set: &str, ranks: usize, count: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rng = Rng::new(seed, &format!("cluster.crashes.{set}"));
    jobs(seed)
        .iter()
        .map(|job| {
            (0..count)
                .map(|_| {
                    let lo = 2 * job.steps / 5;
                    let width = (job.steps / 5).max(1);
                    (1 + rng.below(ranks - 1), lo + rng.below(width))
                })
                .collect()
        })
        .collect()
}

fn machine() -> Machine {
    Machine::smp_cluster2002(spec::NODE_SIZE)
}

/// How a job runs on the cluster backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// The plain driver: no checkpoints, no faults.
    Plain,
    /// The fault-tolerant driver writing checkpoints, with no crash:
    /// the fault-free price a recovered price must equal.
    Checkpointed,
    /// The fault-tolerant driver with one crash at `(rank, step)`.
    Crash(usize, usize),
}

/// Price a job, recording a span with its time model. Returns the
/// report with the job's wall and process CPU seconds.
fn price(
    job: &Job,
    ranks: usize,
    mode: Mode,
    seed: u64,
    tracer: &Tracer,
) -> Result<(PriceReport, f64, f64), String> {
    let pricer = Pricer::new(job.method.clone());
    let ft = Backend::Cluster {
        ranks,
        machine: machine(),
        checkpoint_interval: Some(job.interval),
    };
    let pricer = match mode {
        Mode::Plain => pricer.backend(Backend::cluster(ranks, machine())),
        Mode::Checkpointed => pricer.backend(ft).fault_plan(FaultPlan::new(seed)),
        Mode::Crash(rank, step) => pricer
            .backend(ft)
            .fault_plan(FaultPlan::new(seed).with_crash(rank, step)),
    };
    let c0 = host::process_cpu_s();
    let t0 = Instant::now();
    let rep = pricer
        .price(&job.market, &job.product)
        .map_err(|e| format!("cluster job {} at {ranks} ranks ({mode:?}): {e}", job.name))?;
    let t1 = Instant::now();
    let cpu = host::process_cpu_s() - c0;
    let tm = rep
        .time
        .as_ref()
        .ok_or_else(|| format!("cluster job {} has no time model", job.name))?;
    let attrs = vec![
        ("ranks", ranks as f64),
        (
            "crash",
            f64::from(u8::from(matches!(mode, Mode::Crash(..)))),
        ),
        ("virtual_makespan_ms", tm.makespan * 1e3),
        ("virtual_comm_ms", tm.mean_comm * 1e3),
        ("virtual_compute_ms", tm.mean_compute * 1e3),
        ("msgs", tm.total_msgs as f64),
        ("bytes", tm.total_bytes as f64),
        ("far_msgs", tm.total_far_msgs as f64),
        ("ckpt_ms", tm.total_ckpt_time * 1e3),
        ("retransmits", tm.total_retransmits as f64),
    ];
    let name = format!("Pricer::price {} P={ranks}", job.name);
    tracer.record(tracer.id(), &name, "cluster", t0, t1, None, 0, attrs);
    Ok((rep, (t1 - t0).as_secs_f64(), cpu))
}

/// The recovery check: a faulted price equals its fault-free price bit
/// for bit.
pub fn recovered_ok(faulted: f64, fault_free: f64) -> bool {
    faulted.to_bits() == fault_free.to_bits()
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Report, String> {
    let jobs = jobs(seed);
    let small = crashes(seed, "small", spec::SMALL_RANKS, spec::CRASH_PLACEMENTS);
    let wide = crashes(seed, "wide", spec::WIDE_RANKS, 1);
    let mut report = Report::default();

    // Set-up: the warm-up job (each job once on the plain driver),
    // repeated. Its virtual makespans are the base of the checkpoint
    // and recovery overhead.
    let mut setup = Vec::new();
    let mut plain: Vec<f64> = Vec::new();
    let quiet = Tracer::new(false);
    for _ in 0..spec::SETUP_REPEATS {
        let t = host::SetupClock::start();
        plain = jobs
            .iter()
            .map(|j| {
                price(j, spec::SMALL_RANKS, Mode::Plain, seed, &quiet)
                    .map(|(r, ..)| r.time.as_ref().map_or(0.0, |tm| tm.makespan))
            })
            .collect::<Result<_, _>>()?;
        setup.push(t.stop());
    }
    report.setup(&setup);

    // Timed loop: each round runs every job with a crash (cycling
    // through the seeded placements) and fault-free. The scored
    // operation is a round's faulted jobs, timed job by job. It is
    // scored on CPU time: its rank threads wait on each other, and on a
    // host that steals its virtual CPUs their wall time mostly measured
    // the stealing (it varied 1.7x between runs a minute apart, while
    // CPU time varied 1.2x).
    let (mut round_wall, mut round_scaled, mut references) = (Vec::new(), Vec::new(), Vec::new());
    let mut faulted_virtual: Vec<Vec<Option<f64>>> =
        vec![vec![None; spec::CRASH_PLACEMENTS]; jobs.len()];
    let (mut ckpt_s, mut retransmits) = (0.0, 0u64);
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < seconds || round < spec::CRASH_PLACEMENTS {
        let k = round % spec::CRASH_PLACEMENTS;
        let (mut faulted_wall, mut faulted_cpu) = (0.0, 0.0);
        for (ji, job) in jobs.iter().enumerate() {
            let (rank, step) = small[ji][k];
            let (rep, wall, cpu) = price(
                job,
                spec::SMALL_RANKS,
                Mode::Crash(rank, step),
                seed,
                tracer,
            )?;
            faulted_wall += wall;
            faulted_cpu += cpu;
            let (free, ..) = price(job, spec::SMALL_RANKS, Mode::Checkpointed, seed, tracer)?;
            report.attempted += 2;
            report.check(
                recovered_ok(rep.price, free.price),
                &format!(
                    "{} round {round}: faulted price differs from fault-free price",
                    job.name
                ),
            );
            let tm = rep.time.as_ref().expect("cluster runs carry a time model");
            match faulted_virtual[ji][k] {
                None => {
                    faulted_virtual[ji][k] = Some(tm.makespan);
                    ckpt_s += tm.total_ckpt_time;
                    retransmits += tm.total_retransmits;
                }
                Some(prev) => report.check(
                    prev.to_bits() == tm.makespan.to_bits(),
                    &format!(
                        "{} placement {k}: virtual makespan did not repeat",
                        job.name
                    ),
                ),
            }
        }
        let reference = host::reference_kernel();
        round_wall.push(faulted_wall);
        round_scaled.push(host::at_nominal_speed(faulted_cpu, reference.cpu_s));
        references.push(reference.wall_s);
        round += 1;
    }
    let placements = spec::CRASH_PLACEMENTS as f64;
    let faulted_sum: f64 = faulted_virtual
        .iter()
        .flatten()
        .map(|v| v.expect("every placement ran"))
        .sum();
    let plain_sum: f64 = plain.iter().sum::<f64>() * placements;

    // Wide set: once, faulted and fault-free, virtual time and counts.
    let mut wide_sum = 0.0;
    let (mut msgs, mut bytes, mut far_msgs, mut far_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut comm, mut compute, mut stall) = (0.0, 0.0, 0.0);
    for (ji, job) in jobs.iter().enumerate() {
        let (rank, step) = wide[ji][0];
        let (rep, ..) = price(job, spec::WIDE_RANKS, Mode::Crash(rank, step), seed, tracer)?;
        let (free, ..) = price(job, spec::WIDE_RANKS, Mode::Checkpointed, seed, tracer)?;
        report.check(
            recovered_ok(rep.price, free.price),
            &format!(
                "{} wide set: faulted price differs from fault-free price",
                job.name
            ),
        );
        let tm = rep.time.as_ref().expect("cluster runs carry a time model");
        wide_sum += tm.makespan;
        msgs += tm.total_msgs;
        bytes += tm.total_bytes;
        far_msgs += tm.total_far_msgs;
        far_bytes += tm.total_far_bytes;
        comm += tm.mean_comm;
        compute += tm.mean_compute;
        stall += tm.total_link_stall;
    }

    report.cpu("p50_ms", 1e3 * median(&round_scaled));
    report.wall("p50_raw_ms", 1e3 * median(&round_wall));
    report.wall("host.ref_kernel_ms", 1e3 * median(&references));
    report.count("ok_frac", report.ok_frac());
    report.wall("job_ms", 1e3 * median(&round_wall) / jobs.len() as f64);
    report.virt("virtual_makespan_ms", 1e3 * wide_sum);
    report.virt(
        "ckpt_overhead_pct",
        100.0 * (faulted_sum - plain_sum) / plain_sum,
    );
    report.count("cluster.msgs", msgs as f64);
    report.count("cluster.bytes", bytes as f64);
    report.count("cluster.far_msgs", far_msgs as f64);
    report.count("cluster.far_bytes", far_bytes as f64);
    report.virt("cluster.virtual_comm_frac", comm / (comm + compute));
    report.virt("cluster.virtual_compute_ms", 1e3 * compute);
    report.virt("cluster.link_stall_ms", 1e3 * stall);
    report.virt("cluster.ckpt_ms", 1e3 * ckpt_s / placements);
    report.count("cluster.retransmits", retransmits as f64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_and_crashes_replay_per_seed_and_differ_across_seeds() {
        let f = |s: u64| {
            format!(
                "{:?}",
                jobs(s).iter().map(|j| &j.product).collect::<Vec<_>>()
            )
        };
        assert_eq!(f(3), f(3));
        assert_ne!(f(3), f(4));
        assert_eq!(crashes(3, "small", 8, 4), crashes(3, "small", 8, 4));
        assert_ne!(crashes(3, "small", 8, 4), crashes(4, "small", 8, 4));
        for placements in crashes(5, "wide", 256, 8) {
            assert!(placements.iter().all(|&(r, _)| (1..256).contains(&r)));
        }
    }

    #[test]
    fn recovery_check_fires_on_a_perturbed_price() {
        assert!(recovered_ok(12.5, 12.5));
        assert!(!recovered_ok(f64::from_bits(12.5f64.to_bits() + 1), 12.5));
    }
}
