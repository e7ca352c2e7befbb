//! Message-passing Monte Carlo drivers with virtual-time accounting.
//!
//! **European** ([`price_mc_cluster`]): one SPMD body under an optional
//! checkpoint policy `(FaultPlan, interval)`. Rank `r` simulates its
//! share of the fixed block-substream partition, charges the machine
//! model for the path work, and the per-block accumulators are folded
//! in global block order at the root
//! ([`mdp_cluster::Supervisor::fold_blocks`]), so the price equals the
//! sequential engine's bit for bit. Without a policy each rank owns one
//! contiguous block range and the untagged 6-wide accumulators go
//! through the topology-aware gather: the virtual time gives
//! experiments T3/F3 their near-ideal speedup curves (a single
//! log₂p-deep collective at the end of an arbitrarily large compute
//! phase). With a policy the block range runs in `MC_FT_BATCHES` (16)
//! batches with a checkpoint/recovery boundary before each, and the
//! accumulators travel tagged with their block ids.
//!
//! **LSMC** ([`price_lsmc_cluster`]): each rank owns a share of the path
//! panel; every exercise date requires an allreduce of the
//! normal-equation sums (`k² + k + 1` doubles) before any rank can make
//! its exercise decisions. That per-step synchronisation is the serial
//! fraction that separates the LSMC speedup curve from the European one
//! (experiment T7). [`price_lsmc_cluster_ft`] is its checkpointed
//! counterpart, which folds per-block sums in block order instead.

use crate::engine::{McConfig, McResult, RunContext};
use crate::lsmc::{self, LsmcConfig, LsmcResult, RegressionSums, SweepState};
use crate::variance::{merge_in_chunks, BlockAccum, ACCUM_WIDTH};
use crate::McError;
use mdp_cluster::{
    partition, run_spmd_ft, run_supervised, CheckpointMode, CheckpointStore, CollectiveEngine,
    Communicator, FaultPlan, Machine, Supervisor, TimeModel,
};
use mdp_model::{GbmMarket, Product};

/// Checkpoint boundaries of a European run under a checkpoint policy:
/// the block range is processed in this many batches, with a recovery
/// boundary before each.
const MC_FT_BATCHES: usize = 16;

/// Outcome of a distributed European Monte Carlo run.
#[derive(Debug, Clone)]
pub struct McClusterOutcome {
    /// The estimate (identical to the sequential engine's, through any
    /// number of recoveries).
    pub result: McResult,
    /// Virtual-time model of the run, crashed ranks' time included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs; empty
    /// without a checkpoint policy.
    pub crashed: Vec<(usize, usize)>,
}

/// Price a European product on `p` ranks under `machine`, optionally
/// under a checkpoint policy `(fault plan, interval)`.
///
/// With a policy, a checkpoint persists this rank's per-block
/// accumulators *tagged with their block ids* (7 doubles per block), so
/// recovery can repartition completed blocks over the survivors without
/// rerunning them. Block substreams make each block's accumulator
/// owner-independent, and the root folds them in global block order,
/// which keeps the estimate bit-identical to the sequential engine.
pub fn price_mc_cluster(
    market: &GbmMarket,
    product: &Product,
    cfg: McConfig,
    p: usize,
    machine: Machine,
    checkpoint: Option<(FaultPlan, usize)>,
) -> Result<McClusterOutcome, McError> {
    let ctx = RunContext::new(market, product, cfg)?;
    let work_per_path = cfg.path_work_units(market.dim());
    // Without a policy there is nothing to checkpoint between batches.
    let batches = if checkpoint.is_some() {
        MC_FT_BATCHES
    } else {
        1
    };

    let outcome = run_supervised(p, machine, checkpoint, |comm, sup| {
        let blocks = ctx.num_blocks() as usize;
        let rank = comm.rank();
        // Completed blocks as (id, accum) rows: [id, a0..a5] each.
        let mut local: Vec<f64> = Vec::new();

        let mut t = 0usize; // completed batches == boundary index
        while t < batches {
            if let Some(rec) = sup.boundary(comm, t, || (0, local.clone())) {
                // Roll back: pool every survivor's and the victim's
                // completed rows and repartition them over the active
                // set by global block order.
                let t0 = rec.from_step.expect("boundary 0 always checkpoints");
                let rows = rec.sorted_rows(ACCUM_WIDTH);
                let (rlo, rhi) =
                    partition::block_range(rows.len(), sup.active().len(), sup.dense_index(rank));
                local = rows[rlo..rhi].concat();
                t = t0;
                continue; // re-enter boundary t0: fresh-era checkpoint
            }
            // Batch t's global block range, split over the active set.
            let (blo, bhi) = partition::block_range(blocks, batches, t);
            let (mlo, mhi) =
                partition::block_range(bhi - blo, sup.active().len(), sup.dense_index(rank));
            let mut paths = 0u64;
            for b in blo + mlo..blo + mhi {
                local.push(b as f64);
                local.extend_from_slice(&ctx.simulate_block(b as u64).to_vec());
                paths += ctx.config().block_paths(b as u64);
            }
            comm.compute_units(paths as f64 * work_per_path);
            t += 1;
        }

        // Fold in global block order with the engine's canonical chunked
        // association: bit-identical to the sequential engine (a tree
        // allreduce would differ in the last couple of ULPs).
        let merged = sup.fold_blocks(comm, &local, ACCUM_WIDTH, |rows| {
            debug_assert_eq!(rows.len(), blocks, "every block exactly once");
            merge_in_chunks(rows.iter().map(|row| BlockAccum::from_slice(row)))
                .to_vec()
                .to_vec()
        });
        BlockAccum::from_slice(&merged)
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    Ok(McClusterOutcome {
        result: ctx.finish(&outcome.survivors[0].value),
        time: outcome.time_model(),
        crashed: outcome.crash_sites(),
    })
}

/// Outcome of a distributed LSMC run.
#[derive(Debug, Clone)]
pub struct LsmcClusterOutcome {
    /// The estimate.
    pub result: LsmcResult,
    /// Virtual-time model of the run.
    pub time: TimeModel,
}

/// Price an American product with distributed LSMC on `p` ranks.
///
/// Work accounting: path simulation and the per-date regression scans
/// are charged per local path; the per-date allreduce of the
/// normal-equation sums is costed by the machine model through the
/// collective's real message structure.
pub fn price_lsmc_cluster(
    market: &GbmMarket,
    product: &Product,
    cfg: LsmcConfig,
    p: usize,
    machine: Machine,
) -> Result<LsmcClusterOutcome, McError> {
    lsmc::validate(market, product, &cfg)?;
    let d = market.dim();
    let basis = mdp_math::poly::TensorBasis::new(d, cfg.degree, cfg.basis);
    let k = basis.size();
    // Work units: simulation ~ steps·(d²/2 + 8d + 6); each date's scan is
    // ~ d + k² per path (basis eval + rank-1 update), twice (sum + apply).
    let sim_work = cfg.steps as f64 * ((d * d) as f64 / 2.0 + 8.0 * d as f64 + 6.0);
    let date_work = 2.0 * (d as f64 + (k * k) as f64);

    let engine = CollectiveEngine::for_machine(&machine, p);
    let results = mdp_cluster::run_spmd(p, machine, |comm| {
        let blocks = lsmc::num_blocks(&cfg) as usize;
        let (lo, hi) = partition::block_range(blocks, comm.size(), comm.rank());
        let panel = lsmc::simulate_panel(market, product, &cfg, lo as u64..hi as u64);
        comm.compute_units(panel.paths as f64 * sim_work);

        // The backward sweep needs a global regression at each date: we
        // thread the communicator through the `regress` hook.
        let comm_cell = std::cell::RefCell::new(comm);
        let discounted = lsmc::backward_sweep(market, product, &cfg, &panel, |_, sums| {
            let mut c = comm_cell.borrow_mut();
            c.compute_units(panel.paths as f64 * date_work);
            let merged = engine.allreduce_sum(&mut **c, &sums.to_vec());
            lsmc::RegressionSums::from_slice(k, &merged).solve(cfg.ridge)
        });
        // Global mean/SE via one final reduction of [n, Σ, Σ²].
        let local: [f64; 3] = [
            discounted.len() as f64,
            discounted.iter().sum(),
            discounted.iter().map(|c| c * c).sum(),
        ];
        let comm = comm_cell.into_inner();
        engine.allreduce_sum(comm, &local)
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    Ok(LsmcClusterOutcome {
        result: lsmc_result(&results[0].value, market, product),
        time: TimeModel::from_results(&results),
    })
}

/// The LSMC estimate from global `[n, Σ, Σ²]` cashflow statistics,
/// floored by immediate exercise.
fn lsmc_result(g: &[f64], market: &GbmMarket, product: &Product) -> LsmcResult {
    let n = g[0];
    let mean = g[1] / n;
    let var = (g[2] - n * mean * mean) / (n - 1.0);
    let intrinsic = product.payoff.eval(market.spots());
    LsmcResult {
        price: mean.max(intrinsic),
        std_error: (var.max(0.0) / n).sqrt(),
        paths: n as u64,
    }
}

/// Outcome of a fault-tolerant distributed LSMC run.
#[derive(Debug, Clone)]
pub struct LsmcClusterFtOutcome {
    /// The estimate — bit-identical to the fault-free run of the same
    /// driver (see [`price_lsmc_cluster_ft`] on why it is *not* bitwise
    /// against [`price_lsmc_cluster`]).
    pub result: LsmcResult,
    /// Virtual-time model, crashed ranks' time included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs.
    pub crashed: Vec<(usize, usize)>,
}

/// Fault-tolerant distributed LSMC: the backward sweep runs one
/// exercise date per [`Supervisor::boundary`], checkpointing every
/// rank's per-block `(cashflow, cf_time)` state each `ckpt_interval`
/// dates. On a crash, survivors restore the sweep state of every block
/// from the pooled era-keyed records, repartition the substream blocks
/// over the shrunken active set, re-simulate their newly owned path
/// panels (deterministic block substreams) and replay from the last
/// checkpoint.
///
/// To make the price independent of *which* ranks own which blocks,
/// all cross-rank reductions run over **per-block** partial results
/// folded in global block order at the first active rank: the per-date
/// normal-equation sums and the final `[n, Σ, Σ²]` statistics. A
/// faulted run is therefore bit-identical to a fault-free run of this
/// driver at any rank count. (It is *not* bitwise against
/// [`price_lsmc_cluster`], which reduces rank-local sums via the
/// canonical allreduce — a different, partition-dependent association.)
#[allow(clippy::too_many_arguments)]
pub fn price_lsmc_cluster_ft(
    market: &GbmMarket,
    product: &Product,
    cfg: LsmcConfig,
    p: usize,
    machine: Machine,
    plan: FaultPlan,
    ckpt_interval: usize,
    mode: CheckpointMode,
) -> Result<LsmcClusterFtOutcome, McError> {
    lsmc::validate(market, product, &cfg)?;
    let d = market.dim();
    let k = mdp_math::poly::TensorBasis::new(d, cfg.degree, cfg.basis).size();
    let sim_work = cfg.steps as f64 * ((d * d) as f64 / 2.0 + 8.0 * d as f64 + 6.0);
    let date_work = 2.0 * (d as f64 + (k * k) as f64);
    let store = CheckpointStore::new();

    let outcome = run_spmd_ft(p, machine, plan, |comm| {
        let blocks = lsmc::num_blocks(&cfg) as usize;
        let rank = comm.rank();
        let mut sup = Supervisor::new_with_mode(comm, ckpt_interval, &store, mode);

        // Initial partition: contiguous block range over the full set.
        let (lo0, hi0) = partition::block_range(blocks, sup.active().len(), sup.dense_index(rank));
        let (mut blo, mut bhi) = (lo0 as u64, hi0 as u64);
        let mut panel = lsmc::simulate_panel(market, product, &cfg, blo..bhi);
        comm.compute_units(panel.paths as f64 * sim_work);
        let mut sweep = SweepState::terminal(market, product, &cfg, &panel);

        let mut j = 0usize; // processed dates == boundary index
        while j < cfg.steps - 1 {
            if let Some(rec) = sup.boundary(comm, j, || {
                (
                    blo as usize,
                    encode_sweep_state(&cfg, blo, bhi, &sweep.cashflow, &sweep.cf_time),
                )
            }) {
                // Roll back: restore every block's sweep state from the
                // pooled records, repartition over the survivors and
                // re-simulate the newly owned panels.
                let j0 = rec.from_step.expect("boundary 0 always checkpoints");
                let mut pool: std::collections::HashMap<u64, (Vec<f64>, Vec<u32>)> =
                    std::collections::HashMap::new();
                for (_, r) in &rec.records {
                    decode_sweep_state(&r.data, &mut pool);
                }
                let (nlo, nhi) =
                    partition::block_range(blocks, sup.active().len(), sup.dense_index(rank));
                (blo, bhi) = (nlo as u64, nhi as u64);
                panel = lsmc::simulate_panel(market, product, &cfg, blo..bhi);
                comm.compute_units(panel.paths as f64 * sim_work);
                sweep.cashflow.clear();
                sweep.cf_time.clear();
                for b in blo..bhi {
                    let (cf, ct) = pool.get(&b).expect("pool covers every block");
                    sweep.cashflow.extend_from_slice(cf);
                    sweep.cf_time.extend_from_slice(ct);
                }
                j = j0;
                continue; // re-enter boundary j0: fresh-era checkpoint
            }

            let t = cfg.steps - 1 - j; // exercise date, steps−1 .. 1
            // Per-block normal-equation sums (block-local path order is
            // fixed, so each block's sums are owner-independent).
            let mut rows: Vec<f64> = Vec::new();
            let mut off = 0usize;
            for b in blo..bhi {
                let nb = lsmc::block_paths(&cfg, b) as usize;
                rows.push(b as f64);
                rows.extend(sweep.itm_sums(&panel, t, off..off + nb).to_vec());
                off += nb;
            }
            comm.compute_units(panel.paths as f64 * date_work);

            // Fold the per-block sums in global block order — a
            // partition-independent association.
            let width = k * k + k + 1;
            let merged = sup.fold_blocks(comm, &rows, width, |sums| sum_rows(sums, width));
            if let Some(beta) = RegressionSums::from_slice(k, &merged).solve(cfg.ridge) {
                sweep.exercise(&panel, t, &beta);
            }
            j += 1;
        }
        sup.flush(comm);

        // Final per-block [count, Σ, Σ²] over time-0 discounted
        // cashflows, folded in block order — partition-independent.
        let discounted = sweep.discounted();
        let mut rows: Vec<f64> = Vec::new();
        let mut off = 0usize;
        for b in blo..bhi {
            let nb = lsmc::block_paths(&cfg, b) as usize;
            let slice = &discounted[off..off + nb];
            rows.push(b as f64);
            rows.push(nb as f64);
            rows.push(slice.iter().sum());
            rows.push(slice.iter().map(|c| c * c).sum());
            off += nb;
        }
        sup.fold_blocks(comm, &rows, 3, |stats| sum_rows(stats, 3))
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    Ok(LsmcClusterFtOutcome {
        result: lsmc_result(&outcome.survivors[0].value, market, product),
        time: outcome.time_model(),
        crashed: outcome.crash_sites(),
    })
}

/// Element-wise sum of `width`-wide rows, left to right.
fn sum_rows(rows: &[&[f64]], width: usize) -> Vec<f64> {
    let mut acc = vec![0.0; width];
    for row in rows {
        for (a, v) in acc.iter_mut().zip(row.iter()) {
            *a += v;
        }
    }
    acc
}

/// Flatten per-block `(id, paths, cashflow, cf_time)` sweep state for a
/// checkpoint record.
fn encode_sweep_state(
    cfg: &LsmcConfig,
    blo: u64,
    bhi: u64,
    cashflow: &[f64],
    cf_time: &[u32],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * cashflow.len() + 2 * (bhi - blo) as usize);
    let mut off = 0usize;
    for b in blo..bhi {
        let nb = lsmc::block_paths(cfg, b) as usize;
        out.push(b as f64);
        out.push(nb as f64);
        out.extend_from_slice(&cashflow[off..off + nb]);
        out.extend(cf_time[off..off + nb].iter().map(|&t| t as f64));
        off += nb;
    }
    out
}

/// Inverse of [`encode_sweep_state`], merging into a per-block pool.
fn decode_sweep_state(data: &[f64], pool: &mut std::collections::HashMap<u64, (Vec<f64>, Vec<u32>)>) {
    let mut i = 0usize;
    while i < data.len() {
        let b = data[i] as u64;
        let nb = data[i + 1] as usize;
        i += 2;
        let cf = data[i..i + nb].to_vec();
        i += nb;
        let ct = data[i..i + nb].iter().map(|&t| t as u32).collect();
        i += nb;
        pool.insert(b, (cf, ct));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{McEngine, VarianceReduction};
    use mdp_model::Payoff;

    fn basket3() -> (GbmMarket, Product) {
        (
            GbmMarket::symmetric(3, 100.0, 0.25, 0.0, 0.05, 0.4).unwrap(),
            Product::european(
                Payoff::BasketCall {
                    weights: Product::equal_weights(3),
                    strike: 100.0,
                },
                1.0,
            ),
        )
    }

    #[test]
    fn cluster_price_equals_sequential_bitwise() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 20_000,
            block_size: 1000,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        for ranks in [1usize, 2, 4, 5] {
            let par = price_mc_cluster(&m, &p, cfg, ranks, Machine::ideal(), None).unwrap();
            assert_eq!(
                par.result.price.to_bits(),
                seq.price.to_bits(),
                "ranks={ranks}"
            );
            assert_eq!(par.result.paths, seq.paths);
        }
    }

    #[test]
    fn cluster_price_invariant_across_rank_counts() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 10_000,
            block_size: 500,
            variance_reduction: VarianceReduction::Antithetic,
            ..Default::default()
        };
        let a = price_mc_cluster(&m, &p, cfg, 2, Machine::cluster2002(), None).unwrap();
        let b = price_mc_cluster(&m, &p, cfg, 7, Machine::cluster2002(), None).unwrap();
        assert_eq!(a.result.price.to_bits(), b.result.price.to_bits());
    }

    #[test]
    fn mc_speedup_is_near_ideal_for_large_runs() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 64_000,
            block_size: 1000,
            ..Default::default()
        };
        let t1 = price_mc_cluster(&m, &p, cfg, 1, Machine::cluster2002(), None)
            .unwrap()
            .time
            .makespan;
        let t8 = price_mc_cluster(&m, &p, cfg, 8, Machine::cluster2002(), None)
            .unwrap()
            .time
            .makespan;
        let s8 = t1 / t8;
        assert!(s8 > 7.0, "MC should scale near-ideally: {s8}");
        assert!(s8 <= 8.0 + 1e-9);
    }

    #[test]
    fn small_runs_scale_worse_than_large_runs() {
        let (m, p) = basket3();
        let small = McConfig {
            paths: 512,
            block_size: 16,
            ..Default::default()
        };
        let large = McConfig {
            paths: 64_000,
            block_size: 1000,
            ..Default::default()
        };
        let sp = |cfg: McConfig| {
            let t1 = price_mc_cluster(&m, &p, cfg, 1, Machine::cluster2002(), None)
                .unwrap()
                .time
                .makespan;
            let t8 = price_mc_cluster(&m, &p, cfg, 8, Machine::cluster2002(), None)
                .unwrap()
                .time
                .makespan;
            t1 / t8
        };
        let s_small = sp(small);
        let s_large = sp(large);
        assert!(
            s_small < s_large,
            "small {s_small} should trail large {s_large}"
        );
    }

    #[test]
    fn lsmc_cluster_matches_sequential_within_tolerance() {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let cfg = LsmcConfig {
            paths: 8_000,
            steps: 10,
            block_size: 500,
            ..Default::default()
        };
        let seq = lsmc::price_lsmc(&m, &p, cfg).unwrap();
        let par = price_lsmc_cluster(&m, &p, cfg, 4, Machine::ideal()).unwrap();
        // Same panel, same regression math; only the summation order of
        // the allreduce differs from the sequential fold.
        assert!(
            (par.result.price - seq.price).abs() < 1e-6,
            "{} vs {}",
            par.result.price,
            seq.price
        );
        assert_eq!(par.result.paths, seq.paths);
    }

    #[test]
    fn lsmc_scales_worse_than_european_mc() {
        // The per-date allreduce is LSMC's serial fraction.
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let am = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let eu = Product::european(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let lsmc_cfg = LsmcConfig {
            paths: 4_000,
            steps: 25,
            block_size: 125,
            ..Default::default()
        };
        // Same paths and the same 25-step simulation work, so the only
        // structural difference is LSMC's per-date allreduce.
        let mc_cfg = McConfig {
            paths: 4_000,
            steps: 25,
            block_size: 125,
            ..Default::default()
        };
        let s_lsmc = {
            let t1 = price_lsmc_cluster(&m, &am, lsmc_cfg, 1, Machine::cluster2002())
                .unwrap()
                .time
                .makespan;
            let t8 = price_lsmc_cluster(&m, &am, lsmc_cfg, 8, Machine::cluster2002())
                .unwrap()
                .time
                .makespan;
            t1 / t8
        };
        let s_mc = {
            let t1 = price_mc_cluster(&m, &eu, mc_cfg, 1, Machine::cluster2002(), None)
                .unwrap()
                .time
                .makespan;
            let t8 = price_mc_cluster(&m, &eu, mc_cfg, 8, Machine::cluster2002(), None)
                .unwrap()
                .time
                .makespan;
            t1 / t8
        };
        assert!(
            s_lsmc < s_mc,
            "lsmc speedup {s_lsmc} should trail european {s_mc}"
        );
    }

    #[test]
    fn ft_without_faults_matches_sequential_bitwise() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 8_000,
            block_size: 500,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        let policy = Some((mdp_cluster::FaultPlan::new(5), 2));
        let ft = price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), policy).unwrap();
        assert_eq!(ft.result.price.to_bits(), seq.price.to_bits());
        assert_eq!(ft.result.paths, seq.paths);
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0);
        // Without a policy: no checkpoint charge, no crash sites.
        let plain = price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), None).unwrap();
        assert_eq!(plain.result.price.to_bits(), seq.price.to_bits());
        assert_eq!(plain.time.total_ckpt_time, 0.0);
        assert!(plain.crashed.is_empty());
    }

    #[test]
    fn ft_recovers_bit_identically_from_mid_run_crashes() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 8_000,
            block_size: 500,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        for crash_at in [1usize, 4, 7] {
            let plan = mdp_cluster::FaultPlan::new(11).with_crash(2, crash_at);
            let ft =
                price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), Some((plan, 2))).unwrap();
            assert_eq!(
                ft.result.price.to_bits(),
                seq.price.to_bits(),
                "crash at batch boundary {crash_at}"
            );
            assert_eq!(ft.result.paths, seq.paths);
            assert_eq!(ft.crashed, vec![(2, crash_at)]);
        }
    }

    #[test]
    fn ft_survives_down_to_a_single_rank() {
        let (m, p) = basket3();
        let cfg = McConfig {
            paths: 4_000,
            block_size: 250,
            ..Default::default()
        };
        let seq = McEngine::new(cfg).price(&m, &p).unwrap();
        let plan = mdp_cluster::FaultPlan::new(1)
            .with_crash(0, 2)
            .with_crash(1, 4)
            .with_crash(2, 4);
        let ft = price_mc_cluster(&m, &p, cfg, 4, Machine::cluster2002(), Some((plan, 1))).unwrap();
        assert_eq!(ft.result.price.to_bits(), seq.price.to_bits());
        assert_eq!(ft.crashed.len(), 3);
    }

    fn lsmc_ft_case() -> (GbmMarket, Product, LsmcConfig) {
        let m = GbmMarket::single(100.0, 0.2, 0.0, 0.05).unwrap();
        let p = Product::american(
            Payoff::BasketPut {
                weights: vec![1.0],
                strike: 110.0,
            },
            1.0,
        );
        let cfg = LsmcConfig {
            paths: 4_000,
            steps: 10,
            block_size: 250,
            ..Default::default()
        };
        (m, p, cfg)
    }

    #[test]
    fn lsmc_ft_matches_sequential_within_tolerance() {
        let (m, p, cfg) = lsmc_ft_case();
        let seq = lsmc::price_lsmc(&m, &p, cfg).unwrap();
        let ft = price_lsmc_cluster_ft(
            &m,
            &p,
            cfg,
            4,
            Machine::cluster2002(),
            mdp_cluster::FaultPlan::new(5),
            4,
            CheckpointMode::Sync,
        )
        .unwrap();
        // Per-block regression sums fold in a different order than the
        // sequential path-order accumulation, so this is tolerance, not
        // bitwise (the fitted betas differ in the last ulps).
        assert!(
            (ft.result.price - seq.price).abs() < 1e-6,
            "{} vs {}",
            ft.result.price,
            seq.price
        );
        assert_eq!(ft.result.paths, seq.paths);
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0);
    }

    #[test]
    fn lsmc_ft_recovers_bit_identically_from_mid_sweep_crashes() {
        let (m, p, cfg) = lsmc_ft_case();
        for mode in [CheckpointMode::Sync, CheckpointMode::AsyncIncremental] {
            let clean = price_lsmc_cluster_ft(
                &m,
                &p,
                cfg,
                4,
                Machine::cluster2002(),
                mdp_cluster::FaultPlan::new(7),
                3,
                mode,
            )
            .unwrap();
            assert!(clean.crashed.is_empty());
            for crash_at in [1usize, 4, 8] {
                let plan = mdp_cluster::FaultPlan::new(13).with_crash(2, crash_at);
                let ft = price_lsmc_cluster_ft(
                    &m,
                    &p,
                    cfg,
                    4,
                    Machine::cluster2002(),
                    plan,
                    3,
                    mode,
                )
                .unwrap();
                assert_eq!(
                    ft.result.price.to_bits(),
                    clean.result.price.to_bits(),
                    "crash at date boundary {crash_at} ({mode:?})"
                );
                assert_eq!(ft.result.paths, clean.result.paths);
                assert_eq!(ft.crashed, vec![(2, crash_at)]);
            }
        }
    }

    #[test]
    fn lsmc_ft_async_checkpoints_cost_less_than_sync() {
        let (m, p, cfg) = lsmc_ft_case();
        let run = |mode| {
            price_lsmc_cluster_ft(
                &m,
                &p,
                cfg,
                4,
                Machine::cluster2002(),
                mdp_cluster::FaultPlan::new(3),
                2,
                mode,
            )
            .unwrap()
        };
        let sync = run(CheckpointMode::Sync);
        let async_inc = run(CheckpointMode::AsyncIncremental);
        // Same estimate either way — the mode moves cost, never data.
        assert_eq!(
            sync.result.price.to_bits(),
            async_inc.result.price.to_bits()
        );
        assert!(
            async_inc.time.total_ckpt_time < sync.time.total_ckpt_time,
            "async {} should undercut sync {}",
            async_inc.time.total_ckpt_time,
            sync.time.total_ckpt_time
        );
    }

    #[test]
    fn lsmc_ft_rejects_european_products() {
        let (m, _, cfg) = lsmc_ft_case();
        let eu = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_lsmc_cluster_ft(
            &m,
            &eu,
            cfg,
            2,
            Machine::ideal(),
            mdp_cluster::FaultPlan::new(1),
            2,
            CheckpointMode::Sync,
        )
        .is_err());
    }

    #[test]
    fn accum_width_matches() {
        // The allreduce payload and the accumulator must stay in sync.
        assert_eq!(BlockAccum::new().to_vec().len(), ACCUM_WIDTH);
    }

    #[test]
    fn errors_propagate() {
        let (m, _) = basket3();
        let am = Product::american(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_mc_cluster(&m, &am, McConfig::default(), 2, Machine::ideal(), None).is_err());
        let eu = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_lsmc_cluster(&m, &eu, LsmcConfig::default(), 2, Machine::ideal()).is_err());
    }
}
