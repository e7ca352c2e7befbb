//! Message-passing Monte Carlo drivers with virtual-time accounting.
//!
//! **European** ([`price_mc_cluster`]): rank `r` simulates its block range
//! of the fixed block-substream partition, charges the machine model for
//! the path work, and the ranks allreduce one 6-wide accumulator. The
//! price equals the sequential engine's bit for bit; the virtual time
//! gives experiments T3/F3 their near-ideal speedup curves (a single
//! log₂p-deep reduction at the end of an arbitrarily large compute
//! phase).
//!
//! **LSMC** ([`price_lsmc_cluster`]): each rank owns a share of the path
//! panel; every exercise date requires an allreduce of the
//! normal-equation sums (`k² + k + 1` doubles) before any rank can make
//! its exercise decisions. That per-step synchronisation is the serial
//! fraction that separates the LSMC speedup curve from the European one
//! (experiment T7).

use crate::engine::{McConfig, McResult, RunContext};
use crate::lsmc::{self, LsmcConfig, LsmcResult, RegressionSums};
use crate::variance::{merge_in_chunks, BlockAccum, ACCUM_WIDTH};
use crate::McError;
use mdp_cluster::checkpoint::{broadcast_active, gather_active};
use mdp_cluster::{
    partition, run_spmd_ft, CheckpointMode, CheckpointStore, CollectiveEngine, Communicator,
    FaultPlan, Machine, Supervisor, TimeModel,
};
use mdp_model::{GbmMarket, Product};

/// Outcome of a distributed European Monte Carlo run.
#[derive(Debug, Clone)]
pub struct McClusterOutcome {
    /// The estimate (identical to the sequential engine's).
    pub result: McResult,
    /// Virtual-time model of the run.
    pub time: TimeModel,
}

/// Price a European product on `p` ranks under `machine`.
pub fn price_mc_cluster(
    market: &GbmMarket,
    product: &Product,
    cfg: McConfig,
    p: usize,
    machine: Machine,
) -> Result<McClusterOutcome, McError> {
    let ctx = RunContext::new(market, product, cfg)?;
    let work_per_path = cfg.path_work_units(market.dim());
    let engine = CollectiveEngine::for_machine(&machine, p);
    let results = mdp_cluster::run_spmd(p, machine, |comm| {
        let blocks = ctx.num_blocks() as usize;
        let (lo, hi) = partition::block_range(blocks, comm.size(), comm.rank());
        // Keep per-block accumulators separate: the root folds them in
        // global block order with the engine's canonical chunked
        // association, which makes the result bit-identical to the
        // sequential engine (floating-point addition is order-sensitive;
        // a tree allreduce would differ in the last couple of ULPs).
        let mut local = Vec::with_capacity((hi - lo) * ACCUM_WIDTH);
        let mut paths = 0u64;
        for b in lo..hi {
            local.extend_from_slice(&ctx.simulate_block(b as u64).to_vec());
            paths += ctx.config().block_paths(b as u64);
        }
        comm.compute_units(paths as f64 * work_per_path);
        let gathered = engine.gather_varied(comm, 0, &local);
        let mut merged = [0.0; ACCUM_WIDTH];
        if let Some(parts) = gathered {
            // Rank ranges are contiguous and ascending, so flattening the
            // gathered parts restores global block order; merging via
            // `merge_in_chunks` reproduces the sequential association.
            let total = merge_in_chunks(
                parts
                    .iter()
                    .flat_map(|part| part.chunks_exact(ACCUM_WIDTH))
                    .map(BlockAccum::from_slice),
            );
            merged = total.to_vec();
        }
        engine.broadcast(comm, 0, &mut merged);
        BlockAccum::from_slice(&merged)
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    let result = ctx.finish(&results[0].value);
    let time = TimeModel::from_results(&results);
    Ok(McClusterOutcome { result, time })
}

/// Outcome of a fault-tolerant distributed European Monte Carlo run.
#[derive(Debug, Clone)]
pub struct McClusterFtOutcome {
    /// The estimate — bit-identical to the fault-free run.
    pub result: McResult,
    /// Virtual-time model, crashed ranks' time included.
    pub time: TimeModel,
    /// Injected crashes that fired, as `(rank, boundary)` pairs.
    pub crashed: Vec<(usize, usize)>,
}

/// Fault-tolerant variant of [`price_mc_cluster`]: the global block
/// range is processed in `batches` contiguous batches with a
/// checkpoint/recovery boundary before each one. A checkpoint persists
/// this rank's per-block accumulators *tagged with their block ids*
/// (7 doubles per block), so recovery can repartition completed blocks
/// over the survivors without rerunning them, and the root can fold
/// the final accumulators in global block order — which is what keeps
/// the estimate bit-identical to the sequential engine through any
/// number of recoveries (block substreams make each block's accumulator
/// owner-independent).
#[allow(clippy::too_many_arguments)]
pub fn price_mc_cluster_ft(
    market: &GbmMarket,
    product: &Product,
    cfg: McConfig,
    p: usize,
    machine: Machine,
    plan: FaultPlan,
    batches: usize,
    ckpt_interval: usize,
) -> Result<McClusterFtOutcome, McError> {
    if batches == 0 {
        return Err(McError::Unsupported("batches must be >= 1".into()));
    }
    let ctx = RunContext::new(market, product, cfg)?;
    let work_per_path = cfg.path_work_units(market.dim());
    let store = CheckpointStore::new();

    let outcome = run_spmd_ft(p, machine, plan, |comm| {
        let blocks = ctx.num_blocks() as usize;
        let rank = comm.rank();
        let mut sup = Supervisor::new(comm, ckpt_interval, &store);
        // Completed blocks as (id, accum) pairs: [id, a0..a5] each.
        let mut local: Vec<f64> = Vec::new();

        let mut t = 0usize; // completed batches == boundary index
        while t < batches {
            if let Some(rec) = sup.boundary(comm, t, || (0, local.clone())) {
                // Roll back: pool every survivor's and the victim's
                // completed (id, accum) pairs and repartition them over
                // the active set by global block order.
                let t0 = rec.from_step.expect("boundary 0 always checkpoints");
                let mut entries: Vec<&[f64]> = rec
                    .records
                    .iter()
                    .flat_map(|(_, r)| r.data.chunks_exact(1 + ACCUM_WIDTH))
                    .collect();
                entries.sort_by_key(|e| e[0] as u64);
                let a = sup.active().len();
                let i = sup.dense_index(rank);
                let (elo, ehi) = partition::block_range(entries.len(), a, i);
                local.clear();
                for e in &entries[elo..ehi] {
                    local.extend_from_slice(e);
                }
                t = t0;
                continue; // re-enter boundary t0: fresh-era checkpoint
            }
            // Batch t's global block range, split over the active set.
            let (blo, bhi) = partition::block_range(blocks, batches, t);
            let a = sup.active().len();
            let i = sup.dense_index(rank);
            let (mlo, mhi) = partition::block_range(bhi - blo, a, i);
            let mut paths = 0u64;
            for b in blo + mlo..blo + mhi {
                local.push(b as f64);
                local.extend_from_slice(&ctx.simulate_block(b as u64).to_vec());
                paths += ctx.config().block_paths(b as u64);
            }
            comm.compute_units(paths as f64 * work_per_path);
            t += 1;
        }

        // Gather every (id, accum) pair to the first active rank, fold
        // in global block order, broadcast the total.
        let active = sup.active().to_vec();
        let root = active[0];
        let gathered = gather_active(comm, &active, root, &local);
        let mut merged = vec![0.0; ACCUM_WIDTH];
        if rank == root {
            let mut entries: Vec<&[f64]> = gathered
                .iter()
                .flat_map(|part| part.chunks_exact(1 + ACCUM_WIDTH))
                .collect();
            entries.sort_by_key(|e| e[0] as u64);
            debug_assert_eq!(entries.len(), blocks, "every block exactly once");
            let total = merge_in_chunks(entries.iter().map(|e| BlockAccum::from_slice(&e[1..])));
            merged = total.to_vec().to_vec();
        }
        let merged = broadcast_active(comm, &active, root, &merged);
        BlockAccum::from_slice(&merged)
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    let result = ctx.finish(&outcome.survivors[0].value);
    Ok(McClusterFtOutcome {
        result,
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

    let g = &results[0].value;
    let n = g[0];
    let mean = g[1] / n;
    let var = (g[2] - n * mean * mean) / (n - 1.0);
    let intrinsic = product.payoff.eval(market.spots());
    let result = LsmcResult {
        price: mean.max(intrinsic),
        std_error: (var.max(0.0) / n).sqrt(),
        paths: n as u64,
    };
    let time = TimeModel::from_results(&results);
    Ok(LsmcClusterOutcome { result, time })
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
    let basis = mdp_math::poly::TensorBasis::new(d, cfg.degree, cfg.basis);
    let k = basis.size();
    let sums_width = k * k + k + 1;
    let sim_work = cfg.steps as f64 * ((d * d) as f64 / 2.0 + 8.0 * d as f64 + 6.0);
    let date_work = 2.0 * (d as f64 + (k * k) as f64);
    let store = CheckpointStore::new();

    let outcome = run_spmd_ft(p, machine, plan, |comm| {
        let blocks = lsmc::num_blocks(&cfg) as usize;
        let rank = comm.rank();
        let mut sup = Supervisor::new_with_mode(comm, ckpt_interval, &store, mode);
        let dt = product.maturity / cfg.steps as f64;
        let disc_dt = (-market.rate() * dt).exp();
        let payoff = &product.payoff;
        let spots0 = market.spots();

        // Initial partition: contiguous block range over the full set.
        let (lo0, hi0) =
            partition::block_range(blocks, sup.active().len(), sup.dense_index(rank));
        let (mut blo, mut bhi) = (lo0 as u64, hi0 as u64);
        let mut panel = lsmc::simulate_panel(market, product, &cfg, blo..bhi);
        comm.compute_units(panel.paths as f64 * sim_work);

        // Terminal sweep state (identical math to `lsmc::backward_sweep`).
        let mut cashflow: Vec<f64> = (0..panel.paths)
            .map(|q| payoff.eval(&panel.spots[cfg.steps - 1][q * d..(q + 1) * d]))
            .collect();
        let mut cf_time: Vec<u32> = vec![cfg.steps as u32; panel.paths];

        let mut phi = vec![0.0; k];
        let mut x = vec![0.0; d];
        let mut j = 0usize; // processed dates == boundary index
        while j < cfg.steps - 1 {
            if let Some(rec) = sup.boundary(comm, j, || {
                (blo as usize, encode_sweep_state(&cfg, blo, bhi, &cashflow, &cf_time))
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
                cashflow.clear();
                cf_time.clear();
                for b in blo..bhi {
                    let (cf, ct) = pool.get(&b).expect("pool covers every block");
                    cashflow.extend_from_slice(cf);
                    cf_time.extend_from_slice(ct);
                }
                j = j0;
                continue; // re-enter boundary j0: fresh-era checkpoint
            }

            let t = cfg.steps - 1 - j; // exercise date, steps−1 .. 1
            let layer = &panel.spots[t - 1];
            // Per-block normal-equation sums (block-local path order is
            // fixed, so each block's sums are owner-independent).
            let mut payload: Vec<f64> = Vec::new();
            let mut off = 0usize;
            for b in blo..bhi {
                let nb = lsmc::block_paths(&cfg, b) as usize;
                let mut sums = RegressionSums::new(k);
                for q in off..off + nb {
                    let s = &layer[q * d..(q + 1) * d];
                    let intrinsic = payoff.eval(s);
                    if intrinsic > 0.0 {
                        for (xi, (si, s0)) in x.iter_mut().zip(s.iter().zip(spots0)) {
                            *xi = si / s0;
                        }
                        basis.eval(&x, &mut phi);
                        let y = cashflow[q] * disc_dt.powi((cf_time[q] - t as u32) as i32);
                        sums.push(&phi, y);
                    }
                }
                payload.push(b as f64);
                payload.extend(sums.to_vec());
                off += nb;
            }
            comm.compute_units(panel.paths as f64 * date_work);

            // Fold the per-block sums in global block order at the
            // first active rank — a partition-independent association.
            let active = sup.active().to_vec();
            let root = active[0];
            let gathered = gather_active(comm, &active, root, &payload);
            let mut merged = vec![0.0; sums_width];
            if rank == root {
                let mut entries: Vec<&[f64]> = gathered
                    .iter()
                    .flat_map(|part| part.chunks_exact(1 + sums_width))
                    .collect();
                entries.sort_by_key(|e| e[0] as u64);
                debug_assert_eq!(entries.len(), blocks, "every block exactly once");
                for e in &entries {
                    for (m, v) in merged.iter_mut().zip(&e[1..]) {
                        *m += v;
                    }
                }
            }
            let merged = broadcast_active(comm, &active, root, &merged);

            if let Some(beta) = RegressionSums::from_slice(k, &merged).solve(cfg.ridge) {
                // Exercise where intrinsic beats the fitted continuation.
                for q in 0..panel.paths {
                    let s = &layer[q * d..(q + 1) * d];
                    let intrinsic = payoff.eval(s);
                    if intrinsic > 0.0 {
                        for (xi, (si, s0)) in x.iter_mut().zip(s.iter().zip(spots0)) {
                            *xi = si / s0;
                        }
                        basis.eval(&x, &mut phi);
                        let continuation: f64 =
                            beta.iter().zip(&phi).map(|(b, f)| b * f).sum();
                        if intrinsic >= continuation {
                            cashflow[q] = intrinsic;
                            cf_time[q] = t as u32;
                        }
                    }
                }
            }
            j += 1;
        }
        sup.flush(comm);

        // Final per-block [count, Σ, Σ²] over time-0 discounted
        // cashflows, folded in block order — partition-independent.
        let discounted: Vec<f64> = cashflow
            .iter()
            .zip(&cf_time)
            .map(|(cf, tt)| cf * disc_dt.powi(*tt as i32))
            .collect();
        let mut payload: Vec<f64> = Vec::new();
        let mut off = 0usize;
        for b in blo..bhi {
            let nb = lsmc::block_paths(&cfg, b) as usize;
            let slice = &discounted[off..off + nb];
            payload.push(b as f64);
            payload.push(nb as f64);
            payload.push(slice.iter().sum());
            payload.push(slice.iter().map(|c| c * c).sum());
            off += nb;
        }
        let active = sup.active().to_vec();
        let root = active[0];
        let gathered = gather_active(comm, &active, root, &payload);
        let mut stats = vec![0.0; 3];
        if rank == root {
            let mut entries: Vec<&[f64]> = gathered
                .iter()
                .flat_map(|part| part.chunks_exact(4))
                .collect();
            entries.sort_by_key(|e| e[0] as u64);
            for e in &entries {
                stats[0] += e[1];
                stats[1] += e[2];
                stats[2] += e[3];
            }
        }
        broadcast_active(comm, &active, root, &stats)
    })
    .map_err(|e| McError::Unsupported(e.to_string()))?;

    let g = &outcome.survivors[0].value;
    let n = g[0];
    let mean = g[1] / n;
    let var = (g[2] - n * mean * mean) / (n - 1.0);
    let intrinsic = product.payoff.eval(market.spots());
    let result = LsmcResult {
        price: mean.max(intrinsic),
        std_error: (var.max(0.0) / n).sqrt(),
        paths: n as u64,
    };
    Ok(LsmcClusterFtOutcome {
        result,
        time: outcome.time_model(),
        crashed: outcome.crash_sites(),
    })
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
            let par = price_mc_cluster(&m, &p, cfg, ranks, Machine::ideal()).unwrap();
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
        let a = price_mc_cluster(&m, &p, cfg, 2, Machine::cluster2002()).unwrap();
        let b = price_mc_cluster(&m, &p, cfg, 7, Machine::cluster2002()).unwrap();
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
        let t1 = price_mc_cluster(&m, &p, cfg, 1, Machine::cluster2002())
            .unwrap()
            .time
            .makespan;
        let t8 = price_mc_cluster(&m, &p, cfg, 8, Machine::cluster2002())
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
            let t1 = price_mc_cluster(&m, &p, cfg, 1, Machine::cluster2002())
                .unwrap()
                .time
                .makespan;
            let t8 = price_mc_cluster(&m, &p, cfg, 8, Machine::cluster2002())
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
            let t1 = price_mc_cluster(&m, &eu, mc_cfg, 1, Machine::cluster2002())
                .unwrap()
                .time
                .makespan;
            let t8 = price_mc_cluster(&m, &eu, mc_cfg, 8, Machine::cluster2002())
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
        let ft = price_mc_cluster_ft(
            &m,
            &p,
            cfg,
            4,
            Machine::cluster2002(),
            mdp_cluster::FaultPlan::new(5),
            8,
            2,
        )
        .unwrap();
        assert_eq!(ft.result.price.to_bits(), seq.price.to_bits());
        assert_eq!(ft.result.paths, seq.paths);
        assert!(ft.crashed.is_empty());
        assert!(ft.time.total_ckpt_time > 0.0);
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
                price_mc_cluster_ft(&m, &p, cfg, 4, Machine::cluster2002(), plan, 8, 2).unwrap();
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
        let ft = price_mc_cluster_ft(&m, &p, cfg, 4, Machine::cluster2002(), plan, 6, 1).unwrap();
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
        assert!(price_mc_cluster(&m, &am, McConfig::default(), 2, Machine::ideal()).is_err());
        let eu = Product::european(Payoff::MaxCall { strike: 100.0 }, 1.0);
        assert!(price_lsmc_cluster(&m, &eu, LsmcConfig::default(), 2, Machine::ideal()).is_err());
    }
}
