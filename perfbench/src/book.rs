//! `book_risk`: a closed loop, one caller, pricing a multi-asset book
//! through `mdp-core` on `Backend::Sequential`.
//!
//! The book has one group per engine. Each pass revalues the whole book
//! with `Portfolio::price_batch`, applies one seeded spot, vol or rate
//! tick to the compiled group plans with `GroupPlan::apply_tick` and
//! reprices on the patched plans, and reads cube Greeks with
//! `RiskCube::greeks` for the FD and MC groups. The serve layer and the
//! cluster are not used.
//!
//! The scored passes run on one thread. On a host of two shared cores
//! the `Backend::Rayon` book (one thread per core, spawned per call)
//! waits on its slowest thread, and its pass time varied by more than
//! a factor of two between runs of the same code. The traced run still
//! times a Rayon revaluation for `core.rayon_speedup`.

use crate::host::{self, Bounds};
use crate::median;
use crate::report::Report;
use crate::rng::Rng;
use crate::spec::book as spec;
use crate::trace::Tracer;
use mdp_core::prelude::*;
use std::time::Instant;

/// Work of one execute of a group, in the unit its kernel row is
/// normalised by, with the bytes and flops each unit computes.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    pub units: f64,
    pub bytes_per_unit: f64,
    pub flops_per_unit: f64,
}

/// One engine group of the book.
#[derive(Debug, Clone)]
pub struct Group {
    /// Engine name used in metric names (see [`crate::report::ENGINES`]).
    pub engine: &'static str,
    /// Kernel row, as `<layer>.<engine>` (see [`crate::report::KERNELS`]).
    pub kernel: &'static str,
    /// The kernel's per-unit time metric.
    pub ns_metric: &'static str,
    /// The scored book, on `Backend::Sequential`. Its pricer is the
    /// per-product oracle of the checks.
    pub portfolio: Portfolio,
    /// The same method on the parallel backend, timed once in a traced
    /// run for `core.rayon_speedup`.
    pub parallel: Portfolio,
    pub market: GbmMarket,
    pub products: Vec<Product>,
    /// Products with a closed form: `(index, closed-form price)`.
    pub references: Vec<(usize, f64)>,
    /// Whether the pass reads cube Greeks for this group.
    pub cube: bool,
    pub work: Work,
}

fn group(
    engine: &'static str,
    method: Method,
    parallel: Backend,
    market: GbmMarket,
    products: Vec<Product>,
    cube: bool,
    work: Work,
) -> Group {
    let references = products
        .iter()
        .enumerate()
        .filter_map(|(i, p)| analytic::price_product(&market, p).map(|v| (i, v)))
        .collect();
    let (kernel, ns_metric) = match engine {
        "fd1d" => ("pde.fd1d", "pde.fd1d_ns_per_node"),
        "adi3d" => ("pde.adi3d", "pde.adi3d_ns_per_node"),
        "lattice" => ("lattice.beg", "lattice.ns_per_node"),
        "mc" => ("mc.mc", "mc.ns_per_path_dim"),
        _ => ("mc.lsmc", "mc.lsmc_ns_per_path_date"),
    };
    Group {
        engine,
        kernel,
        ns_metric,
        portfolio: Portfolio::new(Pricer::new(method.clone())),
        parallel: Portfolio::new(Pricer::new(method).backend(parallel)),
        market,
        products,
        references,
        cube,
        work,
    }
}

impl Group {
    /// Kernel layer: `pde`, `lattice` or `mc`.
    pub fn family(&self) -> &'static str {
        self.kernel.split('.').next().unwrap_or(self.kernel)
    }
}

/// Generate the book from its seed. Markets and reference products are
/// fixed; the other strikes are seeded.
pub fn book(seed: u64) -> Vec<Group> {
    let mut rng = Rng::new(seed, "book.strikes");
    let t = spec::MATURITY;
    let market = |d: usize, vol: f64| {
        GbmMarket::symmetric(d, 100.0, vol, 0.0, 0.05, 0.3).expect("valid book market")
    };
    let mut strike = |lo: f64, hi: f64| (rng.range(lo, hi) * 4.0).round() / 4.0;

    let fd = Fd1d::default();
    let mut fd_book = vec![Product::european(
        Payoff::BasketCall {
            weights: vec![1.0],
            strike: 100.0,
        },
        t,
    )];
    for _ in 1..spec::FD_EUROPEAN {
        let weights = vec![1.0];
        fd_book.push(Product::european(
            Payoff::BasketCall {
                weights,
                strike: strike(70.0, 130.0),
            },
            t,
        ));
    }
    for _ in 0..spec::FD_AMERICAN {
        let weights = vec![1.0];
        fd_book.push(Product::american(
            Payoff::BasketPut {
                weights,
                strike: strike(70.0, 130.0),
            },
            t,
        ));
    }
    let fd_work = Work {
        units: (fd_book.len() * fd.space_points * fd.time_steps) as f64,
        bytes_per_unit: 48.0,
        flops_per_unit: 12.0,
    };

    let mut lat_book = vec![
        Product::european(Payoff::Exchange, t),
        Product::european(Payoff::MaxCall { strike: 100.0 }, t),
    ];
    for i in 0..spec::LATTICE_AMERICAN {
        let k = strike(90.0, 110.0);
        lat_book.push(Product::american(
            if i % 2 == 0 {
                Payoff::MinPut { strike: k }
            } else {
                Payoff::MaxCall { strike: k }
            },
            t,
        ));
    }
    let lat_nodes: f64 = (0..=spec::LATTICE_STEPS)
        .map(|s| ((s + 1) * (s + 1)) as f64)
        .sum();
    let lat_work = Work {
        units: lat_book.len() as f64 * lat_nodes,
        bytes_per_unit: 40.0,
        flops_per_unit: 10.0,
    };

    let adi = Adi3d {
        space_points: spec::ADI_POINTS,
        time_steps: spec::ADI_STEPS,
        width: 5.0,
    };
    let mut adi_book = vec![Product::european(
        Payoff::GeometricCall { strike: 100.0 },
        t,
    )];
    for _ in 0..spec::ADI_AMERICAN {
        adi_book.push(Product::american(
            Payoff::MinPut {
                strike: strike(95.0, 115.0),
            },
            t,
        ));
    }
    let adi_work = Work {
        units: (adi_book.len() * adi.space_points.pow(3) * adi.time_steps) as f64,
        bytes_per_unit: 96.0,
        flops_per_unit: 60.0,
    };

    let d5 = 5;
    let mc_cfg = McConfig {
        paths: spec::MC_PATHS,
        ..Default::default()
    };
    let mut mc_book = vec![Product::european(
        Payoff::GeometricCall { strike: 100.0 },
        t,
    )];
    for _ in 0..spec::MC_BASKETS {
        mc_book.push(Product::european(
            Payoff::BasketCall {
                weights: Product::equal_weights(d5),
                strike: strike(85.0, 115.0),
            },
            t,
        ));
    }
    let mc_work = Work {
        units: (spec::MC_PATHS * d5 as u64) as f64,
        bytes_per_unit: 8.0,
        flops_per_unit: 30.0,
    };

    let lsmc_cfg = LsmcConfig {
        paths: spec::LSMC_PATHS,
        steps: spec::LSMC_DATES,
        block_size: 1_000,
        ..Default::default()
    };
    let lsmc_book: Vec<Product> = (0..spec::LSMC_OPTIONS)
        .map(|i| {
            let k = strike(90.0, 110.0);
            Product::american(
                if i % 2 == 0 {
                    Payoff::MaxCall { strike: k }
                } else {
                    Payoff::BasketPut {
                        weights: Product::equal_weights(d5),
                        strike: k,
                    }
                },
                t,
            )
        })
        .collect();
    let lsmc_work = Work {
        units: (lsmc_book.len() as u64 * spec::LSMC_PATHS * spec::LSMC_DATES as u64) as f64,
        bytes_per_unit: 8.0 * d5 as f64,
        flops_per_unit: 40.0 * d5 as f64,
    };

    vec![
        group(
            "fd1d",
            Method::Fd1d(fd),
            Backend::Rayon,
            market(1, 0.2),
            fd_book,
            true,
            fd_work,
        ),
        group(
            "lattice",
            Method::lattice(spec::LATTICE_STEPS),
            Backend::Rayon,
            market(2, 0.2),
            lat_book,
            false,
            lat_work,
        ),
        // 3-D ADI has no rayon backend; its parallel book runs
        // sequentially too.
        group(
            "adi3d",
            Method::Adi3d(adi),
            Backend::Sequential,
            market(3, 0.2),
            adi_book,
            false,
            adi_work,
        ),
        group(
            "mc",
            Method::MonteCarlo(mc_cfg),
            Backend::Rayon,
            market(d5, 0.25),
            mc_book,
            true,
            mc_work,
        ),
        group(
            "lsmc",
            Method::Lsmc(lsmc_cfg),
            Backend::Rayon,
            market(d5, 0.25),
            lsmc_book,
            false,
            lsmc_work,
        ),
    ]
}

/// The tick of pass `j` for a group's base market: one field moved to
/// a seeded value near its base, so markets stay in range however long
/// the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    pub kind: usize,
    pub asset: usize,
    pub z: f64,
}

pub const TICK_KINDS: [&str; 3] = ["spot", "vol", "rate"];

pub fn ticks(seed: u64, n: usize) -> Vec<Tick> {
    let mut rng = Rng::new(seed, "book.ticks");
    (0..n)
        .map(|_| Tick {
            kind: rng.below(3),
            asset: rng.below(5),
            z: rng.range(-1.0, 1.0),
        })
        .collect()
}

impl Tick {
    pub fn delta(&self, base: &GbmMarket) -> MarketDelta {
        let asset = self.asset % base.dim();
        match self.kind {
            0 => MarketDelta::Spot {
                asset,
                spot: base.spots()[asset] * (1.0 + 0.02 * self.z),
            },
            1 => MarketDelta::Vol {
                asset,
                vol: base.vols()[asset] * (1.0 + 0.1 * self.z),
            },
            _ => MarketDelta::Rate {
                rate: base.rate() + 0.01 * self.z,
            },
        }
    }
}

/// Bitwise equality of two price lists.
pub fn prices_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Cube Greeks against the bump-and-reprice loop: delta, gamma, vega
/// and rho bit for bit.
pub fn greeks_equal(cube: &CubeGreeks, direct: &Greeks) -> bool {
    prices_equal(&cube.delta, &direct.delta)
        && prices_equal(&cube.gamma, &direct.gamma)
        && prices_equal(&cube.vega, &direct.vega)
        && cube.rho.to_bits() == direct.rho.to_bits()
}

/// Relative error against a closed form, in basis points.
pub fn error_bp(price: f64, exact: f64) -> f64 {
    1e4 * (price - exact).abs() / exact.abs()
}

/// A reference price is within its stated tolerance of the closed
/// form: [`spec::REFERENCE_TOL_SE`] standard errors for Monte Carlo,
/// [`spec::REFERENCE_TOL_BP`] basis points for the grid engines.
pub fn reference_ok(price: f64, std_error: Option<f64>, exact: f64) -> bool {
    match std_error {
        Some(se) => (price - exact).abs() <= spec::REFERENCE_TOL_SE * se,
        None => error_bp(price, exact) <= spec::REFERENCE_TOL_BP,
    }
}

/// A sampled output, checked after the timed loop.
enum Sample {
    Reval {
        g: usize,
        p: usize,
        price: f64,
    },
    Tick {
        g: usize,
        p: usize,
        market: GbmMarket,
        price: f64,
    },
    Greeks {
        g: usize,
        p: usize,
        market: GbmMarket,
        greeks: CubeGreeks,
    },
}

type Res<T> = Result<T, String>;

fn err<'a>(what: &'a str, engine: &'a str) -> impl Fn(PriceError) -> String + 'a {
    move |e| format!("{what} {engine}: {e}")
}

/// Per-pass timings.
#[derive(Default)]
struct Pass {
    reval: f64,
    tick: f64,
    greeks: f64,
    /// Seconds per group over the whole pass.
    per_group: Vec<f64>,
    /// Seconds of the reference kernel run right after the pass.
    reference: f64,
}

/// Layer timings collected in a traced run.
#[derive(Default)]
struct Layers {
    plan: Vec<Vec<f64>>,
    execute: Vec<Vec<f64>>,
    tick: Vec<[Vec<f64>; 3]>,
    cube: Vec<f64>,
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Res<Report> {
    let groups = book(seed);
    let cubes: Vec<RiskCube> = groups
        .iter()
        .map(|g| RiskCube::new(g.portfolio.pricer().clone()))
        .collect();
    let mut report = Report::default();
    let traced = tracer.enabled();

    // Set-up: the first plan of every group and one warm-up
    // revaluation, repeated; the last plans are the ones ticked.
    let mut setup = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..spec::SETUP_REPEATS {
        let t = host::SetupClock::start();
        plans = groups
            .iter()
            .map(|g| {
                g.portfolio
                    .plan_group(&g.market, spec::MATURITY)
                    .map_err(err("plan", g.engine))
            })
            .collect::<Res<Vec<_>>>()?;
        for g in &groups {
            g.portfolio
                .price_batch(&g.market, &g.products)
                .map_err(err("warm-up", g.engine))?;
        }
        setup.push(t.stop());
    }
    report.setup(&setup);

    let mut sample_rng = Rng::new(seed, "book.samples");
    let tick_stream = ticks(seed, 100_000);
    let mut samples = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut layers = Layers {
        plan: vec![Vec::new(); groups.len()],
        execute: vec![Vec::new(); groups.len()],
        tick: (0..groups.len()).map(|_| Default::default()).collect(),
        cube: Vec::new(),
    };
    let mut reval: Vec<Vec<PriceReport>> = vec![Vec::new(); groups.len()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || passes.is_empty() {
        let j = passes.len();
        let pass_id = tracer.id();
        let t_pass = Instant::now();
        let mut pass = Pass {
            per_group: vec![0.0; groups.len()],
            ..Default::default()
        };

        // 1. Full revaluation.
        let t0 = Instant::now();
        for (gi, g) in groups.iter().enumerate() {
            let tg = Instant::now();
            reval[gi] = if traced {
                let (a, b) = (Instant::now(), tracer.id());
                let mut plan = g
                    .portfolio
                    .plan_group(&g.market, spec::MATURITY)
                    .map_err(err("plan", g.engine))?;
                let m = Instant::now();
                tracer.record(
                    b,
                    &format!("plan_group {}", g.engine),
                    "core",
                    a,
                    m,
                    Some(pass_id),
                    0,
                    vec![],
                );
                let (reports, _) = g
                    .portfolio
                    .execute_group(&mut plan, &g.products, 0.0)
                    .map_err(err("execute", g.engine))?;
                let e = Instant::now();
                tracer.record(
                    tracer.id(),
                    &format!("execute_group {}", g.engine),
                    g.family(),
                    m,
                    e,
                    Some(pass_id),
                    0,
                    vec![],
                );
                layers.plan[gi].push((m - a).as_secs_f64());
                layers.execute[gi].push((e - m).as_secs_f64());
                reports
            } else {
                g.portfolio
                    .price_batch(&g.market, &g.products)
                    .map_err(err("revalue", g.engine))?
                    .reports
            };
            pass.per_group[gi] += tg.elapsed().as_secs_f64();
        }
        pass.reval = t0.elapsed().as_secs_f64();

        // 2. One tick on the compiled plans, then reprice.
        let tick = tick_stream[j % tick_stream.len()];
        let t1 = Instant::now();
        let mut ticked: Vec<Vec<f64>> = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            let tg = Instant::now();
            let delta = tick.delta(&g.market);
            plans[gi]
                .apply_tick(&delta)
                .map_err(err("tick", g.engine))?;
            let m = Instant::now();
            let (reports, _) = g
                .portfolio
                .execute_group(&mut plans[gi], &g.products, 0.0)
                .map_err(err("reprice", g.engine))?;
            let e = Instant::now();
            if traced {
                let attrs = vec![("kind", tick.kind as f64)];
                tracer.record(
                    tracer.id(),
                    &format!("apply_tick {}", g.engine),
                    "core",
                    tg,
                    m,
                    Some(pass_id),
                    0,
                    attrs,
                );
                tracer.record(
                    tracer.id(),
                    &format!("execute_group {}", g.engine),
                    g.family(),
                    m,
                    e,
                    Some(pass_id),
                    0,
                    vec![],
                );
                layers.tick[gi][tick.kind].push((m - tg).as_secs_f64());
            }
            ticked.push(reports.iter().map(|r| r.price).collect());
            pass.per_group[gi] += (e - tg).as_secs_f64();
        }
        pass.tick = t1.elapsed().as_secs_f64();

        // 3. Cube Greeks on the FD and MC groups, on the ticked market.
        let t2 = Instant::now();
        let mut greeks: Vec<Option<Vec<CubeGreeks>>> = vec![None; groups.len()];
        for (gi, g) in groups.iter().enumerate().filter(|(_, g)| g.cube) {
            let tg = Instant::now();
            let market = plans[gi].market().clone();
            let out = cubes[gi]
                .greeks(&market, &g.products, BumpConfig::default())
                .map_err(err("greeks", g.engine))?;
            let e = Instant::now();
            tracer.record(
                tracer.id(),
                &format!("greeks {}", g.engine),
                "core",
                tg,
                e,
                Some(pass_id),
                0,
                vec![],
            );
            greeks[gi] = Some(out);
            pass.per_group[gi] += (e - tg).as_secs_f64();
        }
        pass.greeks = t2.elapsed().as_secs_f64();
        if traced {
            layers.cube.push(pass.greeks);
        }
        tracer.record(
            pass_id,
            "book pass",
            "book",
            t_pass,
            Instant::now(),
            None,
            0,
            vec![("pass", j as f64)],
        );

        // Seeded samples for the checks after the loop.
        let g = sample_rng.below(groups.len());
        let p = sample_rng.below(groups[g].products.len());
        samples.push(Sample::Reval {
            g,
            p,
            price: reval[g][p].price,
        });
        let g = sample_rng.below(groups.len());
        let p = sample_rng.below(groups[g].products.len());
        samples.push(Sample::Tick {
            g,
            p,
            market: plans[g].market().clone(),
            price: ticked[g][p],
        });
        if j.is_multiple_of(16) {
            for (gi, out) in greeks.into_iter().enumerate() {
                if let Some(out) = out {
                    let p = sample_rng.below(out.len());
                    let market = plans[gi].market().clone();
                    samples.push(Sample::Greeks {
                        g: gi,
                        p,
                        market,
                        greeks: out[p].clone(),
                    });
                }
            }
        }
        pass.reference = host::reference_kernel().wall_s;
        passes.push(pass);
    }

    let totals: Vec<f64> = passes.iter().map(|p| p.reval + p.tick + p.greeks).collect();
    report.attempted = passes.len() as u64;
    let scaled: Vec<f64> = passes
        .iter()
        .zip(&totals)
        .map(|(p, &total)| host::at_nominal_speed(total, p.reference))
        .collect();
    report.wall("p50_ms", 1e3 * median(&scaled));
    report.wall("p50_raw_ms", 1e3 * median(&totals));
    report.wall(
        "host.ref_kernel_ms",
        1e3 * median(&passes.iter().map(|p| p.reference).collect::<Vec<_>>()),
    );
    report.wall(
        "reval_ms",
        1e3 * median(&passes.iter().map(|p| p.reval).collect::<Vec<_>>()),
    );
    report.wall(
        "tick_ms",
        1e3 * median(&passes.iter().map(|p| p.tick).collect::<Vec<_>>()),
    );
    report.wall(
        "greeks_ms",
        1e3 * median(&passes.iter().map(|p| p.greeks).collect::<Vec<_>>()),
    );
    // The balance rule: no engine family above half of a pass, none
    // below a fifth.
    let shares: Vec<String> = ["pde", "lattice", "mc"]
        .iter()
        .map(|family| {
            let share: Vec<f64> = passes
                .iter()
                .zip(&totals)
                .map(|(p, total)| {
                    let own: f64 = groups
                        .iter()
                        .zip(&p.per_group)
                        .filter(|(g, _)| g.family() == *family)
                        .map(|(_, s)| s)
                        .sum();
                    own / total
                })
                .collect();
            format!("{family} {:.3}", median(&share))
        })
        .collect();
    println!(
        "book: median share of a pass by engine family: {}",
        shares.join(", ")
    );

    // Checks, outside the timed region.
    let mut worst_bp = 0.0f64;
    for (gi, g) in groups.iter().enumerate() {
        for &(p, exact) in &g.references {
            let r = &reval[gi][p];
            let e = error_bp(r.price, exact);
            worst_bp = worst_bp.max(e);
            report.check(
                reference_ok(r.price, r.std_error, exact),
                &format!("{} reference {p}: {e:.1} bp from its closed form", g.engine),
            );
        }
    }
    report.count("price_err_bp", worst_bp);
    check_samples(&groups, &samples, &mut report)?;
    report.count("ok_frac", report.ok_frac());

    if traced {
        traced_metrics(&groups, &layers, &passes, &mut report)?;
    }
    Ok(report)
}

fn check_samples(groups: &[Group], samples: &[Sample], report: &mut Report) -> Res<()> {
    let mut seq_memo: Vec<Vec<Option<f64>>> = groups
        .iter()
        .map(|g| vec![None; g.products.len()])
        .collect();
    for s in samples {
        match s {
            Sample::Reval { g, p, price } => {
                let grp = &groups[*g];
                let direct = match seq_memo[*g][*p] {
                    Some(v) => v,
                    None => {
                        let v = grp
                            .portfolio
                            .pricer()
                            .price(&grp.market, &grp.products[*p])
                            .map_err(err("sequential price", grp.engine))?
                            .price;
                        seq_memo[*g][*p] = Some(v);
                        v
                    }
                };
                report.check(
                    prices_equal(&[*price], &[direct]),
                    &format!(
                        "{} product {p}: book price differs from sequential Pricer::price",
                        grp.engine
                    ),
                );
            }
            Sample::Tick {
                g,
                p,
                market,
                price,
            } => {
                let grp = &groups[*g];
                let mut fresh = grp
                    .portfolio
                    .plan_group(market, spec::MATURITY)
                    .map_err(err("fresh plan", grp.engine))?;
                let (reports, _) = grp
                    .portfolio
                    .execute_group(&mut fresh, std::slice::from_ref(&grp.products[*p]), 0.0)
                    .map_err(err("fresh execute", grp.engine))?;
                report.check(
                    prices_equal(&[*price], &[reports[0].price]),
                    &format!(
                        "{} product {p}: patched-plan price differs from a fresh plan",
                        grp.engine
                    ),
                );
            }
            Sample::Greeks {
                g,
                p,
                market,
                greeks,
            } => {
                let grp = &groups[*g];
                let direct = grp
                    .portfolio
                    .pricer()
                    .greeks(market, &grp.products[*p], BumpConfig::default())
                    .map_err(err("Pricer::greeks", grp.engine))?;
                report.check(
                    greeks_equal(greeks, &direct),
                    &format!(
                        "{} product {p}: cube Greeks differ from Pricer::greeks",
                        grp.engine
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Per-layer metrics of a traced run.
fn traced_metrics(
    groups: &[Group],
    layers: &Layers,
    passes: &[Pass],
    report: &mut Report,
) -> Res<()> {
    for (gi, g) in groups.iter().enumerate() {
        report.wall(
            &format!("core.plan_ms.{}", g.engine),
            1e3 * median(&layers.plan[gi]),
        );
        let exec = median(&layers.execute[gi]);
        report.wall(&format!("core.execute_ms.{}", g.engine), 1e3 * exec);
        for (k, kind) in TICK_KINDS.iter().enumerate() {
            report.wall(
                &format!("core.tick_us.{}.{kind}", g.engine),
                1e6 * median(&layers.tick[gi][k]),
            );
        }
        report.wall(g.ns_metric, 1e9 * exec / g.work.units);
        report.kernels.push(crate::report::KernelRate {
            kernel: g.kernel,
            bytes_per_s: g.work.units * g.work.bytes_per_unit / exec,
            flops_per_s: g.work.units * g.work.flops_per_unit / exec,
        });
    }
    report.wall("core.cube_ms", 1e3 * median(&layers.cube));

    // One parallel revaluation against the median sequential one.
    let t = Instant::now();
    for g in groups {
        g.parallel
            .price_batch(&g.market, &g.products)
            .map_err(err("parallel revalue", g.engine))?;
    }
    let rayon = t.elapsed().as_secs_f64();
    let seq = median(&passes.iter().map(|p| p.reval).collect::<Vec<_>>());
    report.wall("core.rayon_speedup", seq / rayon);
    Ok(())
}

/// Kernel rows against the host bounds: computed GB/s, and the
/// roofline fraction `max(bytes/s ÷ triad, flops/s ÷ FMA peak)`.
pub fn roofline(report: &mut Report, bounds: &Bounds) {
    for k in report.kernels.clone() {
        report.computed(&format!("{}.gbs_computed", k.kernel), k.bytes_per_s / 1e9);
        let fraction =
            (k.bytes_per_s / 1e9 / bounds.triad_gbs).max(k.flops_per_s / 1e9 / bounds.fma_gflops);
        report.computed(&format!("{}.fraction_of_bound", k.kernel), fraction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> String {
        format!(
            "{:?}",
            book(seed).iter().map(|g| &g.products).collect::<Vec<_>>()
        )
    }

    #[test]
    fn book_and_ticks_replay_per_seed_and_differ_across_seeds() {
        assert_eq!(fingerprint(1), fingerprint(1));
        assert_ne!(fingerprint(1), fingerprint(2));
        assert_eq!(ticks(1, 50), ticks(1, 50));
        assert_ne!(ticks(1, 50), ticks(2, 50));
    }

    #[test]
    fn every_group_has_its_references_and_the_book_is_sized_by_spec() {
        let b = book(9);
        let names: Vec<&str> = b.iter().map(|g| g.engine).collect();
        assert_eq!(names, crate::report::ENGINES);
        // Black–Scholes (every European FD call), Margrabe and Stulz on
        // the lattice, and geometric baskets on 3-D ADI and MC; LSMC has
        // no closed form.
        let refs: Vec<usize> = b.iter().map(|g| g.references.len()).collect();
        assert_eq!(refs, vec![spec::FD_EUROPEAN, 2, 1, 1, 0]);
        assert_eq!(b[0].products.len(), spec::FD_EUROPEAN + spec::FD_AMERICAN);
        assert!(b
            .iter()
            .all(|g| g.products.iter().all(|p| p.maturity == spec::MATURITY)));
    }

    #[test]
    fn checks_fire_on_a_perturbed_price() {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        assert!(prices_equal(&[1.5, 2.0], &[1.5, 2.0]));
        assert!(!prices_equal(&[1.5, 2.0], &[1.5, up(2.0)]));

        let mut g = Greeks::zeros(2);
        g.delta = vec![0.4, 0.5];
        g.gamma = vec![0.01, 0.02];
        g.vega = vec![10.0, 11.0];
        g.rho = 30.0;
        let cube = CubeGreeks {
            price: 1.0,
            delta: g.delta.clone(),
            gamma: g.gamma.clone(),
            vega: g.vega.clone(),
            rho: g.rho,
        };
        assert!(greeks_equal(&cube, &g));
        for field in 0..4 {
            let mut c = cube.clone();
            match field {
                0 => c.delta[1] = up(c.delta[1]),
                1 => c.gamma[0] = up(c.gamma[0]),
                2 => c.vega[1] = up(c.vega[1]),
                _ => c.rho = up(c.rho),
            }
            assert!(!greeks_equal(&c, &g), "field {field}");
        }

        let (_, exact) = book(4)[0].references[0];
        assert!(reference_ok(exact, None, exact));
        assert!(!reference_ok(exact * 1.02, None, exact));
        assert!(reference_ok(exact + 0.1, Some(0.05), exact));
        assert!(!reference_ok(exact + 0.3, Some(0.05), exact));
    }
}
