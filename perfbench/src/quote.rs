//! `quote_stream`: an open loop of quote requests against `mdp-serve`.
//!
//! One generator thread sends each request when it is due, whether or
//! not earlier replies have come back; one collector thread stamps each
//! reply as it arrives. Latency runs from when a request was due to
//! when its reply was received, so a stall also charges the requests it
//! delayed.
//!
//! Markets move: ticks replace an underlier's market with a new one,
//! and later requests carry it, which puts new plan-cache keys beside
//! the hits. The generator never calls `PricingService::apply_tick`,
//! which would patch every cached plan whatever market the tick belongs
//! to.

use crate::host;
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::spec::quote as spec;
use crate::trace::Tracer;
use crate::{median, pct};
use mdp_core::prelude::*;
use mdp_serve::{Fidelity, PriceRequest, PriceResponse, PricingService, ServeConfig, ServeError};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One generated request.
#[derive(Debug, Clone)]
pub struct Quote {
    /// Seconds after the start of the loop when it is due.
    pub due: f64,
    /// Index into [`Schedule::markets`].
    pub market: usize,
    pub product: Product,
    /// `None` prices with the service's default (FD).
    pub method: Option<Method>,
    /// Identity of the product within its key, for memoised checks.
    pub variant: usize,
}

/// All inputs of one run, generated before anything is timed.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub markets: Vec<Arc<GbmMarket>>,
    /// One request per base key, sent during set-up.
    pub warmup: Vec<Quote>,
    pub quotes: Vec<Quote>,
}

/// The service's default method: the 1-asset FD quotes use it.
fn fd_method() -> Method {
    Method::Fd1d(Fd1d {
        space_points: spec::FD_POINTS,
        time_steps: spec::FD_STEPS,
        ..Default::default()
    })
}

fn lattice_method() -> Method {
    Method::MultiLattice {
        steps: spec::LATTICE_STEPS,
    }
}

fn fd_product(base_spot: f64, maturity: f64, variant: usize) -> Product {
    let strike = base_spot * (0.8 + 0.05 * (variant / 2) as f64);
    let weights = vec![1.0];
    let payoff = if variant.is_multiple_of(2) {
        Payoff::BasketCall { weights, strike }
    } else {
        Payoff::BasketPut { weights, strike }
    };
    Product::european(payoff, maturity)
}

fn pair_product(base_spot: f64, maturity: f64, variant: usize) -> Product {
    let strike = base_spot * (0.9 + 0.1 * (variant / 2) as f64);
    if variant.is_multiple_of(2) {
        Product::european(Payoff::MaxCall { strike }, maturity)
    } else {
        Product::american(Payoff::MinPut { strike }, maturity)
    }
}

/// Generate a run's inputs from its seed.
pub fn schedule(seed: u64, seconds: f64) -> Schedule {
    let mut uni = Rng::new(seed, "quote.universe");
    let rate = 0.03;
    let base_spot: Vec<f64> = (0..spec::UNDERLIERS)
        .map(|_| uni.range(50.0, 150.0))
        .collect();
    let vol: Vec<f64> = (0..spec::UNDERLIERS)
        .map(|_| uni.range(0.15, 0.45))
        .collect();
    let rho: Vec<f64> = (0..spec::PAIRS).map(|_| uni.range(0.1, 0.6)).collect();
    let pair_spot = |p: usize, spots: &[f64]| 0.5 * (spots[2 * p] + spots[2 * p + 1]);

    let mut markets: Vec<Arc<GbmMarket>> = Vec::new();
    let single = |s: f64, u: usize| {
        Arc::new(GbmMarket::single(s, vol[u], 0.0, rate).expect("valid 1-asset market"))
    };
    let pair = |spots: &[f64], p: usize| {
        let (a, b) = (2 * p, 2 * p + 1);
        Arc::new(
            GbmMarket::symmetric(2, spots[a], vol[a], 0.0, rate, rho[p])
                .and_then(|m| m.with_spot(1, spots[b]))
                .and_then(|m| m.with_vol(1, vol[b]))
                .expect("valid 2-asset market"),
        )
    };
    let mut spots = base_spot.clone();
    let mut cur_single: Vec<usize> = Vec::new();
    for (u, &s) in spots.iter().enumerate() {
        cur_single.push(markets.len());
        markets.push(single(s, u));
    }
    let mut cur_pair: Vec<usize> = Vec::new();
    for p in 0..spec::PAIRS {
        cur_pair.push(markets.len());
        markets.push(pair(&spots, p));
    }

    let n1 = spec::UNDERLIERS * spec::MATURITIES_1D.len();
    let n2 = spec::PAIRS * spec::MATURITIES_2D.len();
    let make = |key1d: bool, key: usize, variant: usize, due: f64, cs: &[usize], cp: &[usize]| {
        if key1d {
            let (u, m) = (
                key / spec::MATURITIES_1D.len(),
                key % spec::MATURITIES_1D.len(),
            );
            Quote {
                due,
                market: cs[u],
                product: fd_product(base_spot[u], spec::MATURITIES_1D[m], variant),
                method: None,
                variant,
            }
        } else {
            let (p, m) = (
                key / spec::MATURITIES_2D.len(),
                key % spec::MATURITIES_2D.len(),
            );
            Quote {
                due,
                market: cp[p],
                product: pair_product(pair_spot(p, &base_spot), spec::MATURITIES_2D[m], variant),
                method: Some(lattice_method()),
                variant,
            }
        }
    };
    let warmup: Vec<Quote> = (0..n1)
        .map(|k| make(true, k, 0, 0.0, &cur_single, &cur_pair))
        .chain((0..n2).map(|k| make(false, k, 0, 0.0, &cur_single, &cur_pair)))
        .collect();

    // Arrival times: Poisson, piecewise-constant rate.
    let mut arr = Rng::new(seed, "quote.arrivals");
    let mut dues = Vec::new();
    let whole = seconds.ceil() as usize;
    for sec in 0..whole {
        let s0 = sec as f64;
        let b0 = s0 + 0.5;
        let b1 = b0 + spec::BURST_S;
        for (lo, hi, rate) in [
            (s0, b0, spec::BASE_RPS),
            (b0, b1, spec::BURST_RPS),
            (b1, s0 + 1.0, spec::BASE_RPS),
        ] {
            let mut t = lo;
            loop {
                t += arr.exp(rate);
                if t >= hi || t >= seconds {
                    break;
                }
                dues.push(t);
            }
        }
    }

    // Tick times at a fixed rate; each moves one seeded underlier.
    let mut tk = Rng::new(seed, "quote.ticks");
    let ticks: Vec<(f64, usize, f64)> = (1..)
        .map(|j| j as f64 / spec::TICK_HZ)
        .take_while(|&t| t < seconds)
        .map(|t| (t, tk.below(spec::UNDERLIERS), tk.normal()))
        .collect();

    let mut keys = Rng::new(seed, "quote.keys");
    let order1 = keys.permutation(n1);
    let order2 = keys.permutation(n2);
    let (z1, z2) = (Zipf::new(n1, spec::ZIPF_S), Zipf::new(n2, spec::ZIPF_S));
    let mut quotes = Vec::with_capacity(dues.len());
    let mut next_tick = 0;
    for due in dues {
        while next_tick < ticks.len() && ticks[next_tick].0 <= due {
            let (_, u, z) = ticks[next_tick];
            spots[u] *= (spec::TICK_SIZE * z).exp();
            cur_single[u] = markets.len();
            markets.push(single(spots[u], u));
            if u / 2 < spec::PAIRS {
                cur_pair[u / 2] = markets.len();
                markets.push(pair(&spots, u / 2));
            }
            next_tick += 1;
        }
        let q = if keys.uniform() < spec::FD_SHARE {
            let v = keys.below(2 * spec::STRIKES_1D);
            make(
                true,
                order1[z1.sample(&mut keys)],
                v,
                due,
                &cur_single,
                &cur_pair,
            )
        } else {
            let v = keys.below(2 * spec::STRIKES_2D);
            make(
                false,
                order2[z2.sample(&mut keys)],
                v,
                due,
                &cur_single,
                &cur_pair,
            )
        };
        quotes.push(q);
    }
    Schedule {
        markets,
        warmup,
        quotes,
    }
}

fn service() -> PricingService {
    PricingService::start(
        Pricer::new(fd_method()),
        ServeConfig {
            workers: spec::WORKERS,
            queue_capacity: spec::QUEUE_CAPACITY,
            ..Default::default()
        },
    )
}

fn request(id: u64, sched: &Schedule, q: &Quote) -> PriceRequest {
    let mut req = PriceRequest::new(id, Arc::clone(&sched.markets[q.market]), q.product.clone())
        .with_deadline(Duration::from_millis(spec::DEADLINE_MS));
    if let Some(m) = &q.method {
        req = req.with_method(m.clone());
    }
    req
}

/// The direct price a Full response must equal bit for bit.
fn direct_price(sched: &Schedule, q: &Quote) -> Result<f64, PriceError> {
    let method = q.method.clone().unwrap_or_else(fd_method);
    Pricer::new(method)
        .price(&sched.markets[q.market], &q.product)
        .map(|r| r.price)
}

/// The bitwise check of one served price against the direct price.
pub fn served_price_ok(served: f64, direct: f64) -> bool {
    served.to_bits() == direct.to_bits()
}

fn warm(svc: &PricingService, sched: &Schedule) -> Result<(), String> {
    let tickets = sched
        .warmup
        .iter()
        .enumerate()
        .map(|(i, q)| {
            svc.submit(request(i as u64, sched, q).with_deadline(Duration::from_secs(60)))
                .map_err(|e| format!("warm-up submit: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for t in tickets {
        let resp = t.wait().map_err(|e| format!("warm-up reply: {e}"))?;
        resp.outcome.map_err(|e| format!("warm-up price: {e}"))?;
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Report, String> {
    let sched = schedule(seed, seconds);
    let mut report = Report::default();

    // Set-up: service start and cache warm-up, repeated; the last
    // service serves the run.
    let mut setup = Vec::new();
    let mut svc: Option<PricingService> = None;
    for _ in 0..spec::SETUP_REPEATS {
        if let Some(old) = svc.take() {
            old.shutdown();
        }
        let t = host::SetupClock::start();
        let s = service();
        warm(&s, &sched)?;
        setup.push(t.stop());
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    report.setup(&setup);
    // The open loop cannot pause for the reference kernel, so it runs
    // just before and just after the loop, and on the collector thread
    // once a second, away from the bursts.
    let mut references: Vec<f64> = (0..spec::REFERENCE_RUNS)
        .map(|_| host::reference_kernel().wall_s)
        .collect();
    let before = svc.stats();

    let n = sched.quotes.len();
    let mut lags = Vec::with_capacity(n);
    let mut submit_s = Vec::with_capacity(n);
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64, mdp_serve::Ticket)>();
    let start = Instant::now() + Duration::from_millis(5);

    let (answered, shed, during) = std::thread::scope(|s| -> Result<_, String> {
        let collector = s.spawn(|| collect(rx, n, start, tracer));
        let mut shed = 0usize;
        let mut err = None;
        for (i, q) in sched.quotes.iter().enumerate() {
            let req = request(i as u64, &sched, q);
            let due = start + Duration::from_secs_f64(q.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let span = tracer.id();
            let t0 = Instant::now();
            let res = svc.submit(req);
            let t1 = Instant::now();
            lags.push(t0.saturating_duration_since(due).as_secs_f64());
            submit_s.push((t1 - t0).as_secs_f64());
            tracer.record(
                tracer.id(),
                "submit",
                "serve",
                t0,
                t1,
                Some(span),
                track(i),
                Vec::new(),
            );
            match res {
                Ok(ticket) => {
                    tx.send((i, due, span, ticket)).expect("collector alive");
                }
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(e) => {
                    err = Some(format!("submit failed: {e}"));
                    break;
                }
            }
        }
        drop(tx);
        let (answered, during) = collector.join().expect("collector thread")?;
        err.map_or(Ok((answered, shed, during)), Err)
    })?;
    let after = svc.shutdown();
    references.extend(during);
    references.extend((0..spec::REFERENCE_RUNS).map(|_| host::reference_kernel().wall_s));
    let reference = median(&references);

    let lag_p99_ms = 1e3 * pct(&lags, 99.0);
    if lag_p99_ms > spec::LAG_BOUND_MS {
        return Err(format!(
            "invalid run: generator lag p99 {lag_p99_ms:.3} ms exceeds the {} ms bound",
            spec::LAG_BOUND_MS
        ));
    }

    // Checks, outside the timed region: every Full response against a
    // direct price of the same request, memoised per distinct request.
    let mut memo: HashMap<(usize, usize, u64), Result<f64, PriceError>> = HashMap::new();
    let deadline = spec::DEADLINE_MS as f64 / 1e3;
    let (mut ok, mut latencies, mut queue, mut service_s) = (0u64, vec![], vec![], vec![]);
    let mut served = Vec::new();
    let mut batch = Vec::new();
    if answered.len() + shed != n {
        return Err("some sent requests have no recorded outcome".into());
    }
    for (i, latency, resp) in &answered {
        let (i, q) = (*i, &sched.quotes[*i]);
        latencies.push(*latency);
        served.push(resp.latency_seconds());
        queue.push(resp.queue_seconds);
        service_s.push(resp.service_seconds);
        batch.push(resp.batch_size as f64);
        match (&resp.outcome, resp.fidelity) {
            (Ok(rep), Fidelity::Full) => {
                let key = (q.market, q.variant, q.product.maturity.to_bits());
                let direct = memo.entry(key).or_insert_with(|| direct_price(&sched, q));
                let good = matches!(direct, Ok(d) if served_price_ok(rep.price, *d));
                report.check(
                    good,
                    &format!("quote {i}: served price differs from direct price"),
                );
                if good && *latency <= deadline {
                    ok += 1;
                }
            }
            (Ok(_), _) => {}
            (Err(PriceError::DeadlineExceeded), _) => {}
            (Err(e), _) => report.check(false, &format!("quote {i}: unexpected error {e}")),
        }
    }
    report.attempted = n as u64;
    let ok_frac = ok as f64 / n.max(1) as f64;
    // Scored on the service's own latency: on a host that steals its
    // virtual CPUs, the client-side latency mostly measured how late the
    // generator and collector threads were scheduled.
    report.wall(
        "p50_ms",
        1e3 * host::at_nominal_speed(median(&served), reference),
    );
    report.wall("p50_raw_ms", 1e3 * median(&latencies));
    report.wall("host.ref_kernel_ms", 1e3 * reference);
    report.count("ok_frac", ok_frac);
    report.wall("quote_p50_ms", 1e3 * median(&latencies));
    report.wall("quote_p99_ms", 1e3 * pct(&latencies, 99.0));
    report.count("quote_fail_frac", 1.0 - ok_frac);
    report.wall("loadgen.lag_p99_ms", lag_p99_ms);
    report.wall("serve.queue_p50_ms", 1e3 * median(&queue));
    report.wall("serve.queue_p99_ms", 1e3 * pct(&queue, 99.0));
    report.wall("serve.service_p50_ms", 1e3 * median(&service_s));
    report.wall("serve.service_p99_ms", 1e3 * pct(&service_s, 99.0));
    report.wall("serve.submit_p99_us", 1e6 * pct(&submit_s, 99.0));
    report.count(
        "serve.batch_mean",
        batch.iter().sum::<f64>() / batch.len().max(1) as f64,
    );
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let completed = d(before.completed, after.completed);
    report.count(
        "serve.fused_frac",
        d(before.fused, after.fused) / completed.max(1.0),
    );
    let (hits, misses) = (
        d(before.cache.hits, after.cache.hits),
        d(before.cache.misses, after.cache.misses),
    );
    report.count("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.wall(
        "serve.plan_hit_us",
        1e6 * (after.plan_seconds_hit - before.plan_seconds_hit) / hits.max(1.0),
    );
    report.wall(
        "serve.plan_miss_us",
        1e6 * (after.plan_seconds_miss - before.plan_seconds_miss) / misses.max(1.0),
    );
    report.count("serve.shed", d(before.shed, after.shed));
    report.count(
        "serve.deadline_pre",
        d(before.deadline_pre, after.deadline_pre),
    );
    report.count(
        "serve.deadline_mid",
        d(before.deadline_mid, after.deadline_mid),
    );
    report.count("serve.degraded", d(before.degraded, after.degraded));
    report.count("serve.rerouted", d(before.rerouted, after.rerouted));
    report.count("serve.retries", d(before.retries, after.retries));
    Ok(report)
}

/// Track (Chrome trace thread) of a request, so concurrent requests are
/// drawn on separate rows.
fn track(i: usize) -> u32 {
    100 + (i % 256) as u32
}

/// `(index, latency, response)` per reply, and the reference-kernel
/// seconds measured during the loop.
type Collected = (Vec<(usize, f64, PriceResponse)>, Vec<f64>);

/// The collector: poll every outstanding ticket, stamp each reply when
/// it is seen, and run the reference kernel once a second.
fn collect(
    rx: mpsc::Receiver<(usize, Instant, u64, mdp_serve::Ticket)>,
    expected: usize,
    start: Instant,
    tracer: &Tracer,
) -> Result<Collected, String> {
    let mut pending: Vec<(usize, Instant, u64, Instant, mdp_serve::Ticket)> = Vec::new();
    let mut done = Vec::with_capacity(expected);
    let mut open = true;
    let mut last_progress = Instant::now();
    let mut references = Vec::new();
    let mut next_reference = start + Duration::from_secs_f64(spec::REFERENCE_OFFSET_S);
    loop {
        while open {
            match rx.try_recv() {
                Ok((i, due, span, ticket)) => pending.push((i, due, span, Instant::now(), ticket)),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
        }
        let mut progressed = false;
        let mut k = 0;
        while k < pending.len() {
            if let Some(resp) = pending[k].4.try_wait() {
                let now = Instant::now();
                let (i, due, span, sent, _) = pending.swap_remove(k);
                let attrs = vec![
                    ("queue_s", resp.queue_seconds),
                    ("service_s", resp.service_seconds),
                    ("batch", resp.batch_size as f64),
                    ("cache_hit", f64::from(u8::from(resp.cache_hit))),
                ];
                tracer.record(
                    tracer.id(),
                    "wait",
                    "serve",
                    sent,
                    now,
                    Some(span),
                    track(i),
                    attrs,
                );
                tracer.record(
                    span,
                    "quote",
                    "loadgen",
                    due,
                    now,
                    None,
                    track(i),
                    Vec::new(),
                );
                done.push((i, (now - due).as_secs_f64(), resp));
                progressed = true;
            } else {
                k += 1;
            }
        }
        if !open && pending.is_empty() {
            return Ok((done, references));
        }
        if progressed {
            last_progress = Instant::now();
        } else {
            if last_progress.elapsed() > Duration::from_secs(60) {
                return Err(format!("{} requests never answered", pending.len()));
            }
            if open && Instant::now() >= next_reference {
                references.push(host::reference_kernel().wall_s);
                next_reference += Duration::from_secs(1);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(s: &Schedule) -> Vec<(u64, usize, String)> {
        s.quotes
            .iter()
            .map(|q| (q.due.to_bits(), q.market, format!("{:?}", q.product)))
            .collect()
    }

    #[test]
    fn schedule_replays_per_seed_and_differs_across_seeds() {
        let a = schedule(11, 2.0);
        let b = schedule(11, 2.0);
        let c = schedule(12, 2.0);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn schedule_has_the_fixed_shape() {
        let s = schedule(5, 4.0);
        assert_eq!(s.warmup.len(), 88);
        assert!(s.warmup.len() > ServeConfig::default().plan_cache);
        // Offered load per second: BASE_RPS outside the burst, BURST_RPS inside.
        let per_s = s.quotes.len() as f64 / 4.0;
        let want = (1.0 - spec::BURST_S) * spec::BASE_RPS + spec::BURST_S * spec::BURST_RPS;
        assert!((per_s - want).abs() < 0.15 * want, "{per_s} vs {want}");
        let fd = s.quotes.iter().filter(|q| q.method.is_none()).count() as f64;
        assert!((fd / s.quotes.len() as f64 - spec::FD_SHARE).abs() < 0.05);
        // Ticks created new markets beyond the base ones.
        assert!(s.markets.len() > spec::UNDERLIERS + spec::PAIRS);
        assert!(s.quotes.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn price_check_fires_on_a_perturbed_price() {
        let s = schedule(3, 1.0);
        let q = &s.quotes[0];
        let direct = direct_price(&s, q).unwrap();
        assert!(served_price_ok(direct, direct));
        assert!(!served_price_ok(
            f64::from_bits(direct.to_bits() + 1),
            direct
        ));
    }
}
