//! `perfbench` — the end-to-end and per-layer benchmark of the mdp
//! pricing stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <quote_stream|book_risk|cluster_ft> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It prints a run header (host
//! fingerprint, source revision, seed), a labelled table of every
//! measured metric, and as its last line one JSON result. With
//! `--trace 1` it also writes a Chrome trace-event file and prints the
//! self time of each layer (see [`trace`]).
//!
//! Every load parameter is an absolute constant in [`spec`]; nothing is
//! calibrated at run time, so faster code meets the same load.

pub mod book;
pub mod cluster;
pub mod host;
#[cfg(test)]
mod json;
pub mod quote;
pub mod report;
pub mod rng;
pub mod spec;
pub mod trace;

use report::Report;
use trace::Tracer;

pub const USAGE: &str = "usage: perfbench --workload <quote_stream|book_risk|cluster_ft> \
                         --seed <n> --seconds <s> --trace <0|1>";

pub const WORKLOADS: [&str; 3] = ["quote_stream", "book_risk", "cluster_ft"];

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; known: {WORKLOADS:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], not {seconds}"));
        }
        Ok(Opts {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Whether a panic payload is a crash the fault plan injected on
/// purpose.
pub fn is_injected_crash(payload: &(dyn std::any::Any + Send)) -> bool {
    payload
        .downcast_ref::<mdp_core::cluster::InjectedCrash>()
        .is_some()
}

/// Silence the panic message of each injected rank crash (the cluster
/// substrate catches and recovers them); every other panic still
/// prints through the default hook.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_injected_crash(info.payload()) {
            default(info);
        }
    }));
}

/// Nearest-rank percentile of unsorted samples; 0 for no samples.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    mdp_core::perf::percentile_nearest_rank(&s, p)
}

/// Median of unsorted samples; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

fn run_workload(opts: &Opts, seconds: f64, tracer: &Tracer) -> Result<Report, String> {
    match opts.workload.as_str() {
        "quote_stream" => quote::run(opts.seed, seconds, tracer),
        "book_risk" => book::run(opts.seed, seconds, tracer),
        "cluster_ft" => cluster::run(opts.seed, seconds, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run one workload and return the JSON result line.
///
/// A scored run measures with tracing off. A traced run spends half its
/// time untraced and half traced, reports the difference in the
/// unscaled wall median `p50_raw_ms` as the tracing overhead (in
/// `quote_stream` the spans cost client-side time, which the scored
/// service-side `p50_ms` does not see), runs the host probes, and writes the trace.
pub fn run(opts: &Opts) -> Result<String, String> {
    println!(
        "{}",
        host::header(&opts.workload, opts.seed, opts.seconds as u64, opts.trace)
    );
    let report = if opts.trace {
        traced_run(opts)?
    } else {
        run_workload(opts, opts.seconds, &Tracer::new(false))?
    };
    print!("{}", report.table());
    report.result_line(opts.trace)
}

fn traced_run(opts: &Opts) -> Result<Report, String> {
    let half = opts.seconds / 2.0;
    let plain = run_workload(opts, half, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let mut report = run_workload(opts, half, &tracer)?;
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    report.checks += plain.checks;

    let (p_plain, p_traced) = (plain.get("p50_raw_ms"), report.get("p50_raw_ms"));
    if let (Some(a), Some(b)) = (p_plain, p_traced) {
        report.wall("trace.overhead_pct", 100.0 * (b - a) / a);
    }
    let spans = tracer.spans();

    let bounds = host::probe();
    println!(
        "host bounds: triad {:.3} GB/s over {} bytes of arrays (last-level cache {} bytes), \
         fma {:.3} GFLOP/s",
        bounds.triad_gbs, bounds.triad_array_bytes, bounds.llc_bytes, bounds.fma_gflops
    );
    report.wall("host.triad_gbs", bounds.triad_gbs);
    report.wall("host.fma_gflops", bounds.fma_gflops);
    book::roofline(&mut report, &bounds);

    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    std::fs::write(&path, trace::chrome_json(&spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    print!("{}", trace::self_time_table(&spans));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = Opts::parse(&args(
            "--workload book_risk --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "book_risk");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert!(Opts::parse(&args("--workload nope --seed 1")).is_err());
        assert!(Opts::parse(&args("--workload book_risk")).is_err());
        assert!(Opts::parse(&args("--workload book_risk --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn only_injected_crashes_are_silenced() {
        let crash = std::panic::catch_unwind(|| {
            std::panic::panic_any(mdp_core::cluster::InjectedCrash { rank: 1, step: 2 })
        })
        .unwrap_err();
        assert!(is_injected_crash(crash.as_ref()));
        let other = std::panic::catch_unwind(|| panic!("real bug")).unwrap_err();
        assert!(!is_injected_crash(other.as_ref()));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), 50.0);
        assert_eq!(pct(&v, 99.0), 99.0);
        assert_eq!(median(&[]), 0.0);
    }
}
