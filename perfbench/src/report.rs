//! Metric collection and the two outputs of a run: a labelled table for
//! people and the one-line JSON result for tools.
//!
//! The metric names below are the benchmark's contract. They are
//! declared again in `BENCHMARK.json`, and a self-test keeps the two in
//! step. A scored run (`--trace 0`) prints every [`END_TO_END`] metric;
//! a traced run (`--trace 1`) prints every [`PER_LAYER`] metric. A layer
//! a workload does not use reads 0 in a traced run.

use std::fmt::Write as _;

/// What produced a number: the host clock, the CPU time the process's
/// threads ran for (see [`crate::host::process_cpu_s`]), the virtual
/// cluster's cost model, or a count or ratio of outcomes. Byte and flop
/// rates derived from work counts are marked as computed in the
/// metric's note.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Cpu,
    Virtual,
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// End-to-end metrics, reported by every workload: `(name, unit)`.
///
/// Each workload has one scored operation: a quote (`quote_stream`), a
/// book pass of revaluation, tick reprice and cube Greeks (`book_risk`),
/// or a round of three faulted cluster jobs (`cluster_ft`). `p50_ms` is
/// its median time scaled to the nominal host speed by the reference
/// kernel (see [`crate::host::reference_kernel`]): the wall time of a
/// book pass, the service-side latency of a quote (queue wait plus
/// service, as `mdp-serve` reports it), and the CPU time of a cluster
/// round. The unscaled median of each workload's wall time is the
/// per-layer `p50_raw_ms`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("p50_ms", "ms"), ("ok_frac", "ratio")];

/// Engines of the book, as named in per-layer metrics.
pub const ENGINES: [&str; 5] = ["fd1d", "lattice", "adi3d", "mc", "lsmc"];

/// Per-layer metrics: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    // The workloads' own figures, under the names the workload notes use.
    for (name, unit) in [
        ("quote_p50_ms", "ms"),
        ("quote_p99_ms", "ms"),
        ("quote_fail_frac", "ratio"),
        ("reval_ms", "ms"),
        ("tick_ms", "ms"),
        ("greeks_ms", "ms"),
        ("price_err_bp", "bp"),
        ("job_ms", "ms"),
        ("virtual_makespan_ms", "ms"),
        ("ckpt_overhead_pct", "%"),
        ("p50_raw_ms", "ms"),
        ("setup_raw_s", "s"),
        ("loadgen.lag_p99_ms", "ms"),
        ("serve.queue_p50_ms", "ms"),
        ("serve.queue_p99_ms", "ms"),
        ("serve.service_p50_ms", "ms"),
        ("serve.service_p99_ms", "ms"),
        ("serve.submit_p99_us", "us"),
        ("serve.batch_mean", "count"),
        ("serve.fused_frac", "ratio"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.plan_hit_us", "us"),
        ("serve.plan_miss_us", "us"),
        ("serve.shed", "count"),
        ("serve.deadline_pre", "count"),
        ("serve.deadline_mid", "count"),
        ("serve.degraded", "count"),
        ("serve.rerouted", "count"),
        ("serve.retries", "count"),
    ] {
        add(name, unit);
    }
    for e in ENGINES {
        add(&format!("core.plan_ms.{e}"), "ms");
    }
    for e in ENGINES {
        add(&format!("core.execute_ms.{e}"), "ms");
    }
    for e in ENGINES {
        for kind in ["spot", "vol", "rate"] {
            add(&format!("core.tick_us.{e}.{kind}"), "us");
        }
    }
    add("core.cube_ms", "ms");
    add("core.rayon_speedup", "x");
    add("mc.ns_per_path_dim", "ns");
    add("mc.lsmc_ns_per_path_date", "ns");
    add("pde.fd1d_ns_per_node", "ns");
    add("pde.adi3d_ns_per_node", "ns");
    add("lattice.ns_per_node", "ns");
    for kernel in KERNELS {
        add(&format!("{kernel}.gbs_computed"), "GB/s");
        add(&format!("{kernel}.fraction_of_bound"), "ratio");
    }
    for (name, unit) in [
        ("cluster.msgs", "count"),
        ("cluster.bytes", "bytes"),
        ("cluster.far_msgs", "count"),
        ("cluster.far_bytes", "bytes"),
        ("cluster.virtual_comm_frac", "ratio"),
        ("cluster.virtual_compute_ms", "ms"),
        ("cluster.link_stall_ms", "ms"),
        ("cluster.ckpt_ms", "ms"),
        ("cluster.retransmits", "count"),
        ("host.triad_gbs", "GB/s"),
        ("host.fma_gflops", "GFLOP/s"),
        ("host.ref_kernel_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ] {
        add(name, unit);
    }
    v
}

/// The kernel rows with a roofline fraction, as `<layer>.<engine>`.
pub const KERNELS: [&str; 5] = ["pde.fd1d", "pde.adi3d", "lattice.beg", "mc.mc", "mc.lsmc"];

/// A kernel's computed byte and flop rates, for its roofline row.
#[derive(Debug, Clone)]
pub struct KernelRate {
    pub kernel: &'static str,
    pub bytes_per_s: f64,
    pub flops_per_s: f64,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    pub note: &'static str,
}

/// Everything one run measured, plus its operation and check counts.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Scored operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Correctness checks executed (a run that executed none is not
    /// correct).
    pub checks: u64,
    /// Kernel rates awaiting the host bounds (traced runs).
    pub kernels: Vec<KernelRate>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, clock: Clock, note: &'static str) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
            note,
        });
    }

    pub fn wall(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Wall, "");
    }

    pub fn cpu(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Cpu, "");
    }

    /// `setup_s` (scaled CPU) and `setup_raw_s` (wall), the medians
    /// over the set-up repetitions' `(wall, scaled CPU)` seconds (see
    /// [`crate::host::SetupClock`]).
    pub fn setup(&mut self, times: &[(f64, f64)]) {
        let (wall, scaled): (Vec<f64>, Vec<f64>) = times.iter().copied().unzip();
        self.cpu("setup_s", crate::median(&scaled));
        self.wall("setup_raw_s", crate::median(&wall));
    }

    pub fn virt(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Virtual, "");
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Count, "");
    }

    /// A rate derived from computed work counts and a wall time.
    pub fn computed(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Wall, "computed bytes or flops");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a correctness check; a failed one counts a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Share of attempted operations without a failed check.
    pub fn ok_frac(&self) -> f64 {
        1.0 - (self.failed as f64 / self.attempted.max(1) as f64).min(1.0)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks > 0
    }

    /// The labelled table: every metric the run measured, with unit and
    /// clock.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<34} {:>18} {:<8} {:<8} note",
            "metric", "value", "unit", "clock"
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "{:<34} {:>18.6} {:<8} {:<8} {}",
                m.name,
                m.value,
                m.unit,
                m.clock.label(),
                m.note
            );
        }
        s
    }

    /// The names a result line of this mode must carry, in order.
    pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// The one-line JSON result. Fails if an end-to-end metric is
    /// missing or any value is not finite.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in Self::declared(trace) {
            let value = match self.get(&name) {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared_in_manifest(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_manifest() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let printed: Vec<(String, String)> = Report::declared(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            assert_eq!(printed, declared_in_manifest(section), "{section}");
        }
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.wall(name, 1.5);
        }
        r.check(true, "live");
        let line = r.result_line(false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));

        let traced = Json::parse(&r.result_line(true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            per_layer().len()
        );
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let r = Report::default();
        assert!(r.result_line(false).is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Report::default().wall("not_a_metric", 1.0);
    }
}
