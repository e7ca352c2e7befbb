//! The run header (host fingerprint, source revision, seed), the two
//! hardware probes that bound the kernel rows (a STREAM triad for
//! memory bandwidth and an FMA loop for floating-point throughput), and
//! the reference kernel that scales scored times to a nominal host
//! speed.

use std::hint::black_box;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first value of a `/proc/cpuinfo` field.
fn cpuinfo(field: &str) -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.split(':').next().map(str::trim) == Some(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The source revision, read from `.git` in the working directory when
/// there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run header as one JSON line.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {}, \"cpu_model\": {}, \"cpu_flags\": {}, \
         \"rustc\": {}, \"git_rev\": {}}}}}",
        json_str(workload),
        nproc(),
        json_str(&cpuinfo("model name")),
        json_str(&cpuinfo("flags")),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev()),
    )
}

/// Parse a sysfs cache size such as `32K` or `307200K`.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// Total last-level cache over the distinct LLC instances the visible
/// CPUs share, from sysfs; 32 MiB when sysfs does not say.
fn llc_bytes() -> u64 {
    let mut best_level = 0u32;
    let mut instances: Vec<(String, u64)> = Vec::new();
    for cpu in 0..nproc() {
        for idx in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu{cpu}/cache/index{idx}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let (Some(level), Some(size)) = (read("level"), read("size")) else {
                continue;
            };
            let (Ok(level), Some(size)) = (level.trim().parse::<u32>(), parse_size(&size)) else {
                continue;
            };
            if read("type").is_some_and(|t| t.trim() == "Instruction") {
                continue;
            }
            let shared = read("shared_cpu_list").unwrap_or_else(|| format!("cpu{cpu}"));
            if level > best_level {
                best_level = level;
                instances.clear();
            }
            if level == best_level && !instances.iter().any(|(s, _)| *s == shared) {
                instances.push((shared, size));
            }
        }
    }
    let total: u64 = instances.iter().map(|(_, s)| s).sum();
    if total == 0 {
        32 << 20
    } else {
        total
    }
}

/// Measured hardware bounds.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    pub triad_gbs: f64,
    pub fma_gflops: f64,
    pub llc_bytes: u64,
    pub triad_array_bytes: u64,
}

/// STREAM triad `a = b + s·c` over all cores, with the three arrays
/// together at least four times the total last-level cache. Best of
/// five passes, counting 24 bytes per element as STREAM does.
fn triad(llc: u64) -> (f64, u64) {
    let n = (4 * llc).div_ceil(24) as usize;
    let threads = nproc();
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    // First touch from the worker threads, so pages land near them.
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        black_box(&a);
        best = best.max(24.0 * n as f64 / secs / 1e9);
    }
    (best, 24 * n as u64)
}

/// Peak fused multiply-add rate over all cores: 32 independent
/// accumulator chains per thread, enough to fill the FMA pipelines at
/// the build's vector width. Best of three timed passes.
fn fma() -> f64 {
    const ITERS: u64 = 20_000_000;
    let threads = nproc();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for k in 0..threads {
                s.spawn(move || {
                    let mut acc = [1.0f64 + k as f64 * 1e-3; 32];
                    let (x, y) = (black_box(0.999_999), black_box(1e-6));
                    for _ in 0..ITERS {
                        for v in &mut acc {
                            *v = v.mul_add(x, y);
                        }
                    }
                    black_box(acc);
                });
            }
        });
        let flops = 2.0 * 32.0 * ITERS as f64 * threads as f64;
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Run both probes, one after the other, in this process.
pub fn probe() -> Bounds {
    let llc = llc_bytes();
    let (triad_gbs, triad_array_bytes) = triad(llc);
    Bounds {
        triad_gbs,
        fma_gflops: fma(),
        llc_bytes: llc,
        triad_array_bytes,
    }
}

/// Seconds of [`reference_kernel`] taken as the nominal host speed: a
/// round figure for the 2-core Intel Xeon host the loads in
/// [`crate::spec`] were sized on, where its run medians ranged from 2.6
/// to 3.7 ms. It only sets the scale of the scaled times.
pub const REFERENCE_NOMINAL_S: f64 = 3.0e-3;

/// CPU seconds the threads of this process have run for, ended threads
/// included. Time the hypervisor steals from the virtual CPUs is not
/// counted (the kernel accounts it apart), nor is time spent waiting.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` in the 64-bit
    // Linux layout, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One run of the reference kernel: its wall time, and its CPU time
/// (the process's, so other threads must be idle).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run the reference kernel once, single-threaded, and time it.
///
/// The kernel is a fixed explicit heat-equation stencil: 256 sweeps over
/// 32 Ki points, two 256 KiB arrays that stay in one core's L2 cache. It
/// shares no code with the program under test, so a faster program does
/// not move it, but on a shared host its time moves with the speed the
/// host gives the benchmark, which drifted by up to 1.7x between runs a
/// few minutes apart. Across runs of the book it tracked that drift
/// better than the same stencil over 4 MiB arrays or a latency-bound
/// `exp`/`ln` chain, neither of which follows it.
pub fn reference_kernel() -> Reference {
    const POINTS: usize = 1 << 15;
    const SWEEPS: usize = 256;
    let mut u: Vec<f64> = (0..POINTS).map(|i| (i % 97) as f64 * 0.01).collect();
    let mut v = u.clone();
    let c = process_cpu_s();
    let t = Instant::now();
    for _ in 0..SWEEPS {
        for i in 1..POINTS - 1 {
            v[i] = u[i] + 0.25 * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
        }
        std::mem::swap(&mut u, &mut v);
    }
    black_box(&u);
    let wall_s = t.elapsed().as_secs_f64();
    Reference {
        wall_s,
        cpu_s: process_cpu_s() - c,
    }
}

/// A running measurement of one set-up repetition.
pub struct SetupClock {
    cpu_s: f64,
    wall: Instant,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        SetupClock {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// The set-up's `(wall, scaled CPU)` seconds: its process CPU time
    /// scaled to the nominal host speed by a reference-kernel run right
    /// after it. Set-up starts service and rank threads, so its wall time
    /// varied with the stealing of the host's virtual CPUs as the
    /// cluster rounds did.
    pub fn stop(self) -> (f64, f64) {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - self.cpu_s;
        (wall_s, at_nominal_speed(cpu_s, reference_kernel().cpu_s))
    }
}

/// A time scaled to the nominal host speed by the reference kernel's
/// time on the same clock, measured next to it.
pub fn at_nominal_speed(time_s: f64, reference_s: f64) -> f64 {
    time_s * REFERENCE_NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("32K\n"), Some(32 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn header_is_one_json_line() {
        let h = header("book_risk", 3, 10, false);
        assert!(!h.contains('\n'));
        let doc = crate::json::Json::parse(&h).unwrap();
        assert!(doc.get("header").unwrap().get("rustc").is_some());
    }
}
