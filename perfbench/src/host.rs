//! Provenance (host facts, revision) and process measurements (peak RSS,
//! program metric deltas).

use std::collections::BTreeMap;
use std::path::Path;

use imrdmd::obs::MetricsSnapshot;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the GEMM micro-kernel dispatches to its AVX2 path here (the
/// same runtime check the kernel makes).
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Filesystem type of the mount holding `dir` (from `/proc/self/mounts`,
/// longest matching mount point). fsync cost depends on it.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The revision of the checkout, read from its own `.git` (loose or
/// packed ref, or a detached head); `unknown` when the checkout is not a
/// git repository.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let rev = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|head| {
            let head = head.trim();
            let Some(name) = head.strip_prefix("ref: ") else {
                return Some(head.to_string());
            };
            std::fs::read_to_string(git.join(name))
                .ok()
                .map(|r| r.trim().to_string())
                .or_else(|| {
                    std::fs::read_to_string(git.join("packed-refs"))
                        .ok()?
                        .lines()
                        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
                })
        });
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (VmHWM) of process `pid` (`None`: this process), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads a CPU-time clock, in seconds.
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time this process has used so far, every thread counted, live or
/// exited, in seconds. Unlike wall time it leaves out the time the
/// hypervisor gives this guest's vCPUs to other guests (steal).
pub fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds the calling thread spends on a fixed reference
/// computation: complex rotations with decay over a 256 KiB working set,
/// the arithmetic of a mode reconstruction, in this package's own code so
/// that no change to the program moves it. It takes about
/// [`REFERENCE_NOMINAL_S`] on the host the benchmark was built on.
pub fn reference_cpu_s() -> f64 {
    const N: usize = 1 << 14;
    let mut re: Vec<f64> = (0..N).map(|i| (i as f64 * 1e-3).sin()).collect();
    let mut im: Vec<f64> = (0..N).map(|i| (i as f64 * 1e-3).cos()).collect();
    let start = thread_cpu_s();
    for pass in 0..16 {
        let w = pass as f64 * 0.01;
        for (k, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let (a, b) = (*r, *i);
            let (s, c) = (w * k as f64 * 1e-4).sin_cos();
            let e = (-(w * 1e-3)).exp();
            *r = e * (a * c - b * s);
            *i = e * (a * s + b * c);
        }
    }
    let spent = thread_cpu_s() - start;
    std::hint::black_box((&re, &im));
    spent
}

/// CPU seconds [`reference_cpu_s`] takes on a 2-vCPU Intel Xeon VM at its
/// usual speed: the host the benchmark's bounds were set on.
pub const REFERENCE_NOMINAL_S: f64 = 4e-3;

/// The host's speed over one run, from the reference computation timed
/// at points spread through the run. The VMs this benchmark runs on share
/// physical cores, caches and memory with other guests, and the CPU time
/// of identical work drifts by up to 60% over minutes; the reference
/// drifts with it.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times the reference computation once.
    pub fn sample(&mut self) {
        self.samples.push(reference_cpu_s());
    }

    /// Factor that scales this run's CPU times to the nominal host:
    /// [`REFERENCE_NOMINAL_S`] over the samples' interquartile mean.
    pub fn scale(&self) -> f64 {
        REFERENCE_NOMINAL_S / crate::stats::interquartile_mean(&self.samples).max(1e-12)
    }
}

/// Counter values and histogram `(count, sum_ns)` pairs by name.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    values: BTreeMap<String, (u64, u64)>,
}

impl Counters {
    /// The program's in-process metrics right now.
    pub fn capture() -> Counters {
        let snap = MetricsSnapshot::capture();
        let values = snap
            .metrics
            .iter()
            .filter_map(|m| {
                let v = match (&m.counter, &m.histogram) {
                    (Some(c), _) => (*c, 0),
                    (_, Some(h)) => (h.count, h.sum_ns),
                    _ => return None,
                };
                Some((m.name.clone(), v))
            })
            .collect();
        Counters { values }
    }

    /// `self − earlier`, name by name.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let values = self
            .values
            .iter()
            .map(|(k, &(a, b))| {
                let (a0, b0) = earlier.values.get(k).copied().unwrap_or((0, 0));
                (k.clone(), (a.saturating_sub(a0), b.saturating_sub(b0)))
            })
            .collect();
        Counters { values }
    }

    /// `self + other`, name by name.
    pub fn plus(&self, other: &Counters) -> Counters {
        let mut values = self.values.clone();
        for (k, &(a, b)) in &other.values {
            let v = values.entry(k.clone()).or_default();
            *v = (v.0 + a, v.1 + b);
        }
        Counters { values }
    }

    /// A counter's value, or a histogram's observation count.
    pub fn count(&self, name: &str) -> u64 {
        self.values.get(name).map_or(0, |v| v.0)
    }

    /// A histogram's summed durations in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.1 as f64 * 1e-6)
    }
}
