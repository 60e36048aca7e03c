//! Seeded open-loop schedules and the rate-ladder verdicts.
//!
//! A schedule is a list of requests, each due at a fixed offset from the
//! start of its phase, independent of how fast the target answers. The
//! load generator sends a request when it is due (or as soon as its
//! connection frees up) and times it from the due instant, so a stall
//! shows up in every request queued behind it.

use serde::Serialize;

/// SplitMix64: the benchmark's only random source, so a seed pins every
/// input and every schedule.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The three reads a monitoring client issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `GET /v1/{t}/status`.
    Status,
    /// `GET /v1/{t}/forecast?h=16`.
    Forecast,
    /// `GET /v1/{t}/reconstruct` over the last 64 steps.
    Reconstruct,
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Send tenant's next batch.
    Ingest { tenant: usize },
    /// Read from a tenant.
    Read { tenant: usize, kind: ReadKind },
}

impl Op {
    /// The tenant the request addresses.
    pub fn tenant(self) -> usize {
        match self {
            Op::Ingest { tenant } | Op::Read { tenant, .. } => tenant,
        }
    }
}

/// A request and the offset from the phase start at which it is due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Due offset in nanoseconds.
    pub due_ns: u64,
    /// What to send.
    pub op: Op,
}

/// One phase of `rate` requests per second for `seconds`: evenly spaced
/// arrivals, about one in `read_every` a read of a random tenant, the
/// rest ingests that walk the tenants round-robin from a seeded offset.
pub fn phase(
    seed: u64,
    phase_id: u64,
    rate: f64,
    seconds: f64,
    tenants: usize,
    read_every: usize,
) -> Vec<Slot> {
    let mut rng = Rng::new(seed, 0x5C4E_D000 + phase_id);
    let n = (rate * seconds).round() as usize;
    let gap_ns = 1e9 / rate;
    let mut next_tenant = rng.below(tenants);
    (0..n)
        .map(|i| {
            let op = if rng.below(read_every) == 0 {
                let kind = match rng.below(3) {
                    0 => ReadKind::Status,
                    1 => ReadKind::Forecast,
                    _ => ReadKind::Reconstruct,
                };
                Op::Read {
                    tenant: rng.below(tenants),
                    kind,
                }
            } else {
                let tenant = next_tenant;
                next_tenant = (next_tenant + 1) % tenants;
                Op::Ingest { tenant }
            };
            Slot {
                due_ns: (i as f64 * gap_ns) as u64,
                op,
            }
        })
        .collect()
}

/// What happened to one scheduled request, in seconds from its phase
/// start.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// When it was due.
    pub due: f64,
    /// When it could have been sent: its due time, or the moment its
    /// connection finished the previous request if that was later.
    pub ready: f64,
    /// When the generator actually started writing it.
    pub sent: f64,
    /// When its response was complete.
    pub done: f64,
    /// True for ingests, false for reads.
    pub ingest: bool,
    /// True for a 2xx response.
    pub ok: bool,
}

impl Timing {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator started the request after it could have,
    /// in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.ready).max(0.0) * 1e3
    }
}

/// Requests due by `t` that had not completed by `t`.
pub fn backlog_at(timings: &[Timing], t: f64) -> usize {
    let due = timings.iter().filter(|x| x.due <= t).count();
    let done = timings.iter().filter(|x| x.done <= t).count();
    due.saturating_sub(done)
}

/// The verdict on one ladder step.
#[derive(Clone, Debug, Serialize)]
pub struct StepVerdict {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Ingests scheduled in the step.
    pub ingests: usize,
    /// Ingests completed per second of the step's span.
    pub achieved_ingest_rps: f64,
    /// Ingest latency p99 from the due time (`None`: too few samples).
    pub ingest_p99_ms: Option<f64>,
    /// Generator lateness p99.
    pub late_p99_ms: f64,
    /// Backlog at the end of the first and of the second half.
    pub backlog: [usize; 2],
    /// Requests that failed (a failure misses every limit).
    pub failed: usize,
    /// The generator ran late: the step measures the client, not the
    /// target, and is invalid.
    pub late: bool,
    /// The backlog grew from the first half to the second: the target
    /// fell behind and the step is invalid.
    pub grew: bool,
    /// Valid, failure-free, and ingest p99 within the limit.
    pub passes: bool,
}

/// Judges one step of `span_s` seconds at `rate`.
pub fn judge(
    timings: &[Timing],
    span_s: f64,
    rate: f64,
    limit_ms: f64,
    late_limit_ms: f64,
) -> StepVerdict {
    let ingest_lat: Vec<f64> = timings
        .iter()
        .filter(|t| t.ingest)
        .map(Timing::latency_ms)
        .collect();
    let lateness: Vec<f64> = timings.iter().map(Timing::lateness_ms).collect();
    let late_p99_ms = crate::stats::quantile(&lateness, 0.99)
        .unwrap_or_else(|| lateness.iter().copied().fold(0.0, f64::max));
    let backlog = [
        backlog_at(timings, span_s / 2.0),
        backlog_at(timings, span_s),
    ];
    // A stall the latency limit tolerates leaves a transient queue: allow
    // half the limit's worth of arrivals (at least a few in flight) before
    // calling a higher second-half backlog growth.
    let slack = 4usize.max((rate * limit_ms / 2000.0) as usize);
    let grew = backlog[1] > backlog[0] + slack;
    let late = late_p99_ms > late_limit_ms;
    let failed = timings.iter().filter(|t| !t.ok).count();
    let ingest_p99_ms = crate::stats::quantile(&ingest_lat, 0.99);
    let completed = timings
        .iter()
        .filter(|t| t.ingest && t.ok && t.done <= span_s)
        .count();
    let passes = !late && !grew && failed == 0 && ingest_p99_ms.is_some_and(|p| p <= limit_ms);
    StepVerdict {
        rate,
        ingests: ingest_lat.len(),
        achieved_ingest_rps: completed as f64 / span_s,
        ingest_p99_ms,
        late_p99_ms,
        backlog,
        failed,
        late,
        grew,
        passes,
    }
}

/// Ratio between neighbouring rungs of the rate ladder.
pub const RUNG_RATIO: f64 = 1.05;

/// Rung `k` of the fixed rate ladder: `base × 1.05^k` requests/s.
pub fn rung(base: f64, k: usize) -> f64 {
    base * RUNG_RATIO.powi(k as i32)
}

/// Rungs probed first, every eighth (×1.48 apart).
pub const COARSE: [usize; 6] = [8, 16, 24, 32, 40, 48];

/// Climbs the ladder: the coarse rungs until one fails, then bisects the
/// rungs between the last coarse pass and that failure. A rung is only
/// run when every rung below it that was run passed or lies below a pass,
/// so the fastest passing rung always sits directly under a failed one
/// (or at the top). `step` runs rung `k` and returns its verdict.
pub fn climb(mut step: impl FnMut(usize) -> StepVerdict) -> Vec<(usize, StepVerdict)> {
    let mut out = Vec::new();
    let mut lo = 0;
    let mut hi = None;
    for k in COARSE {
        let v = step(k);
        let passes = v.passes;
        out.push((k, v));
        if !passes {
            hi = Some(k);
            break;
        }
        lo = k;
    }
    if let Some(mut hi) = hi {
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let v = step(mid);
            if v.passes {
                lo = mid;
            } else {
                hi = mid;
            }
            out.push((mid, v));
        }
    }
    out
}

/// The fastest step that passed.
pub fn max_passing<'a>(
    verdicts: impl IntoIterator<Item = &'a StepVerdict>,
) -> Option<&'a StepVerdict> {
    verdicts
        .into_iter()
        .filter(|v| v.passes)
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A target with `conns` FIFO connections and a fixed service time,
    /// fed the schedule's arrivals round-robin across connections.
    fn fixed_service(rate: f64, seconds: f64, conns: usize, service_s: f64) -> Vec<Timing> {
        let slots = phase(1, 0, rate, seconds, 8, usize::MAX);
        let mut free = vec![0.0f64; conns];
        slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let c = i % conns;
                let due = s.due_ns as f64 * 1e-9;
                let ready = due.max(free[c]);
                let done = ready + service_s;
                free[c] = done;
                Timing {
                    due,
                    ready,
                    sent: ready,
                    done,
                    ingest: true,
                    ok: true,
                }
            })
            .collect()
    }

    fn fixed_step(rate: f64, service_s: f64) -> StepVerdict {
        let secs = 2000.0 / rate;
        judge(
            &fixed_service(rate, secs, 2, service_s),
            secs,
            rate,
            10.0,
            1.0,
        )
    }

    #[test]
    fn backlog_grows_only_past_the_fixed_service_capacity() {
        // Two connections at 2 ms each: capacity 1000 requests/s.
        for rate in [400.0, 800.0, 990.0] {
            let v = fixed_step(rate, 0.002);
            assert!(v.passes && !v.grew && v.backlog[1] <= 2, "{v:?}");
        }
        let v = fixed_step(1100.0, 0.002);
        assert!(
            v.grew && !v.passes,
            "1100/s over a 1000/s target must grow a backlog: {v:?}"
        );
    }

    #[test]
    fn ladder_finds_the_fixed_service_capacity() {
        // Capacity 1000/s: rung 18 (400 × 1.05^18 = 963/s) is the last
        // below it, rung 19 (1011/s) the first above.
        let mut ran = Vec::new();
        let steps = climb(|k| {
            ran.push(k);
            fixed_step(rung(400.0, k), 0.002)
        });
        assert_eq!(
            ran,
            vec![8, 16, 24, 20, 18, 19],
            "coarse until a failure, then bisect below it"
        );
        let best = max_passing(steps.iter().map(|(_, v)| v)).expect("a rung passes");
        assert!((best.rate - rung(400.0, 18)).abs() < 1e-9);
        // A target faster than every rung passes them all.
        let all = climb(|k| fixed_step(rung(400.0, k), 0.0001));
        assert_eq!(
            all.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            COARSE.to_vec()
        );
    }

    /// A 1 ms target whose generator stalls 5 ms on every 20th request.
    fn late_step(rate: f64) -> StepVerdict {
        let secs = 2000.0 / rate;
        let mut t = fixed_service(rate, secs, 2, 0.001);
        for x in t.iter_mut().step_by(20) {
            x.sent += 0.005;
            x.done += 0.005;
        }
        judge(&t, secs, rate, 10.0, 1.0)
    }

    #[test]
    fn late_generator_invalidates_a_step_and_stops_the_ladder() {
        let v = late_step(500.0);
        assert!(v.late && !v.passes && !v.grew, "{v:?}");
        // The generator runs late from rung 12 on.
        let mut ran = Vec::new();
        let steps = climb(|k| {
            ran.push(k);
            let rate = rung(400.0, k);
            if k >= 12 {
                late_step(rate)
            } else {
                fixed_step(rate, 0.001)
            }
        });
        assert_eq!(ran, vec![8, 16, 12, 10, 11]);
        let best = max_passing(steps.iter().map(|(_, v)| v)).expect("a rung passes");
        assert!(
            (best.rate - rung(400.0, 11)).abs() < 1e-9,
            "a late step is never credited"
        );
    }

    #[test]
    fn a_failure_misses_the_limit() {
        let mut t = fixed_service(500.0, 4.0, 2, 0.001);
        t[7].ok = false;
        assert!(!judge(&t, 4.0, 500.0, 10.0, 1.0).passes);
    }

    #[test]
    fn a_seed_reproduces_its_schedule() {
        let a = phase(42, 3, 700.0, 2.0, 64, 10);
        let b = phase(42, 3, 700.0, 2.0, 64, 10);
        assert_eq!(a, b);
        assert_ne!(a, phase(43, 3, 700.0, 2.0, 64, 10));
        assert_ne!(a, phase(42, 4, 700.0, 2.0, 64, 10));
        assert_eq!(a.len(), 1400);
        let reads = a.iter().filter(|s| matches!(s.op, Op::Read { .. })).count();
        assert!(
            (100..180).contains(&reads),
            "about one in ten is a read: {reads}"
        );
    }
}
