//! The host the benchmark runs on: pinning to one core, and timing at a
//! reference speed.
//!
//! On a shared VM a core's speed is not constant: other tenants of the
//! physical machine make the same work take 40–60% longer for stretches of
//! a second to half a minute, so the raw time of identical work differs
//! from run to run by more than the changes the benchmark exists to see.
//! [`HostSpeed`] therefore runs a fixed reference loop, unrelated to the
//! program, on the same core at most [`STALE_MS`] before (and, for a long
//! operation, right after) every timed operation, and scales each time by
//! how long that loop took against [`REFERENCE_US`]. A time is then the time the
//! operation would take on a core running at the reference speed: a change
//! that makes the program do less work still reads proportionally faster,
//! and a slow stretch of the host scales the operation and the reference
//! loop alike. The raw times are recorded too (`raw_op_p50_ms` in the
//! run's details).

use std::hint::black_box;
use std::time::Instant;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread and process it starts later,
/// to the core it runs on now; returns that core. Then the reference loop
/// samples the core the operations run on, and the `segrout serve` daemon
/// and its client hand each event over on one core instead of waking each
/// other across cores.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the caller's
    // CPU number.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("core {cpu} is beyond the affinity mask"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity failed ({})", std::io::Error::last_os_error()))
    }
}

/// Keys the reference loop sorts (32 KiB).
const REFERENCE_KEYS: usize = 8192;
/// Microseconds the reference loop takes at the reference speed: its time
/// outside the slow stretches on the 2-vCPU Xeon VM the baseline was
/// measured on.
pub const REFERENCE_US: f64 = 125.0;
/// Timed repetitions per sample; the fastest counts, so an interrupt during
/// one repetition does not read as a slow core.
const SAMPLE_REPS: usize = 3;
/// A sample older than this is taken again before the next operation.
const STALE_MS: f64 = 5.0;

/// The reference loop: fills `keys` with the same pseudo-random keys every
/// time and sorts them. Sorting random keys is dominated, like the
/// program's graph searches, by data-dependent branches and loads from the
/// L1 and L2 caches. On a 2-vCPU shared VM its time tracked the time of
/// `sweep_failures` calls through the host's slow stretches within 4%
/// (coefficient of variation of their ratio over one-second windows, against
/// 18% for the calls alone); a plain arithmetic loop tracked them only to
/// within 15%, as the slow stretches barely slow it.
fn reference_loop(keys: &mut Vec<u32>) -> u32 {
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    keys.clear();
    keys.extend((0..REFERENCE_KEYS).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 32) as u32
    }));
    keys.sort_unstable();
    keys[REFERENCE_KEYS / 2]
}

/// Scales operation times to the reference speed; see the module docs.
pub struct HostSpeed {
    /// Reference speed / current speed, as last sampled.
    factor: f64,
    sampled: Option<Instant>,
    /// Every factor sampled.
    factors: Vec<f64>,
    keys: Vec<u32>,
}

impl HostSpeed {
    pub fn new() -> Self {
        Self {
            factor: 1.0,
            sampled: None,
            factors: Vec::new(),
            keys: Vec::with_capacity(REFERENCE_KEYS),
        }
    }

    /// Times the reference loop now; returns reference time / its time.
    fn sample(&mut self) -> f64 {
        let best = (0..SAMPLE_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(reference_loop(black_box(&mut self.keys)));
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min);
        self.factor = REFERENCE_US / best;
        self.sampled = Some(Instant::now());
        self.factors.push(self.factor);
        self.factor
    }

    /// The factor for an operation about to start, sampled again if stale.
    fn current(&mut self) -> f64 {
        match self.sampled {
            Some(t) if t.elapsed().as_secs_f64() * 1e3 < STALE_MS => self.factor,
            _ => self.sample(),
        }
    }

    /// Runs `op`, which returns the milliseconds it timed, and returns
    /// `(scaled, raw)` milliseconds. An operation longer than [`STALE_MS`]
    /// is scaled by the mean of the factors sampled before and after it.
    pub fn time<E>(&mut self, op: impl FnOnce() -> Result<f64, E>) -> Result<(f64, f64), E> {
        let before = self.current();
        let raw = op()?;
        let after = if raw > STALE_MS { self.sample() } else { before };
        Ok((raw * (before + after) / 2.0, raw))
    }

    /// Every factor sampled so far (reference speed / host speed).
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_linear_in_the_raw_time() {
        let mut speed = HostSpeed::new();
        let (a, raw_a) = speed.time(|| Ok::<_, ()>(1.0)).unwrap();
        let (b, raw_b) = speed.time(|| Ok::<_, ()>(2.0)).unwrap();
        assert_eq!((raw_a, raw_b), (1.0, 2.0));
        // Both short operations share one fresh sample.
        assert_eq!(speed.factors().len(), 1);
        assert_eq!(b, 2.0 * a);
        assert!(a > 0.0 && a.is_finite());
    }

    #[test]
    fn reference_loop_is_deterministic() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        assert_eq!(reference_loop(&mut a), reference_loop(&mut b));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
