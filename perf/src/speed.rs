//! Machine-speed normalization of every timed sample.
//!
//! The reference box's cores move between two clock speeds about 27% apart,
//! for seconds at a time (a fixed dependent-FMA loop takes 1.52 ms or
//! 1.95 ms), so medians of raw wall time differ by 10–27% from one run to
//! the next and no bound under 25% can hold. A [`Speedometer`] times that
//! loop right before and right after each sample — on the calling core, or
//! on every core at once for a section that runs parallel regions — and
//! scales the sample to the reference speed, the speed at which the loop
//! takes [`REFERENCE_SPIN_SECS`]. On `apply_one` this brings the run-to-run range
//! of the median from 26% to 2% (see `perf/README.md`). The loop lives in
//! this crate and touches nothing of the library, so a change to the library
//! moves a normalized time exactly as it moves the raw one; both are written
//! to the result file.

use std::time::{Duration, Instant};

/// Iterations of one half of the speed loop; a reading is twice the faster
/// of two halves, so a preemption in one of them does not count.
const SPIN_ITERS: u64 = 350_000;

/// What a reading comes to on the reference box in its usual (slower) state.
pub const REFERENCE_SPIN_SECS: f64 = 2.0e-3;

/// A reading older than this is taken again before it is used.
const MAX_AGE: Duration = Duration::from_millis(20);

fn spin_half() -> f64 {
    let start = Instant::now();
    let mut acc = 1.000000001f64;
    let mut x = 0.5f64;
    for _ in 0..SPIN_ITERS {
        x = x.mul_add(acc, 0.0000001);
        acc += 1e-12;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// One timed section: wall seconds as measured, and scaled to the
/// reference speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub raw: f64,
    pub norm: f64,
}

pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw).collect()
}

pub fn norm(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.norm).collect()
}

/// Which cores a timed section runs on, and so which must be read: the
/// caller's only, or all of them. A parallel region splits its work
/// statically, so it ends when the slowest core does; scaling it by the
/// calling core alone adds noise instead of removing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    One,
    All,
}

struct Reading {
    taken: Instant,
    scale: f64,
}

impl Reading {
    fn take(cores: Cores) -> Reading {
        let one = || 2.0 * spin_half().min(spin_half());
        let spin = match cores {
            Cores::One => one(),
            Cores::All => std::thread::scope(|scope| {
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                let handles: Vec<_> = (0..threads).map(|_| scope.spawn(one)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("spin thread panicked"))
                    .fold(0.0, f64::max)
            }),
        };
        Reading {
            taken: Instant::now(),
            scale: REFERENCE_SPIN_SECS / spin,
        }
    }
}

pub struct Speedometer {
    one: Reading,
    all: Reading,
}

impl Speedometer {
    pub fn new() -> Speedometer {
        Speedometer {
            one: Reading::take(Cores::One),
            all: Reading::take(Cores::All),
        }
    }

    /// Reference speed ÷ current speed: above 1 when the machine is running
    /// fast. At most [`MAX_AGE`] old, so back-to-back microsecond samples
    /// share a reading instead of paying for one each.
    pub fn scale(&mut self, cores: Cores) -> f64 {
        let reading = match cores {
            Cores::One => &mut self.one,
            Cores::All => &mut self.all,
        };
        if reading.taken.elapsed() > MAX_AGE {
            *reading = Reading::take(cores);
        }
        reading.scale
    }

    /// Times `f` and scales it by the mean of the readings around it.
    pub fn measure<R>(&mut self, cores: Cores, f: impl FnOnce() -> R) -> (R, Sample) {
        let before = self.scale(cores);
        let start = Instant::now();
        let result = f();
        let raw = start.elapsed().as_secs_f64();
        let after = self.scale(cores);
        let norm = raw * (before + after) / 2.0;
        (result, Sample { raw, norm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_reused_until_they_age() {
        let mut s = Speedometer::new();
        let first = s.one.taken;
        s.scale(Cores::One);
        assert_eq!(s.one.taken, first, "a fresh reading is not taken again");
        std::thread::sleep(MAX_AGE + Duration::from_millis(5));
        s.scale(Cores::One);
        assert!(s.one.taken > first, "an old reading is");
        let all = s.all.taken;
        s.scale(Cores::All);
        assert!(s.all.taken > all, "each kind of reading ages on its own");
    }

    #[test]
    fn a_sample_is_scaled_by_the_readings_around_it() {
        let mut s = Speedometer::new();
        let (value, sample) = s.measure(Cores::All, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert!(sample.raw >= 2e-3);
        // Whatever the speed, the scale is a plausible positive factor.
        let factor = sample.norm / sample.raw;
        assert!(factor > 0.05 && factor < 20.0, "scale {factor}");
    }
}
