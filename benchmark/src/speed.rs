//! Host-speed reference: a fixed kernel timed beside every measurement.
//!
//! The sandbox this benchmark runs in shares its cores and its memory
//! system. Measured at this anchor, the same code alternates every 10–25 s
//! between states up to 15 % (at worst 40 %) apart, so the median of a 15 s
//! run spreads 6–11 % from run to run whatever the iteration count. Two
//! things move: the speed of the core (a dependent ALU chain's time varies
//! 4–13 %) and the latency of memory (a dependent-load chase over 16 MiB
//! varies 15 %). A simulator's time is a mix of both, so every time the
//! benchmark reports is scaled to the *reference host speed*: multiplied by
//! the geometric mean of nominal ÷ measured for the two halves of the
//! kernel, each measured right before and after. On ten 15 s runs of
//! unchanged code that brought the spread of `wall_s` from 2.7 / 6.1 / 6.5 %
//! (`paper_testbed` / `manyflow_sharded` / `lossy_aqm`) to 1.8 / 4.2 / 2.1 %;
//! either half alone does worse on one of them. On a host where the halves
//! take their nominal times the numbers are plain seconds. The kernel
//! belongs to the benchmark and touches none of the repo's code, so no
//! change under test can move it.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

use std::sync::OnceLock;

/// Times of the two kernel halves on the reference host (the 2-core
/// 2.1 GHz Xeon container this benchmark was sized on, in its usual
/// state), seconds: ALU chain, load chase.
pub const NOMINAL_S: (f64, f64) = (0.0105, 0.0133);

/// Steps of the ALU half: a dependent xorshift64 chain, which neither
/// vectorizes nor folds, so its time is core speed and nothing else.
const ALU_STEPS: u64 = 6_000_000;
/// Entries of the chase table (16 MiB of `u32`: past the L2, so a load's
/// time is the latency of the shared levels) and loads per pass.
const CHASE_ENTRIES: usize = 4 << 20;
const CHASE_LOADS: u32 = 100_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn alu_s() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(88_172_645_463_325_252u64);
    let mut acc = 0u64;
    for _ in 0..ALU_STEPS {
        x = xorshift(x);
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 7);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// One cycle through every entry in random order (Sattolo's algorithm), so
/// each load depends on the one before and no prefetcher helps.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_ENTRIES).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        next
    })
}

fn chase_s() -> f64 {
    let table = chase_table();
    let t0 = Instant::now();
    let mut at = black_box(0u32);
    for _ in 0..CHASE_LOADS {
        at = table[at as usize];
    }
    black_box(at);
    t0.elapsed().as_secs_f64()
}

/// Time one pass of the reference kernel: `(alu, chase)` seconds.
fn kernel_s() -> (f64, f64) {
    (alu_s(), chase_s())
}

/// Tracks the host's speed across a sequence of measurements: the kernel
/// runs between them, and each measurement is scaled by the kernel times on
/// either side of it.
#[derive(Debug)]
pub struct HostSpeed {
    last_s: (f64, f64),
}

impl HostSpeed {
    /// Time the kernel once, before the first measurement.
    pub fn start() -> Self {
        HostSpeed { last_s: kernel_s() }
    }

    /// Call right after a measurement: the factor that scales its host time
    /// to the reference host speed.
    pub fn factor(&mut self) -> f64 {
        let now_s = kernel_s();
        let alu = NOMINAL_S.0 / ((self.last_s.0 + now_s.0) / 2.0);
        let chase = NOMINAL_S.1 / ((self.last_s.1 + now_s.1) / 2.0);
        self.last_s = now_s;
        (alu * chase).sqrt()
    }
}

/// Takes the timed samples of the micro-drives.
#[derive(Debug)]
pub struct Sampler {
    samples: usize,
    speed: HostSpeed,
}

impl Sampler {
    /// A sampler that reports the median of `samples` samples.
    pub fn new(samples: usize) -> Self {
        Sampler {
            samples,
            speed: HostSpeed::start(),
        }
    }

    /// Median nanoseconds per operation, at the reference host speed, over
    /// calls of `sample`, which does its own untimed set-up and returns the
    /// time it measured and the number of operations that time covers.
    pub fn median_ns_per_op(&mut self, mut sample: impl FnMut() -> (Duration, u64)) -> f64 {
        let per_op: Vec<f64> = (0..self.samples)
            .map(|_| {
                let (elapsed, ops) = sample();
                elapsed.as_nanos() as f64 * self.speed.factor() / ops.max(1) as f64
            })
            .collect();
        median(&per_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_geometric_mean_of_the_two_slowdowns() {
        // A host whose kernel halves took 2× and 8× nominal before, and
        // whatever they take now: the factor follows the bracketing means.
        let mut speed = HostSpeed {
            last_s: (2.0 * NOMINAL_S.0, 8.0 * NOMINAL_S.1),
        };
        let factor = speed.factor();
        let alu = NOMINAL_S.0 / ((2.0 * NOMINAL_S.0 + speed.last_s.0) / 2.0);
        let chase = NOMINAL_S.1 / ((8.0 * NOMINAL_S.1 + speed.last_s.1) / 2.0);
        assert!((factor - (alu * chase).sqrt()).abs() < 1e-12);
        assert!(factor.is_finite() && factor > 0.0);
    }

    #[test]
    fn the_chase_table_is_one_cycle_over_every_entry() {
        let table = chase_table();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_ENTRIES);
    }

    #[test]
    fn sampler_reports_the_median_sample_per_operation() {
        let mut costs = [300u64, 100, 200].into_iter();
        let ns = Sampler::new(3)
            .median_ns_per_op(|| (Duration::from_nanos(costs.next().unwrap() * 1000), 1000));
        // The middle sample is 200 ns per operation; host speed moves it by
        // its factor, which stays within a small multiple of 1 on any host.
        assert!(ns > 20.0 && ns < 2000.0, "{ns}");
    }

    #[test]
    fn both_kernel_halves_take_measurable_time() {
        let (alu, chase) = kernel_s();
        assert!(alu > 1e-4 && chase > 1e-5, "{alu} {chase}");
    }
}
