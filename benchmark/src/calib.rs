//! The host-speed reference: what makes a timing taken on a shared host
//! comparable with one taken an hour later.
//!
//! The fastest-per-unit sum ([`crate::book`]) discards a *disturbed
//! sample*; it cannot discard a *slow host*. The first check of this
//! benchmark saw the fastest-sum of one binary spread 17–40 % between
//! 30 s runs while half the runs read the same to 0.3 %: every one of a
//! run's 75 passes was slow, and so was every minimum. A noisy hour on
//! the box this was written on showed what kind of slow: no steal time
//! in `/proc/stat`, CPU time equal to wall time, and a fixed 60 ms piece
//! of simulation reading up to 72 % over its median for seconds on end.
//! The program really runs slower, because something else shares its
//! core.
//!
//! So every end-to-end timing is taken two ways at once:
//!
//! * on the process CPU clock, which leaves out the time the process was
//!   not running at all (preempted in the guest, or stolen by the host:
//!   this kernel subtracts steal time from task run time);
//! * between *speed samples*: a fixed piece of work of the benchmark's
//!   own — eight independent chains of register arithmetic, 0.18 ms —
//!   timed on the same clock. A sample reads 1.0 when the work takes
//!   [`SLICE_REF_NS`], above when the host is slower.
//!
//! The work was chosen by measurement. For 90 s of that noisy hour a
//! probe alternated 60 ms of simulation with seven candidates. Over
//! half-second windows the simulator's time correlated 0.39 with a
//! dependent walk over a 16 KiB table, 0.67 with one over 256 KiB, 0.69
//! with three such walks at once, and 0.92–0.93 with a walk that takes an
//! unpredictable branch per step and with the eight arithmetic chains:
//! what slows the simulator is a neighbour taking issue slots and
//! front-end turns on the same core, not one evicting its data. The
//! branchy walk read 4 % apart between two builds of one source that
//! differed in an unrelated function (where the linker put the loop
//! decided how fast a misprediction refilled), which would have put that
//! error on every later comparison of two commits. The arithmetic chains
//! touch no memory and take no branch but the loop's: their fifth
//! percentile read 1.0001 and 1.0011 in one build and 0.9999 and 1.0013
//! in the other, and on a calm host their floor is sharp (minimum
//! 181 644 ns, fifth percentile 181 679, lower quartile 181 739).
//!
//! The simulator loses about twice what the chains lose: the slope of
//! its excess over theirs was 1.9–2.0 in both probe runs. Dividing its
//! time by `1 + K * (sample - 1)` over two-second windows brought the
//! 95th percentile from 1.48 of the median (raw) to 1.21 at `K = 1`, 1.06
//! at `K = 2` and 1.04 at `K = 2.5`, and the quartile distance from 14 %
//! to 4 %; hence [`SENSITIVITY`]. It matters on a busy host only: on a
//! calm one the samples read 1.00 and any `K` gives the same figure.
//!
//! A timing divided by that factor is in *reference seconds*: the CPU
//! time the work would take with the host at reference speed. The speed
//! work never changes (no later change to the simulator can touch this
//! file), so a change to the simulator moves the quotient exactly as it
//! moves the time.

use std::time::Instant;

/// CPU nanoseconds one speed sample takes on the 2.1 GHz Xeon guest
/// this benchmark was written on, with the host quiet. Only a scale:
/// it makes reference seconds read like that machine's seconds.
pub const SLICE_REF_NS: f64 = 181_700.0;

/// Steps of one piece of work.
const STEPS: u64 = 1 << 16;
/// Independent chains the work advances in every step.
const LANES: usize = 8;
/// How many times the speed work's loss the simulator loses to a busy
/// host (measured, see the module text).
const SENSITIVITY: f64 = 2.0;
/// A timing is followed by speed samples for one part in this many of
/// its own length,
const SAMPLED_SHARE: f64 = 12.0;
/// but never by more than this many.
const MAX_SAMPLES: usize = 48;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    /// CPU time of every thread of this process so far, in nanoseconds.
    pub fn cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` of the
        // 64-bit Linux ABI, which is all this module is compiled for.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the process CPU clock is readable");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("clp-hostbench reads the 64-bit Linux process CPU clock and /proc/self/status");

pub use clock::cpu_ns;

/// One timing, both ways.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// On the wall clock.
    pub wall_ns: u64,
    /// On the process CPU clock.
    pub cpu_ns: u64,
    /// The host speed around it: the mean of the speed samples taken
    /// before and after; 1 is the reference host, above is slower.
    pub speed: f64,
}

impl Timed {
    /// How much slower than on the reference host the simulator ran
    /// around this timing: the samples' excess, [`SENSITIVITY`] times.
    pub fn slowdown(&self) -> f64 {
        1.0 + SENSITIVITY * (self.speed - 1.0)
    }

    /// The CPU time at reference host speed.
    pub fn ref_ns(&self) -> f64 {
        self.cpu_ns as f64 / self.slowdown()
    }
}

/// Speed samples: their sum and how many.
#[derive(Clone, Copy, Debug, Default)]
struct Samples {
    sum: f64,
    count: usize,
}

impl Samples {
    fn with(self, other: Samples) -> Samples {
        Samples {
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }
}

/// A timing under way: see [`Calibrator::start`].
pub struct Watch {
    before: Samples,
    cpu0: u64,
    wall: Instant,
}

/// The fixed work, and every speed sample taken with it.
#[derive(Default)]
pub struct Calibrator {
    /// What the last piece of work computed; always the same.
    digest: u64,
    /// The samples that followed the last timing: in a pass they are
    /// also the ones just before the next.
    trail: Samples,
    speeds: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self::default()
    }

    /// The fixed piece of work: eight independent chains of register
    /// arithmetic, no memory and no branch but the loop's.
    #[inline(never)]
    fn work(&mut self) {
        let mut lanes: [u64; LANES] = [1, 2, 3, 4, 5, 6, 7, 8];
        for step in 0..STEPS {
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane = (*lane ^ step).wrapping_add(k as u64).rotate_left(5);
            }
        }
        let digest = lanes.iter().fold(0, |d, lane| d ^ lane);
        self.digest = std::hint::black_box(digest);
    }

    /// `count` speed samples: the work `count` times, each timed.
    fn sample(&mut self, count: usize) -> Samples {
        let mut sum = 0.0;
        for _ in 0..count {
            let t = cpu_ns();
            self.work();
            let speed = (cpu_ns() - t) as f64 / SLICE_REF_NS;
            self.speeds.push(speed);
            sum += speed;
        }
        Samples { sum, count }
    }

    /// Samples the host speed and starts both clocks.
    pub fn start(&mut self) -> Watch {
        let before = self.sample(1).with(std::mem::take(&mut self.trail));
        Watch {
            before,
            cpu0: cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// Stops both clocks and samples the host speed again, for about a
    /// twelfth of the time the work took: the longer a timing, the more
    /// it weighs in a total and the better its speed is known.
    pub fn stop(&mut self, watch: Watch) -> Timed {
        let wall_ns = u64::try_from(watch.wall.elapsed().as_nanos()).expect("fits u64 ns");
        let cpu_ns = cpu_ns() - watch.cpu0;
        let count = (cpu_ns as f64 / (SAMPLED_SHARE * SLICE_REF_NS)) as usize;
        self.trail = self.sample(count.clamp(1, MAX_SAMPLES));
        let around = watch.before.with(self.trail);
        Timed {
            wall_ns,
            cpu_ns,
            speed: around.sum / around.count as f64,
        }
    }

    /// How many speed samples have been taken.
    pub fn samples_taken(&self) -> usize {
        self.speeds.len()
    }

    /// The mean of the speed samples taken since there were `from`.
    pub fn mean_speed_since(&self, from: usize) -> f64 {
        let since = &self.speeds[from..];
        since.iter().sum::<f64>() / since.len().max(1) as f64
    }

    /// The median of every speed sample so far (1.0 when none).
    pub fn median_speed(&self) -> f64 {
        if self.speeds.is_empty() {
            1.0
        } else {
            crate::book::median(&self.speeds)
        }
    }

    /// How far the host speed moved during the run: the quartile
    /// distance of the samples over their median, in percent.
    pub fn speed_spread_pct(&self) -> f64 {
        if self.speeds.len() < 2 {
            return 0.0;
        }
        let (q1, q3) = crate::book::quartiles(&self.speeds);
        (q3 - q1) / self.median_speed() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_the_same_every_time() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        a.sample(1);
        let first = a.digest;
        for _ in 0..3 {
            a.sample(2);
            b.sample(1);
        }
        assert_ne!(first, 0);
        assert_eq!((a.digest, b.digest), (first, first));
    }

    #[test]
    fn a_timing_is_its_cpu_time_over_the_speed_around_it() {
        let mut c = Calibrator::new();
        let watch = c.start();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let timed = c.stop(watch);
        assert!(timed.wall_ns > 0 && timed.cpu_ns > 0);
        assert!(c.speeds.len() >= 2 && c.speeds.len() <= 1 + MAX_SAMPLES);
        let lo = c.speeds.iter().copied().fold(f64::MAX, f64::min);
        let hi = c.speeds.iter().copied().fold(f64::MIN, f64::max);
        assert!((lo..=hi).contains(&timed.speed));
        assert_eq!(timed.ref_ns(), timed.cpu_ns as f64 / timed.slowdown());
        // The samples after one timing are the ones before the next.
        let trailing = c.trail.count;
        assert_eq!(c.start().before.count, trailing + 1);
    }

    #[test]
    fn a_slow_host_counts_for_its_excess_times_the_sensitivity() {
        let timed = |speed| Timed {
            wall_ns: 0,
            cpu_ns: 1_000,
            speed,
        };
        assert_eq!(timed(1.0).ref_ns(), 1_000.0);
        assert_eq!(timed(1.25).slowdown(), 1.0 + SENSITIVITY * 0.25);
        assert!(timed(1.25).ref_ns() < timed(1.1).ref_ns());
    }

    #[test]
    fn the_cpu_clock_runs_forward() {
        let a = cpu_ns();
        let mut x = 0u64;
        for i in 0..100_000u64 {
            x = std::hint::black_box(x ^ i);
        }
        assert!(cpu_ns() > a);
    }
}
