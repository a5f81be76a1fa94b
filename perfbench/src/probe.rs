//! The host-speed probe: a fixed loop that shares no code with the
//! program, timed next to every measurement so that each throughput
//! can be scaled to a nominal host speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts by a third over tens of seconds as other tenants come and go.
//! Every measured operation is bracketed by probe passes; its result is
//! reported at the host speed at which one pass takes [`NOMINAL_S`]. A
//! change to the program cannot move the probe, so the scaled figure
//! moves with the program alone.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Seconds one pass takes on the unloaded reference host; the scale
/// of every host-normalised throughput.
pub const NOMINAL_S: f64 = 0.025;

/// Words of the cache-resident sweep (1 MiB), and its passes.
const SWEEP_WORDS: usize = 128 << 10;
const SWEEPS: u64 = 200;
/// The pointer chase: a cycle through `CHASE_HOPS` slots scattered over
/// a 32 MiB array (most on a page of their own, so it also walks the
/// TLB), followed for `CHASE_STEPS` steps.
const CHASE_SLOTS: usize = 8 << 20;
const CHASE_HOPS: usize = 4096;
const CHASE_STEPS: usize = 1_000_000;

/// The probe's buffers, built once.
pub struct Probe {
    sweep: Vec<u64>,
    chase: Vec<u32>,
}

impl Probe {
    /// Builds the buffers: a 1 MiB array for the sweep and the chase's
    /// cycle.
    pub fn new() -> Self {
        let sweep =
            (0..SWEEP_WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        // Multiplying by an odd constant permutes indices modulo a power
        // of two, so the hops are distinct slots, spread over the array.
        let hop = |k: usize| (k.wrapping_mul(0x9E37_79B1) + 0x5bd1) & (CHASE_SLOTS - 1);
        let mut chase = vec![0u32; CHASE_SLOTS];
        for k in 0..CHASE_HOPS {
            chase[hop(k)] = hop((k + 1) % CHASE_HOPS) as u32;
        }
        Self { sweep, chase }
    }

    /// Seconds one pass takes now: the cache-resident sweep and the
    /// pointer chase, back to back. An untimed round of each first
    /// brings the buffers back into the caches, so the time does not
    /// depend on what the measured program left there.
    pub fn pass_s(&self) -> f64 {
        self.work(1, CHASE_HOPS);
        let t = Instant::now();
        self.work(SWEEPS, CHASE_STEPS);
        t.elapsed().as_secs_f64()
    }

    fn work(&self, sweeps: u64, steps: usize) {
        let mut acc = 0u64;
        for r in 0..sweeps {
            for (k, v) in black_box(&self.sweep).iter().enumerate() {
                acc = acc.wrapping_add(v ^ (k as u64 + r));
            }
        }
        let mut slot = black_box(0x5bd1u32);
        for _ in 0..steps {
            slot = self.chase[slot as usize];
        }
        black_box((acc, slot));
    }
}

/// Probe pass times around one measured operation: one pass alone, and
/// the mean of two passes run at once on two threads, which also slows
/// when the host takes either core away. An operation on one core is
/// scaled by the first. One that uses two cores for part of its time
/// (the panel waits on its slowest checker; the service's client and
/// server threads take turns) is scaled by the geometric mean of both.
#[derive(Clone, Copy, Debug)]
pub struct Around {
    /// Seconds of one pass alone.
    pub one: f64,
    /// Seconds of a pass while another runs on the second core.
    pub two: f64,
}

impl Around {
    fn pass_s(&self, cores: usize) -> f64 {
        if cores > 1 {
            (self.one * self.two).sqrt()
        } else {
            self.one
        }
    }

    /// `secs`, measured on `cores` busy cores, at the nominal host speed.
    pub fn scale_secs(&self, cores: usize, secs: f64) -> f64 {
        secs * NOMINAL_S / self.pass_s(cores)
    }
}

/// Events over time for one metric, summed over its operations, both
/// as measured and at the nominal host speed. The rate is the ratio of
/// the sums: events done per second spent, so a run's figure is its
/// total work over its total time.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations added.
    pub ops: usize,
    events: f64,
    raw_s: f64,
    scaled_s: f64,
}

impl Tally {
    /// Adds an operation: `events` in `secs` on `cores` busy cores.
    pub fn add(&mut self, events: f64, secs: f64, cores: usize, around: Around) {
        self.ops += 1;
        self.events += events;
        self.raw_s += secs;
        self.scaled_s += around.scale_secs(cores, secs);
    }

    /// Events per second at the nominal host speed (0 with no time).
    pub fn rate(&self) -> f64 {
        if self.scaled_s > 0.0 {
            self.events / self.scaled_s
        } else {
            0.0
        }
    }

    /// Events per second as measured (0 with no time).
    pub fn raw_rate(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.events / self.raw_s
        } else {
            0.0
        }
    }
}

/// Host speed around consecutive measurements: the passes that end one
/// measurement also start the next.
pub struct Host {
    probe: Probe,
    last: Around,
}

impl Host {
    /// Builds the probe and takes the first passes.
    pub fn new() -> Self {
        let probe = Probe::new();
        let last = Self::passes(&probe);
        Self { probe, last }
    }

    /// Probe times over whatever ran since the previous call: the mean
    /// of the passes before and after it.
    pub fn since_last(&mut self) -> Around {
        let now = Self::passes(&self.probe);
        let around =
            Around { one: (self.last.one + now.one) / 2.0, two: (self.last.two + now.two) / 2.0 };
        self.last = now;
        around
    }

    fn passes(probe: &Probe) -> Around {
        let one = probe.pass_s();
        let two = thread::scope(|s| {
            let other = s.spawn(|| probe.pass_s());
            let mine = probe.pass_s();
            (mine + other.join().expect("probe passes do not panic")) / 2.0
        });
        Around { one, two }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_hop() {
        let p = Probe::new();
        let start = 0x5bd1u32;
        let (mut slot, mut steps) = (start, 0usize);
        loop {
            slot = p.chase[slot as usize];
            steps += 1;
            if slot == start {
                break;
            }
        }
        assert_eq!(steps, CHASE_HOPS);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        let around = Around { one: NOMINAL_S, two: 4.0 * NOMINAL_S };
        assert!((around.scale_secs(1, 3.0) - 3.0).abs() < 1e-12);
        // Two cores: the geometric mean of 1× and 4× the nominal pass.
        assert!((around.scale_secs(2, 3.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_tally_rate_is_total_events_over_total_time() {
        let mut t = Tally::default();
        assert_eq!((t.rate(), t.raw_rate()), (0.0, 0.0));
        let at_nominal = Around { one: NOMINAL_S, two: NOMINAL_S };
        let half_speed = Around { one: 2.0 * NOMINAL_S, two: 2.0 * NOMINAL_S };
        t.add(100.0, 1.0, 1, at_nominal);
        t.add(100.0, 3.0, 1, half_speed);
        assert_eq!(t.ops, 2);
        assert_eq!(t.raw_rate(), 50.0);
        // 3 s at half speed is 1.5 s at the nominal speed.
        assert_eq!(t.rate(), 80.0);
    }
}
