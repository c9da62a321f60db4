//! The open-loop pacer: operations are due on a schedule fixed before
//! the run, and latency is charged from the *due* instant, so a stall
//! is paid for by every operation it delays (no coordinated omission).
//!
//! The schedule is uniform — slot `i` is due at `i / rate` — because on
//! this 2-vCPU box the stream's own bursty timestamps made back-to-back
//! p99s of one binary differ by 2× and more (see `bench/README.md`).
//! The stream's timestamps still drive the join; only the wall-clock
//! pacing is uniform. The bursty schedule survives as an informational
//! per-layer row ([`bursty_offsets_ns`]).

use std::time::{Duration, Instant};

use sssj_types::StreamRecord;

/// A uniform arrival schedule.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub period_ns: u64,
}

impl Schedule {
    /// A schedule of `rate` operations per second whose slot 0 is due a
    /// short moment from now (so that cooperating threads can all reach
    /// their first wait before it passes).
    pub fn starting_now(rate: f64) -> Schedule {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Schedule {
            start: Instant::now() + Duration::from_millis(2),
            period_ns: (1e9 / rate).round() as u64,
        }
    }

    pub fn due(&self, slot: usize) -> Instant {
        self.start + Duration::from_nanos(self.period_ns * slot as u64)
    }
}

/// Nanoseconds from `due` to `at`; zero when `at` is earlier.
pub fn since_ns(due: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(due).as_nanos() as u64
}

/// How a generator waits for a due instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Wait {
    /// Busy-wait without a system call, for a generator that has a CPU
    /// to itself. A thread that sleeps lets its vCPU halt; what the host
    /// runs on that core meanwhile, and how long the wake-up takes, then
    /// decide how warm the caches are when the operation starts. A copy
    /// loop on the *other* vCPU took `engine-dense`'s p50 from 90 to
    /// 138 µs under a sleeping pacer and left it at 87 µs under this one.
    Spin,
    /// Sleep until shortly before the instant, then busy-wait: for a
    /// generator whose CPU is kept awake by a spinner of the idle class
    /// (`workloads::Awake`). The sleep is what the spinner lives on; a
    /// generator that never slept would owe it a share of the CPU, which
    /// the scheduler takes in slices of a few hundred µs.
    Nap,
    /// Sleep until shortly before the instant, then yield in a loop, for
    /// generators that share a CPU with each other and with the server:
    /// a plain busy-wait at a 200 µs period never sleeps and held the
    /// other generator off the CPU for whole scheduler quanta.
    Yield,
}

/// Returns at `deadline` or as soon after as the CPU allows.
pub fn wait_until(deadline: Instant, wait: Wait) {
    const NAP_MARGIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        match wait {
            Wait::Nap | Wait::Yield if left > NAP_MARGIN => std::thread::sleep(left - NAP_MARGIN),
            Wait::Yield => std::thread::yield_now(),
            Wait::Spin | Wait::Nap => std::hint::spin_loop(),
        }
    }
}

/// Runs `op(slot, due)` for each of `slots` at its due instant, or as
/// soon after as the previous operation allows — the generator never
/// skips a slot. `op` measures its own completion latency with
/// [`since_ns`]`(due, …)`.
///
/// Returns the generator's own lateness: for every slot it had to
/// *wait* for, how long after the due instant the operation started. A
/// slot that was already overdue when its predecessor finished is the
/// system's backlog, not the generator's fault, and is charged to the
/// operation's latency only.
pub fn pace<E>(
    schedule: &Schedule,
    wait: Wait,
    slots: impl Iterator<Item = usize>,
    mut op: impl FnMut(usize, Instant) -> Result<(), E>,
) -> Result<Vec<u64>, E> {
    let mut lag = Vec::with_capacity(slots.size_hint().0);
    for slot in slots {
        let due = schedule.due(slot);
        if Instant::now() < due {
            wait_until(due, wait);
            lag.push(since_ns(due, Instant::now()));
        }
        op(slot, due)?;
    }
    Ok(lag)
}

/// The old timestamp-paced schedule: offsets from the stream's own
/// timestamps rescaled to a mean of `rate` records per second,
/// burstiness preserved. Kept only for `bench.burst_ingest_p99_us`.
pub fn bursty_offsets_ns(records: &[StreamRecord], rate: f64) -> Vec<u64> {
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Vec::new();
    };
    let span = last.t.seconds() - first.t.seconds();
    let total_ns = (records.len() - 1) as f64 * 1e9 / rate;
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if span > 0.0 {
                ((r.t.seconds() - first.t.seconds()) / span * total_ns) as u64
            } else {
                (i as f64 * 1e9 / rate) as u64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_i_is_due_at_i_over_rate() {
        let s = Schedule::starting_now(2_000.0);
        assert_eq!(s.period_ns, 500_000);
        assert_eq!(s.due(0), s.start);
        assert_eq!(s.due(3) - s.start, Duration::from_micros(1_500));
        assert_eq!(s.due(2_000) - s.start, Duration::from_secs(1));
    }

    #[test]
    fn latency_runs_from_the_due_instant_not_from_the_send() {
        let now = Instant::now();
        let due = now + Duration::from_millis(1);
        // Early completion (cannot happen when pacing, but never wraps).
        assert_eq!(since_ns(due, now), 0);
        assert_eq!(since_ns(due, due + Duration::from_micros(7)), 7_000);
    }

    #[test]
    fn a_stall_is_charged_to_every_operation_it_delays() {
        // 1 kHz schedule; operation 2 takes 6 ms, the rest are instant.
        // Closed-loop timing would report one slow operation; from the
        // due instant, operations 3..=7 each carry the backlog too.
        let s = Schedule::starting_now(1_000.0);
        let mut lat = Vec::new();
        let lag = pace(&s, Wait::Spin, 0..12, |slot, due| {
            if slot == 2 {
                std::thread::sleep(Duration::from_millis(6));
            }
            lat.push(since_ns(due, Instant::now()));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(lat.len(), 12);
        assert!(lat[2] >= 6_000_000, "{lat:?}");
        // Slot 3 was due 1 ms after slot 2 but could not start until the
        // stall ended ≥ 5 ms later; slot 5 still carries ≥ 3 ms of it.
        assert!(lat[3] >= 4_900_000 && lat[5] >= 2_900_000, "{lat:?}");
        // The generator catches up and never drops a slot…
        assert!(lat[11] < 2_000_000, "{lat:?}");
        // …and the backlog is not booked as its own lateness: slots
        // 3..=7 were overdue on arrival, so only the others were waited
        // for, each started within a scheduler quantum of its instant.
        assert!(lag.len() <= 12 - 5, "{lag:?}");
        assert!(lag.iter().all(|&l| l < 2_000_000), "{lag:?}");
    }

    #[test]
    fn bursty_offsets_keep_the_mean_rate_and_the_gaps() {
        let records = sssj_data::generate(&sssj_data::preset(sssj_data::Preset::Tweets, 400));
        let offs = bursty_offsets_ns(&records, 1_000.0);
        assert_eq!(offs[0], 0);
        assert!((*offs.last().unwrap() as f64 - 399e6).abs() < 10.0);
        assert!(offs.windows(2).all(|w| w[0] <= w[1]));
        let mean = 1e6;
        assert!(offs
            .windows(2)
            .any(|w| ((w[1] - w[0]) as f64 - mean).abs() > mean * 0.5));
    }
}
