//! The open-loop arrival schedule and the pacer that follows it.
//!
//! Request `i` of a phase is due at `start + i / rate`, whether or not
//! earlier requests were answered. Latency is timed from the due time, so
//! a stall in the sender or the server counts against every request it
//! delays (no coordinated omission), and the pacer records how late it
//! handed each request over.

use std::ops::Range;
use std::time::{Duration, Instant};

/// A constant-rate due-time schedule for `count` requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate: f64,
    count: usize,
}

impl Schedule {
    /// `count` requests at `rate` per second, the first due at `start`.
    pub fn new(start: Instant, rate: f64, count: usize) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self { start, rate, count }
    }

    /// Number of requests in the schedule.
    pub fn count(&self) -> usize {
        self.count
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// How many requests are due at `now`: requests `0..n` all have
    /// `due(i) <= now`.
    pub fn due_by(&self, now: Instant) -> usize {
        if now < self.start {
            return 0;
        }
        let guess = ((now - self.start).as_secs_f64() * self.rate).floor() as usize + 1;
        let mut n = guess.min(self.count);
        // The float guess can be off by one at a boundary; `due` decides.
        while n > 0 && self.due(n - 1) > now {
            n -= 1;
        }
        while n < self.count && self.due(n) <= now {
            n += 1;
        }
        n
    }
}

/// What the pacer did.
#[derive(Debug, Clone)]
pub struct Paced {
    /// Per request: microseconds between its due time and its hand-over.
    pub lag_us: Vec<f64>,
    /// Scheduled span (first to last due time) over the span actually
    /// taken (first due time to last hand-over); below 1 when the
    /// generator fell behind.
    pub achieved_ratio: f64,
}

/// Follow `schedule`: at each wake-up, hand every request that is due to
/// `send` in one batch, then sleep until the next due time.
pub fn pace<E>(
    schedule: &Schedule,
    mut send: impl FnMut(Range<usize>) -> Result<(), E>,
) -> Result<Paced, E> {
    let mut lag_us = Vec::with_capacity(schedule.count());
    let mut next = 0;
    let mut last_send = schedule.start;
    while next < schedule.count() {
        let now = Instant::now();
        let upto = schedule.due_by(now);
        if upto > next {
            lag_us.extend((next..upto).map(|i| (now - schedule.due(i)).as_secs_f64() * 1e6));
            send(next..upto)?;
            next = upto;
            last_send = now;
        } else {
            std::thread::sleep(schedule.due(next) - now);
        }
    }
    let planned = schedule.due(schedule.count().saturating_sub(1)) - schedule.start;
    let taken = last_send - schedule.start;
    let achieved_ratio = if taken.is_zero() {
        1.0
    } else {
        planned.as_secs_f64() / taken.as_secs_f64()
    };
    Ok(Paced {
        lag_us,
        achieved_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let start = Instant::now();
        let s = Schedule::new(start, 1000.0, 10);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(4) - start, Duration::from_millis(4));
        assert_eq!(s.due_by(start - Duration::from_millis(1)), 0);
        assert_eq!(s.due_by(start), 1, "request 0 is due at the start");
        assert_eq!(s.due_by(start + Duration::from_micros(2500)), 3);
        assert_eq!(
            s.due_by(start + Duration::from_millis(3)),
            4,
            "boundary counts"
        );
        assert_eq!(
            s.due_by(start + Duration::from_secs(5)),
            10,
            "capped at count"
        );
    }

    #[test]
    fn a_stalled_sender_sends_everything_due_in_one_batch_and_records_lag() {
        let s = Schedule::new(Instant::now(), 1000.0, 60);
        let mut batches: Vec<Range<usize>> = Vec::new();
        let paced = pace(&s, |batch| {
            if batches.is_empty() {
                // Stall after the first hand-over: ~20 requests fall due.
                std::thread::sleep(Duration::from_millis(20));
            }
            batches.push(batch);
            Ok::<(), ()>(())
        })
        .unwrap();
        let sent: Vec<usize> = batches.iter().flat_map(|b| b.clone()).collect();
        assert_eq!(
            sent,
            (0..60).collect::<Vec<_>>(),
            "each request once, in order"
        );
        assert!(
            batches[1].len() >= 15,
            "the wake-up after the stall must batch every due request: {:?}",
            batches[1]
        );
        assert_eq!(paced.lag_us.len(), 60);
        let first_after_stall = batches[1].start;
        assert!(
            paced.lag_us[first_after_stall] >= 15_000.0,
            "lag of the oldest delayed request: {} µs",
            paced.lag_us[first_after_stall]
        );
        assert!(paced.achieved_ratio > 0.0 && paced.achieved_ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn send_errors_stop_the_pacer() {
        let s = Schedule::new(Instant::now(), 1e6, 100);
        let mut calls = 0;
        let r = pace(&s, |_| {
            calls += 1;
            Err("peer closed")
        });
        assert_eq!(r.unwrap_err(), "peer closed");
        assert_eq!(calls, 1);
    }
}
