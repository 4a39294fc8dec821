//! Fixed-capacity time series: the ring buffer under every windowed
//! rate and quantile the SLO engine derives.
//!
//! A [`Series`] holds the most recent `capacity` samples of one
//! cumulative counter, one per scrape. Window math is sample-index
//! based, not wall-clock based: "the fast window" is *5 scrapes*, and a
//! delta over a window of `w` subtracts the sample `w` scrapes back
//! from the latest. A window whose left edge has aged out of the ring
//! (or was never scraped) yields `None` — the insufficient-data guard
//! that keeps alert rules from firing off a partial window.

use std::collections::VecDeque;

/// A bounded ring of cumulative counter samples, oldest evicted first.
#[derive(Clone, Debug)]
pub(crate) struct Series {
    cap: usize,
    data: VecDeque<f64>,
}

impl Series {
    /// An empty series retaining the most recent `capacity` samples
    /// (clamped to at least 2, the minimum a delta needs).
    pub(crate) fn new(capacity: usize) -> Series {
        Series {
            cap: capacity.max(2),
            data: VecDeque::new(),
        }
    }

    /// Appends one sample, evicting the oldest at capacity.
    pub(crate) fn push(&mut self, value: f64) {
        if self.data.len() == self.cap {
            self.data.pop_front();
        }
        self.data.push_back(value);
    }

    /// The most recent sample.
    pub(crate) fn latest(&self) -> Option<f64> {
        self.data.back().copied()
    }

    /// The sample `k` scrapes before the latest (`back(0)` is the
    /// latest). `None` when that sample was never pushed or has aged
    /// out.
    pub(crate) fn back(&self, k: usize) -> Option<f64> {
        let n = self.data.len();
        if k >= n {
            return None;
        }
        self.data.get(n - 1 - k).copied()
    }

    /// The cumulative counter's increase over the last `window` scrapes:
    /// `latest - back(window)`. `None` until `window + 1` samples have
    /// been retained — a partial window never masquerades as a full one.
    pub(crate) fn delta(&self, window: usize) -> Option<f64> {
        Some(self.latest()? - self.back(window)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_need_a_full_window() {
        let mut s = Series::new(8);
        assert!(s.delta(1).is_none());
        s.push(10.0);
        assert!(s.delta(1).is_none(), "one sample is zero deltas");
        s.push(13.0);
        assert_eq!(s.delta(1), Some(3.0));
        assert!(s.delta(2).is_none());
        s.push(20.0);
        assert_eq!(s.delta(1), Some(7.0));
        assert_eq!(s.delta(2), Some(10.0));
        assert_eq!(s.latest(), Some(20.0));
        assert_eq!(s.back(2), Some(10.0));
    }

    #[test]
    fn eviction_invalidates_old_windows() {
        let mut s = Series::new(3);
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert!(s.back(2).is_some() && s.back(3).is_none(), "three retained");
        // The window of 2 still fits (samples 2.0 and 4.0)...
        assert_eq!(s.delta(2), Some(2.0));
        // ...but a window of 3 reaches past the ring.
        assert!(s.delta(3).is_none());
    }

    #[test]
    fn capacity_floor_allows_single_scrape_deltas() {
        let mut s = Series::new(0);
        s.push(1.0);
        s.push(5.0);
        assert_eq!(s.delta(1), Some(4.0));
        assert_eq!(s.back(1), Some(1.0), "both samples retained");
    }
}
