//! Sample statistics with the benchmark's reporting rule: a timing is a
//! median plus a tail percentile, and a tail is only reported when at
//! least [`MIN_BEYOND_TAIL`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// An immutable, sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| v.is_finite());
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Median (mean of the two middle samples for an even count).
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank index of percentile `p` (0 < p <= 100), 1-based.
    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len() as f64;
        ((p / 100.0 * n).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// How many samples lie beyond the nearest-rank percentile `p`.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - self.rank(p)
    }

    /// Nearest-rank percentile `p`, with no sample-count rule.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[self.rank(p) - 1])
    }

    /// Tail percentile `p`, or `None` when fewer than
    /// [`MIN_BEYOND_TAIL`] samples lie beyond it.
    pub fn tail(&self, p: f64) -> Option<f64> {
        if self.beyond(p) < MIN_BEYOND_TAIL {
            return None;
        }
        self.percentile(p)
    }

    /// Smallest sample count for which [`Dist::tail`] at `p` is defined.
    #[cfg(test)]
    pub fn min_samples_for_tail(p: f64) -> usize {
        (1..)
            .find(|&n| Dist::new((0..n).map(|i| i as f64).collect()).beyond(p) >= MIN_BEYOND_TAIL)
            .expect("some sample count always suffices")
    }

    pub fn sorted_samples(&self) -> Vec<f64> {
        self.sorted.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(ramp(5).median(), Some(3.0));
        assert_eq!(ramp(4).median(), Some(2.5));
        assert_eq!(Dist::new(vec![]).median(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th; exactly ten lie beyond it
        let d = ramp(100);
        assert_eq!(d.beyond(90.0), 10);
        assert_eq!(d.tail(90.0), Some(90.0));
        // 99 samples leave only nine beyond the p90 rank
        assert_eq!(ramp(99).beyond(90.0), 9);
        assert_eq!(ramp(99).tail(90.0), None);
        // p99 needs a thousand samples
        assert_eq!(ramp(999).tail(99.0), None);
        assert_eq!(ramp(1000).tail(99.0), Some(990.0));
    }

    #[test]
    fn min_samples_matches_the_rule() {
        assert_eq!(Dist::min_samples_for_tail(90.0), 100);
        assert_eq!(Dist::min_samples_for_tail(99.0), 1000);
        assert_eq!(Dist::min_samples_for_tail(50.0), 20);
    }

    #[test]
    fn the_108_cell_sweep_supports_p90() {
        // 12 models x 9 devices, the dse-sweep request count per tier
        assert!(ramp(108).tail(90.0).is_some());
        assert!(ramp(108).tail(95.0).is_none());
    }

    #[test]
    fn non_finite_samples_are_dropped_and_order_ignored() {
        let d = Dist::new(vec![3.0, f64::NAN, 1.0, 2.0, f64::INFINITY]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.percentile(100.0), Some(3.0));
        assert_eq!(d.percentile(1.0), Some(1.0));
    }
}
