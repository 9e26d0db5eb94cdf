//! Small statistics helpers used by reporting.

/// Mean and (population) standard deviation of a slice.
pub fn mean_std(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    let var = xs
        .iter()
        .map(|&x| {
            let d = x as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    (mean as f32, var.sqrt() as f32)
}

/// A fixed-width histogram over `[lo, hi]`, used for activation
/// distribution reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` buckets over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty histogram range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation (values outside the range clamp to the edge
    /// bins).
    pub fn add(&mut self, v: f32) {
        let bins = self.counts.len();
        let t = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((t * bins as f32) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The value below which `q` of the observations fall (approximate,
    /// bucket-resolution).
    pub fn quantile(&self, q: f32) -> f32 {
        let target = (q.clamp(0.0, 1.0) as f64 * self.total as f64) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let frac = (i + 1) as f32 / self.counts.len() as f32;
                return self.lo + frac * (self.hi - self.lo);
            }
        }
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_of_constant_is_zero_std() {
        let (m, s) = mean_std(&[2.0; 10]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn mean_std_known_values() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn mean_std_empty() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..100 {
            h.add(i as f32 / 100.0);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
        let med = h.quantile(0.5);
        assert!((0.4..=0.6).contains(&med), "median {med}");
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(9.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }
}
