//! Small statistics helpers: [`mean_std`], and [`Outcomes`], the one
//! place every accuracy in the workspace is counted.

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

/// Which images each prediction column got right: a bitset of hits over
/// images × columns, one run of `u64` words per column (image `i` is bit
/// `i % 64` of word `i / 64`; bits past the last image stay zero). Every
/// accuracy in the workspace is read from one, so two columns scored on
/// the same images can be compared image by image, not only by count.
///
/// The one empty-set rule: a sample of no images has no accuracy (a
/// `0.0` would read as "every prediction wrong"), so [`Outcomes::new`]
/// panics on it, and so does [`Outcomes::assert_sample`], which a scorer
/// that needs the first image before it can predict calls up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcomes {
    n: usize,
    hits: Vec<Vec<u64>>,
}

impl Outcomes {
    /// Scores `columns` prediction columns over images `0..n`: image `i`
    /// is a hit in column `c` when `prediction(i, c) == label(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(
        n: usize,
        columns: usize,
        prediction: impl Fn(usize, usize) -> usize,
        label: impl Fn(usize) -> usize,
    ) -> Outcomes {
        Self::assert_sample(n);
        let mut hits = vec![vec![0u64; n.div_ceil(64)]; columns];
        for i in 0..n {
            let y = label(i);
            for (c, words) in hits.iter_mut().enumerate() {
                words[i / 64] |= u64::from(prediction(i, c) == y) << (i % 64);
            }
        }
        Outcomes { n, hits }
    }

    /// # Panics
    ///
    /// Panics if `n == 0`: scoring needs a non-empty sample.
    pub fn assert_sample(n: usize) {
        assert!(n > 0, "scoring needs a non-empty sample of images");
    }

    /// Column `c` alone.
    pub fn column(&self, c: usize) -> Outcomes {
        let hits = vec![self.hits[c].clone()];
        Outcomes { n: self.n, hits }
    }

    /// Number of images column `c` got right.
    pub fn correct(&self, c: usize) -> usize {
        self.hits[c].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of images column `c` got right.
    pub fn accuracy(&self, c: usize) -> f32 {
        self.correct(c) as f32 / self.n as f32
    }

    /// Every column's [`Outcomes::accuracy`], in column order.
    pub fn accuracies(&self) -> Vec<f32> {
        (0..self.hits.len()).map(|c| self.accuracy(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Image counts on and around the word boundaries of the bitset.
    const EDGES: [usize; 5] = [1, 63, 64, 65, 129];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every accuracy read through [`Outcomes`] is, bit for bit, the
        /// longhand count over the prediction matrix divided by `n`.
        #[test]
        fn accuracy_is_the_longhand_count_over_n(
            pick in 0usize..10,
            random_n in 1usize..=300,
            columns in 1usize..=9,
            seed in any::<u64>(),
        ) {
            let n = EDGES.get(pick).copied().unwrap_or(random_n);
            let mut s = seed | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 3) as usize
            };
            let labels: Vec<usize> = (0..n).map(|_| next()).collect();
            let preds: Vec<Vec<usize>> =
                (0..n).map(|_| (0..columns).map(|_| next()).collect()).collect();
            let hits = Outcomes::new(n, columns, |i, c| preds[i][c], |i| labels[i]);
            prop_assert_eq!(hits.accuracies().len(), columns);
            for c in 0..columns {
                let mut count = 0usize;
                for (row, &y) in preds.iter().zip(&labels) {
                    if row[c] == y {
                        count += 1;
                    }
                }
                prop_assert_eq!(hits.correct(c), count);
                prop_assert_eq!(hits.accuracy(c).to_bits(), (count as f32 / n as f32).to_bits());
                prop_assert_eq!(hits.accuracies()[c].to_bits(), hits.accuracy(c).to_bits());
            }
        }
    }

    #[test]
    fn outcomes_compare_images_not_counts() {
        let labels = [0, 1, 0, 1];
        let a = Outcomes::new(4, 1, |i, _| [0, 0, 0, 0][i], |i| labels[i]);
        let b = Outcomes::new(4, 1, |i, _| [1, 1, 0, 0][i], |i| labels[i]);
        assert_eq!(a.correct(0), b.correct(0));
        assert_ne!(a, b, "same count, different images");
        let both = Outcomes::new(
            4,
            2,
            |i, c| [[0, 0], [0, 1], [0, 1], [0, 1]][i][c],
            |i| labels[i],
        );
        assert_eq!(both.column(0), a);
        assert_eq!((both.correct(1), both.accuracies()), (3, vec![0.5, 0.75]));
    }

    #[test]
    #[should_panic(expected = "non-empty sample")]
    fn empty_sample_panics() {
        let _ = Outcomes::new(0, 3, |_, _| 0, |_| 0);
    }
}
