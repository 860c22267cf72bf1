//! Order statistics, computed the way Python's `statistics.median` and
//! `statistics.quantiles(values, n=4)` compute them (the driver's method).

/// Median and quartiles of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(mut v: Vec<f64>) -> Self {
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Self::default(),
            1 => Self {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            },
            _ => {
                // The "exclusive" method: quartile i sits at i * (n + 1) / 4.
                let q = |i: usize| {
                    let j = (i * (n + 1) / 4).clamp(1, n - 1);
                    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Self {
                    median: (v[(n - 1) / 2] + v[n / 2]) / 2.0,
                    q1: q(1),
                    q3: q(3),
                    n,
                }
            }
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(vec![7.0]).spread(), 0.0);
    }
}
