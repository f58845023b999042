//! Exact order statistics over raw samples (no histogram buckets: a bucket
//! width of a few per cent would use up most of a 10 % bound).

/// Raw samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolated linearly between the two
    /// closest ranks; 0 when there are no samples.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let pos = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] + (self.values[hi] - self.values[lo]) * frac
    }

    /// How many samples lie strictly above the `q`-quantile.
    pub fn beyond(&mut self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|&&v| v > cut).count()
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.5), 2.5);
        assert_eq!(s.beyond(0.5), 2);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn empty_samples_read_zero() {
        let mut s = Samples::default();
        assert_eq!(s.quantile(0.99), 0.0);
        assert_eq!(s.beyond(0.99), 0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
