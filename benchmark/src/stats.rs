//! Order statistics over timing samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Linear-interpolated quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`; panics on an empty set (a workload that timed
/// nothing has no result to report).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).median
}

pub fn quartiles(samples: &[f64]) -> Quartiles {
    assert!(!samples.is_empty(), "no samples to summarize");
    let s = sorted(samples);
    Quartiles {
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// Nearest-rank percentile (the definition `tesseract_serve::percentile`
/// uses, so virtual-clock latencies reproduce digit for digit).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    tesseract_serve::percentile(&sorted(samples), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }
}
