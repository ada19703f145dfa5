//! Parameter initialization.
//!
//! The paper initializes parameter matrices with Xavier initialization
//! (§4: "Xavier initialized parameter matrices") and fixes seeds to compare
//! arrangements. A key requirement for the Figure-7 parity experiment is
//! **partition-consistent initialization**: a `[h, 4h]` weight initialized
//! on one device must equal the assembly of its `[h/q, 4h/q]` partitions
//! initialized rank-by-rank. We achieve this by always sampling the *global*
//! matrix from the parameter's own forked stream and letting each rank carve
//! out its block; sampling cost is negligible at the scales we train.

use crate::matrix::Matrix;
use crate::rng::Xoshiro256StarStar;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut Xoshiro256StarStar) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::random_uniform(rows, cols, -a, a, rng)
}

/// Samples the global `[rows, cols]` Xavier matrix from the stream forked at
/// `param_id` off `root`, so every rank deterministically reconstructs the
/// same global weight regardless of grid arrangement.
pub fn global_xavier(rows: usize, cols: usize, root_seed: u64, param_id: u64) -> Matrix {
    let mut root = Xoshiro256StarStar::seed_from_u64(root_seed);
    let mut rng = root.fork(param_id);
    xavier_uniform(rows, cols, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_uniform_within_bound() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let m = xavier_uniform(64, 64, &mut rng);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(m.data().iter().all(|&v| v > -a && v < a));
    }

    #[test]
    fn global_xavier_is_reproducible_and_param_dependent() {
        let a = global_xavier(8, 8, 42, 0);
        let b = global_xavier(8, 8, 42, 0);
        let c = global_xavier(8, 8, 42, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
