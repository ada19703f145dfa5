//! Transformer configuration shared by the distributed schemes and the
//! serial reference, matching the notation of paper §3 (batch `b`, sequence
//! `s`, hidden `h`, heads `n`, layers `N`).

use std::fmt;

/// Why a processor arrangement cannot run a workload: the structured form
/// of every divisibility/capacity constraint the construction paths used to
/// enforce with bare `assert!`s. The planner rejects candidates by matching
/// on these; the legacy panicking entry points format them with [`fmt::Display`]
/// (the rendered text is identical to the old assert messages, so existing
/// `should_panic` expectations keep holding).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// A structural parameter (grid side, depth, dp, pp) was zero.
    NonPositive {
        /// What was zero, e.g. `"grid shape"`.
        what: &'static str,
    },
    /// A workload dimension does not divide evenly over an arrangement
    /// axis: `what = value` must be a multiple of `by = divisor`.
    Indivisible { what: &'static str, value: usize, by: &'static str, divisor: usize },
    /// An arrangement needs a different rank count than is available.
    Capacity { what: String, needed: usize, available: usize },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::NonPositive { what } => write!(f, "{what} must be positive"),
            ShapeError::Indivisible { what, value, by, divisor } => {
                write!(f, "{what} {value} not divisible by {by} = {divisor}")
            }
            ShapeError::Capacity { what, needed, available } => {
                write!(f, "{what} needs {needed} ranks but {available} are available")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// Hyperparameters of one Transformer stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransformerConfig {
    /// Global batch size `b`.
    pub batch: usize,
    /// Sequence length `s`.
    pub seq: usize,
    /// Hidden size `h`.
    pub hidden: usize,
    /// Number of attention heads `n`; must divide `hidden`.
    pub heads: usize,
    /// MLP expansion factor (paper: 4, i.e. `[h, 4h]` and `[4h, h]`).
    pub mlp_ratio: usize,
    /// Number of Transformer layers `N`.
    pub layers: usize,
    /// Layer-norm epsilon.
    pub eps: f32,
}

impl TransformerConfig {
    /// A small configuration for tests: everything divisible by 4.
    pub fn tiny() -> Self {
        Self { batch: 4, seq: 4, hidden: 16, heads: 4, mlp_ratio: 4, layers: 1, eps: 1e-5 }
    }

    /// Head dimension `h / n`.
    pub fn head_dim(&self) -> usize {
        assert_eq!(self.hidden % self.heads, 0, "heads must divide hidden");
        self.hidden / self.heads
    }

    /// Total rows of the flattened `[b·s, h]` activation matrix.
    pub fn rows(&self) -> usize {
        self.batch * self.seq
    }

    /// MLP intermediate width `4h`.
    pub fn mlp_hidden(&self) -> usize {
        self.hidden * self.mlp_ratio
    }

    /// Checks divisibility for a `[q, q, d]` arrangement: `q·d | b`
    /// (whole samples per rank), `q | n` (whole heads per rank) and
    /// `q | h/n`-free constraints via `q | h` and `q | 4h`. Returns the
    /// first violated constraint so planners can reject candidates without
    /// unwinding.
    pub fn check_for_grid(&self, q: usize, d: usize) -> Result<(), ShapeError> {
        if self.batch % (q * d) != 0 {
            return Err(ShapeError::Indivisible {
                what: "batch",
                value: self.batch,
                by: "q*d",
                divisor: q * d,
            });
        }
        if self.heads % q != 0 {
            return Err(ShapeError::Indivisible {
                what: "heads",
                value: self.heads,
                by: "q",
                divisor: q,
            });
        }
        if self.hidden % q != 0 {
            return Err(ShapeError::Indivisible {
                what: "hidden",
                value: self.hidden,
                by: "q",
                divisor: q,
            });
        }
        if self.mlp_hidden() % q != 0 {
            return Err(ShapeError::Indivisible {
                what: "mlp hidden",
                value: self.mlp_hidden(),
                by: "q",
                divisor: q,
            });
        }
        Ok(())
    }

    /// Panicking form of [`TransformerConfig::check_for_grid`] for the
    /// execution paths, where an infeasible arrangement is a caller bug.
    pub fn validate_for_grid(&self, q: usize, d: usize) {
        if let Err(e) = self.check_for_grid(q, d) {
            panic!("{e}");
        }
    }

    /// Approximate parameter count of the stack (weights only).
    pub fn param_count(&self) -> usize {
        let attn = 3 * self.hidden * self.hidden + self.hidden * self.hidden;
        let mlp = 2 * self.hidden * self.mlp_hidden();
        self.layers * (attn + mlp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_is_consistent() {
        let c = TransformerConfig::tiny();
        assert_eq!(c.head_dim(), 4);
        assert_eq!(c.rows(), 16);
        assert_eq!(c.mlp_hidden(), 64);
        c.validate_for_grid(2, 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn validation_catches_bad_batch() {
        let c = TransformerConfig { batch: 3, ..TransformerConfig::tiny() };
        c.validate_for_grid(2, 2);
    }

    #[test]
    fn param_count_formula() {
        let c = TransformerConfig::tiny();
        assert_eq!(c.param_count(), 4 * 16 * 16 + 2 * 16 * 64);
    }

    #[test]
    fn check_for_grid_reports_the_violated_constraint() {
        let c = TransformerConfig { batch: 3, ..TransformerConfig::tiny() };
        assert_eq!(
            c.check_for_grid(2, 2).unwrap_err().to_string(),
            "batch 3 not divisible by q*d = 4"
        );
        let c = TransformerConfig { batch: 8, heads: 2, hidden: 16, ..TransformerConfig::tiny() };
        assert_eq!(
            c.check_for_grid(4, 2).unwrap_err().to_string(),
            "heads 2 not divisible by q = 4"
        );
        let c = TransformerConfig { batch: 8, hidden: 18, ..TransformerConfig::tiny() };
        assert_eq!(
            c.check_for_grid(4, 1).unwrap_err().to_string(),
            "hidden 18 not divisible by q = 4"
        );
        assert_eq!(TransformerConfig::tiny().check_for_grid(2, 2), Ok(()));
    }
}
