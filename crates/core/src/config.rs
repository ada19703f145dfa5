//! Transformer configuration shared by the distributed schemes and the
//! serial reference, matching the notation of paper §3 (batch `b`, sequence
//! `s`, hidden `h`, heads `n`, layers `N`).

use std::fmt;

/// Why a processor arrangement cannot run a workload: the structured form
/// of every divisibility/capacity constraint. Each arrangement states its
/// rule once, as a `Result`-returning method (`GridShape::check`,
/// `MegatronWorld::check_degree`, `HybridShape::micro_config`); the planner
/// reports the value, and the one execution-path site that panics on it
/// (`Transformer::new_with_options`, which builds every stack) formats it
/// with [`fmt::Display`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// A structural parameter (grid side, depth, dp, pp) or a workload
    /// dimension ([`TransformerConfig::check`]) was zero.
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

    /// The workload's own rule, which each arrangement's rule
    /// (`GridShape::check`, `MegatronWorld::check_degree`,
    /// `HybridShape::micro_config`) calls first. Every dimension must be
    /// positive: a zero one divides evenly over any arrangement, yet no
    /// stack can run it, so it is [`ShapeError::NonPositive`], never a
    /// remainder by zero. The heads must split `hidden` evenly.
    pub fn check(&self) -> Result<(), ShapeError> {
        for (what, value) in [
            ("batch", self.batch),
            ("seq", self.seq),
            ("hidden", self.hidden),
            ("heads", self.heads),
            ("mlp ratio", self.mlp_ratio),
            ("layers", self.layers),
        ] {
            if value == 0 {
                return Err(ShapeError::NonPositive { what });
            }
        }
        if !self.hidden.is_multiple_of(self.heads) {
            let (value, divisor) = (self.hidden, self.heads);
            return Err(ShapeError::Indivisible { what: "hidden", value, by: "heads", divisor });
        }
        Ok(())
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
    }

    #[test]
    fn a_zero_dimension_is_non_positive() {
        let tiny = TransformerConfig::tiny();
        assert_eq!(tiny.check(), Ok(()));
        for (cfg, what) in [
            (TransformerConfig { batch: 0, ..tiny }, "batch"),
            (TransformerConfig { seq: 0, ..tiny }, "seq"),
            (TransformerConfig { hidden: 0, ..tiny }, "hidden"),
            (TransformerConfig { heads: 0, ..tiny }, "heads"),
            (TransformerConfig { mlp_ratio: 0, ..tiny }, "mlp ratio"),
            (TransformerConfig { layers: 0, ..tiny }, "layers"),
        ] {
            assert_eq!(cfg.check(), Err(ShapeError::NonPositive { what }));
        }
    }

    #[test]
    fn heads_must_split_hidden() {
        let cfg = TransformerConfig { hidden: 6, heads: 4, ..TransformerConfig::tiny() };
        assert_eq!(cfg.check().unwrap_err().to_string(), "hidden 6 not divisible by heads = 4");
    }

    #[test]
    fn param_count_formula() {
        let c = TransformerConfig::tiny();
        assert_eq!(c.param_count(), 4 * 16 * 16 + 2 * 16 * 64);
    }
}
