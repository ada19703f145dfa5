//! Result-row structures and text renderers shared by the table binaries.

use tesseract_core::TransformerConfig;
use tesseract_plan::DryRun;

/// One row of a Table-1/Table-2-style result table.
#[derive(Clone, Debug)]
pub struct ResultRow {
    pub parallelization: String,
    pub gpus: usize,
    pub shape: String,
    pub batch: usize,
    pub hidden: usize,
    pub heads: usize,
    pub forward: f64,
    pub backward: f64,
    pub throughput: f64,
    pub inference: f64,
    /// Collective wait hidden under compute by the split-phase pipeline
    /// (seconds, max over ranks; 0 for schemes with blocking collectives).
    pub overlap_hidden: f64,
    /// Annotation (e.g. batch adjusted for divisibility).
    pub note: &'static str,
}

impl ResultRow {
    /// The row of one measured step of `cfg` on `gpus` GPUs. The paper's
    /// rates are sequences per second: throughput through fwd+bwd
    /// (`batch / (forward_s + backward_s)`), inference through the forward
    /// only.
    pub fn measured(
        parallelization: &str,
        gpus: usize,
        shape: String,
        cfg: &TransformerConfig,
        t: &DryRun,
        note: &'static str,
    ) -> Self {
        let batch = cfg.batch as f64;
        ResultRow {
            parallelization: parallelization.into(),
            gpus,
            shape,
            batch: cfg.batch,
            hidden: cfg.hidden,
            heads: cfg.heads,
            forward: t.forward_s,
            backward: t.backward_s,
            throughput: batch / (t.forward_s + t.backward_s),
            inference: batch / t.forward_s,
            overlap_hidden: t.hidden_wait_s,
            note,
        }
    }
}

/// Renders rows in the paper's column layout.
pub fn render_rows(title: &str, rows: &[ResultRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(
        "| parallelization | #GPUs | shape | batch | hidden | heads | fwd time/batch (s) | bwd time/batch (s) | throughput (seq/s) | inference (seq/s) | hidden wait (s) | note |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} |\n",
            r.parallelization,
            r.gpus,
            r.shape,
            r.batch,
            r.hidden,
            r.heads,
            r.forward,
            r.backward,
            r.throughput,
            r.inference,
            r.overlap_hidden,
            r.note,
        ));
    }
    out
}

/// The `dp=d × [q,q,1]` control row of a `[q,q,d]` Tesseract row (`d >
/// 1`): the same GPUs and batch, the depth spelled as data parallelism.
pub fn control_row(
    gpus: usize,
    q: usize,
    d: usize,
    cfg: &TransformerConfig,
    t: &DryRun,
) -> ResultRow {
    let shape = format!("dp={d} × [{q},{q},1]");
    ResultRow::measured("Optimus × dp", gpus, shape, cfg, t, "control for the row above")
}

/// Finds a row by its shape string (for the ratio summaries the paper
/// quotes in §4.1/§4.2).
pub fn row<'a>(rows: &'a [ResultRow], shape: &str) -> &'a ResultRow {
    rows.iter().find(|r| r.shape == shape).unwrap_or_else(|| panic!("no row with shape {shape}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultRow {
        ResultRow {
            parallelization: "Tesseract".into(),
            gpus: 64,
            shape: "[4,4,4]".into(),
            batch: 16,
            hidden: 3072,
            heads: 64,
            forward: 0.0869,
            backward: 0.2636,
            throughput: 2.8531,
            inference: 11.5075,
            overlap_hidden: 0.0123,
            note: "",
        }
    }

    #[test]
    fn render_contains_all_fields() {
        let s = render_rows("Table 1", &[sample()]);
        assert!(s.contains("Table 1"));
        assert!(s.contains("[4,4,4]"));
        assert!(s.contains("0.0869"));
        assert!(s.contains("2.8531"));
        assert!(s.contains("hidden wait (s)"));
        assert!(s.contains("0.0123"));
    }

    #[test]
    fn row_lookup_by_shape() {
        let rows = vec![sample()];
        assert_eq!(row(&rows, "[4,4,4]").gpus, 64);
    }

    #[test]
    #[should_panic(expected = "no row with shape")]
    fn row_lookup_panics_on_missing() {
        let _ = row(&[], "[9,9,9]");
    }
}
