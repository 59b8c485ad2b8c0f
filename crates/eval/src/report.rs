//! Result serialization: the ROC-curve CSV writer behind `repro --csv`,
//! so external tooling (plots, notebooks) can consume the curves.

use crate::metrics::RocCurve;
use std::io::{self, Write};

/// Writes a ROC curve as CSV (`threshold,fdr,tdr`).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_roc_csv<W: Write>(mut w: W, roc: &RocCurve) -> io::Result<()> {
    writeln!(w, "threshold,fdr,tdr")?;
    for p in &roc.points {
        writeln!(w, "{},{},{}", p.threshold, p.fdr, p.tdr)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roc_csv_has_101_points() {
        let roc = RocCurve::from_scores(&[0.8, 0.9], &[0.1, 0.2]);
        let mut bytes = Vec::new();
        write_roc_csv(&mut bytes, &roc).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 102);
        assert!(text.starts_with("threshold,fdr,tdr"));
    }
}
