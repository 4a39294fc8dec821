//! The §VI narrow-precision experiment: model accuracy vs. BFP mantissa
//! width, measured as tracking error against the f32 golden model.
//!
//! The paper: "we successfully trim mantissas to as low as 2 to 5 bits
//! with negligible impact on accuracy (within 1-2% of baseline)".

use crate::render_table;
use bw_models::accuracy::lstm_precision_sweep;

/// Builds the §VI narrow-precision report: LSTM tracking error against
/// the f32 reference, per BFP mantissa width.
///
/// # Panics
///
/// Panics if a sweep configuration fails to run.
pub fn precision_sweep_report() -> String {
    let mut out = String::new();
    let (hidden, steps) = (48, 8);
    outln!(
        out,
        "Narrow-precision sweep: {hidden}-dim LSTM over {steps} steps, final hidden\n\
         state vs. f32 reference (BFP 1s.5e.<m>m weights & activations,\n\
         float16 secondary ops)\n"
    );
    let points = lstm_precision_sweep(hidden, steps, 8, 11).expect("sweep configurations run");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("1s.5e.{}m", p.mantissa_bits),
                format!("{:.5}", p.stats.rmse),
                format!("{:.5}", p.stats.max_abs_error),
                format!("{:.1}", p.stats.snr_db),
            ]
        })
        .collect();
    outln!(
        out,
        "{}",
        render_table(&["format", "RMSE", "max |err|", "SNR (dB)"], &rows)
    );
    outln!(
        out,
        "The §VI shape: accuracy degrades gracefully down to 2-bit mantissas and\n\
         is effectively lossless by 5 bits — the paper deploys 2-bit formats for\n\
         RNN serving and 5-bit for the CNN featurizer."
    );
    out
}
