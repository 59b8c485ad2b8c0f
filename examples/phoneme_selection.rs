//! Runs the offline barrier-effect-sensitive phoneme selection and
//! prints Table II as rows: the 37 common voice-command phonemes with
//! their counts, the barrier-sensitive ones marked `selected=1` (31 of
//! 37 at the default 24 segments per phoneme; the paper also selects 31
//! and names the weak fricatives /s/, /z/ and the over-loud back vowels
//! /aa/, /ao/ among the rejected).
//!
//! ```sh
//! cargo run --release --example phoneme_selection
//! ```

use thrubarrier::eval::experiments::table2::{run, SelectionStudyConfig};
use thrubarrier::eval::report;

fn main() {
    let study = run(&SelectionStudyConfig::default());
    println!("{}", report::render(&study.rows()));
    // Show the decision evidence for one phoneme of each failure class.
    for sym in ["s", "aa", "er"] {
        let stats = study.selection.stats_for(sym).expect("common phoneme");
        let max_adv = stats.q3_adv[2..31].iter().cloned().fold(f32::MIN, f32::max);
        let min_user = stats.q3_user[2..31]
            .iter()
            .cloned()
            .fold(f32::MAX, f32::min);
        println!(
            "/{sym}/: max Q3 through barrier = {max_adv:.4} (criterion I: < {}), \
             min Q3 without barrier = {min_user:.4} (criterion II: > {})",
            study.selection.alpha, study.selection.alpha
        );
    }
}
