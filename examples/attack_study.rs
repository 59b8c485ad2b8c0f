//! Reproduces a miniature of the paper's Table I: which commercial VA
//! devices can be woken from behind a barrier, with which attacks?
//!
//! ```sh
//! cargo run --release --example attack_study
//! ```

use thrubarrier::eval::experiments::table1::{run, AttackStudyConfig};
use thrubarrier::eval::report;

fn main() {
    let cfg = AttackStudyConfig {
        attempts: 10,
        ..Default::default()
    };
    let study = run(&cfg);
    println!("{}", report::render(&study.rows()));
    println!(
        "Observations to compare with the paper:\n\
         - smart speakers (far-field mics) trigger far more easily than the iPhone;\n\
         - at 75 dB almost every attack succeeds;\n\
         - Siri devices reject random/synthetic voices (speaker verification)."
    );
}
