//! Scoring a trial aligns its recordings once (Eq. 5), however many
//! methods score it: every `dsp::correlate::estimate_delay` call records
//! one `dsp.estimate_delay` span.
//!
//! Span statistics live in the global obs registry and only record in
//! builds with the `thrubarrier-obs/obs` feature, so this file holds a
//! single test that checks nothing in uninstrumented builds.

use thrubarrier_defense::DefenseSystem;
use thrubarrier_eval::runner::score_trial;
use thrubarrier_eval::{Runner, RunnerConfig, TrialContext};

fn delay_estimates() -> u64 {
    thrubarrier_obs::registry()
        .span("dsp.estimate_delay")
        .durations()
        .count()
}

#[test]
fn each_scored_trial_runs_one_delay_estimate() {
    if !thrubarrier_obs::COMPILED {
        return;
    }
    let system = DefenseSystem::paper_default();
    let mut ctx = TrialContext::seeded(11);
    let trial = ctx.legitimate_trial();
    let before = delay_estimates();
    let scores = score_trial(&trial, 12, &system);
    assert!(scores.iter().all(|s| s.is_finite()));
    assert_eq!(delay_estimates() - before, 1, "score_trial");

    let config = RunnerConfig {
        seed: 13,
        participants: 2,
        commands_per_user: 2,
        attacks_per_kind: 3,
        threads: 2,
        batch_size: 2,
        ..Default::default()
    };
    let trials = (config.participants * config.commands_per_user
        + config.attacks_per_kind * config.attack_kinds.len()) as u64;
    let runner = Runner::new(config);
    let (selector, symbols) = runner.build_selector();
    let before = delay_estimates();
    let outcome = runner.run_with_selector(selector, symbols);
    let pool = &outcome.pools[0].1;
    assert_eq!((pool.legitimate.len() + pool.attacks.len()) as u64, trials);
    assert_eq!(delay_estimates() - before, trials, "runner job");
}
