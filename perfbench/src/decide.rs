//! `decide`: the deployment path as a closed loop with one client. Each
//! decision is one `VaGuard::authorize` call (full method) on a pool
//! trial, with a fresh RNG per decision.

use crate::replica::{self, Defense, Evidence, DEFENSE_LAYERS};
use crate::report::Report;
use crate::setup::{Needs, Setup};
use crate::trace::Tracer;
use crate::{accuracy, run_ops, setup_phase, stats, waterfall_metrics, Args, OpLog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use thrubarrier_defense::segmentation::SegmentSelector;
use thrubarrier_defense::{DefenseMethod, DefenseSystem, VaGuard, Verdict};
use thrubarrier_vibration::Wearable;

/// Pool passes in an untraced run: the first gives the accuracy, the
/// second must reproduce it; 2 × 384 = 768 decisions are enough for a
/// p95 with more than ten samples beyond it.
const PASSES: usize = 2;

fn score_of(v: Verdict) -> f32 {
    match v {
        Verdict::Accept { score } | Verdict::RejectAttack { score } => score,
        Verdict::RejectWearableAbsent => f32::NAN,
    }
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Tracer {
    let (setup, setup_factor) = setup_phase(
        args,
        Needs {
            selector: true,
            pool: true,
        },
        report,
    );
    let detector = setup.selector.clone().expect("decide trains a selector");
    let system = DefenseSystem::with_selector(
        Wearable::fossil_gen_5(),
        Arc::clone(&detector) as Arc<dyn SegmentSelector>,
    );
    replica::assert_mirrorable(&system);
    let defense = Defense {
        system: &system,
        detector: &detector,
    };
    let guard = VaGuard::new(system.clone());
    let pool = &setup.pool;
    let n = pool.len();
    let mut log = OpLog::new(n);
    let mut tracer = Tracer::default();
    let mut evidence = Evidence::default();
    let mut replica_ms = Vec::new();
    let mut mismatches = 0u64;
    let decide = |i: usize| -> (f32, f64) {
        let p = &pool[i % n];
        let mut rng = StdRng::seed_from_u64(p.seed);
        let t = Instant::now();
        let score = catch_unwind(AssertUnwindSafe(|| {
            guard.authorize(
                &p.trial.va_recording,
                Some(&p.trial.wearable_recording),
                &mut rng,
            )
        }))
        .map_or(f32::NAN, score_of);
        (score, t.elapsed().as_secs_f64() * 1e3)
    };
    let min_ops = if args.trace { n } else { PASSES * n };
    let timed = run_ops(min_ops, args.seconds, |i| {
        let p = &pool[i % n];
        let mut replica_run = |tracer: &mut Tracer| {
            let mut rng = StdRng::seed_from_u64(p.seed);
            let t = Instant::now();
            let s = tracer.request(i as u64, "decide", |tr| {
                replica::full(
                    tr,
                    defense,
                    (&p.trial.va_recording, &p.trial.wearable_recording),
                    None,
                    &mut rng,
                    &mut evidence,
                )
            });
            replica_ms.push(t.elapsed().as_secs_f64() * 1e3);
            s
        };
        // Alternate which of the pair runs first so neither side always
        // finds the caches the other left warm.
        let (score, ms) = if args.trace && i % 2 == 1 {
            let r = replica_run(&mut tracer);
            let d = decide(i);
            mismatches += u64::from(r.to_bits() != d.0.to_bits());
            d
        } else {
            let d = decide(i);
            if args.trace {
                let r = replica_run(&mut tracer);
                mismatches += u64::from(r.to_bits() != d.0.to_bits());
            }
            d
        };
        log.record(i, &[score], ms, 1, u64::from(!score.is_finite()));
    });
    let ops = log.ops();
    report.attempted = log.attempted;
    report.failed = log.failed;
    log.check_repeats(report);
    let full: Vec<f32> = log.first_cycle().concat();
    let kinds: Vec<_> = pool.iter().map(|p| p.trial.attack).collect();
    // The audio baseline, scored once per pool trial outside the timed
    // loop, anchors the paper's method ordering.
    let audio: Vec<f32> = pool
        .iter()
        .map(|p| {
            let mut rng = StdRng::seed_from_u64(p.seed);
            system.score_with_method(
                DefenseMethod::AudioBaseline,
                &p.trial.va_recording,
                &p.trial.wearable_recording,
                &mut rng,
            )
        })
        .collect();
    let acc = accuracy::Accuracy::of(&kinds, &full, None, Some(&audio));
    acc.check(report);
    let frame_acc = f64::from(detector.frame_accuracy(&setup.heldout));
    if args.trace {
        report.check(
            "replica scores equal VaGuard::authorize bitwise",
            mismatches == 0,
            format!("{mismatches} of {ops} decisions differ"),
        );
        waterfall_metrics(
            report,
            &tracer,
            &DEFENSE_LAYERS,
            ops as f64,
            stats::mean(&log.latency_ms),
            &log.latency_ms,
            &replica_ms,
            &timed,
        );
        evidence_metrics(report, &evidence);
        setup_metrics(report, &setup, setup_factor);
        acc.metrics(report);
    } else {
        crate::end_to_end(report, &log, &timed, ops as f64, frame_acc);
    }
    report.context_num("frame_acc", frame_acc);
    report.context_num("pool_trials", n as f64);
    tracer
}

/// Useful-work ratios of the full method.
pub fn evidence_metrics(report: &mut Report, e: &Evidence) {
    let scored = e.scored.max(1) as f64;
    report.metric("defense.selected_s", e.selected_s / scored, "s", e.scored);
    report.metric(
        "defense.short_evidence_ratio",
        e.short as f64 / scored,
        "ratio",
        e.scored,
    );
    report.metric(
        "defense.sync_failed_ratio",
        e.sync_failed as f64 / scored,
        "ratio",
        e.scored,
    );
}

/// Set-up phase timings of the traced run's single set-up, scaled to
/// the nominal host by `factor`.
pub fn setup_metrics(report: &mut Report, setup: &Setup, factor: f64) {
    let p = setup.phases;
    report.metric("setup.selection_s", p.selection_s * factor, "s", 1);
    report.metric("setup.corpus_s", p.corpus_s * factor, "s", 1);
    report.metric("setup.train_s", p.train_s * factor, "s", 1);
    report.metric("setup.pool_s", p.pool_s * factor, "s", 1);
}
