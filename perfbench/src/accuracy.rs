//! Detection accuracy of a scored trial set (Fig. 9 metrics) and the
//! output checks it must pass.

use crate::report::Report;
use thrubarrier_attack::AttackKind;
use thrubarrier_eval::DetectionMetrics;

/// The full method must beat the audio-domain baseline by at least this
/// much AUC (Fig. 9's headline ordering).
const MIN_MARGIN_OVER_AUDIO: f32 = 0.1;

/// Accuracy of one trial set.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Full method AUC against all attacks.
    pub auc_full: f32,
    /// Worst full-method AUC over the four attack kinds.
    pub auc_full_min_kind: f32,
    /// Full method equal error rate.
    pub eer_full: f32,
    /// Vibration-domain baseline AUC, when scored.
    pub auc_vibration: Option<f32>,
    /// Audio-domain baseline AUC, when scored.
    pub auc_audio: Option<f32>,
    /// Legitimate and attack trials.
    pub trials: (usize, usize),
    /// Whether every score was finite.
    pub finite: bool,
}

fn split(kinds: &[Option<AttackKind>], scores: &[f32]) -> (Vec<f32>, Vec<(AttackKind, f32)>) {
    let mut legit = Vec::new();
    let mut attacks = Vec::new();
    for (k, &s) in kinds.iter().zip(scores) {
        match k {
            None => legit.push(s),
            Some(k) => attacks.push((*k, s)),
        }
    }
    (legit, attacks)
}

/// AUC and EER, NaN when either population is empty.
fn metrics(legit: &[f32], attacks: &[f32]) -> (f32, f32) {
    if legit.is_empty() || attacks.is_empty() {
        return (f32::NAN, f32::NAN);
    }
    let m = DetectionMetrics::from_scores(legit, attacks);
    (m.auc, m.eer)
}

fn auc(kinds: &[Option<AttackKind>], scores: &[f32]) -> f32 {
    let (legit, attacks) = split(kinds, scores);
    let attacks: Vec<f32> = attacks.into_iter().map(|(_, s)| s).collect();
    metrics(&legit, &attacks).0
}

impl Accuracy {
    /// Accuracy of trials labelled by `kinds` (`None` = legitimate),
    /// each scored by the full method and optionally by the baselines.
    pub fn of(
        kinds: &[Option<AttackKind>],
        full: &[f32],
        vibration: Option<&[f32]>,
        audio: Option<&[f32]>,
    ) -> Self {
        let (legit, attacks) = split(kinds, full);
        let all: Vec<f32> = attacks.iter().map(|&(_, s)| s).collect();
        let (auc_full, eer_full) = metrics(&legit, &all);
        let auc_full_min_kind = AttackKind::all()
            .into_iter()
            .map(|kind| {
                let of_kind: Vec<f32> = attacks
                    .iter()
                    .filter(|&&(k, _)| k == kind)
                    .map(|&(_, s)| s)
                    .collect();
                metrics(&legit, &of_kind).0
            })
            .fold(f32::INFINITY, |a, b| {
                if a.is_nan() || b.is_nan() {
                    f32::NAN
                } else {
                    a.min(b)
                }
            });
        let finite = full
            .iter()
            .chain(vibration.unwrap_or(&[]))
            .chain(audio.unwrap_or(&[]))
            .all(|s| s.is_finite());
        Accuracy {
            auc_full,
            auc_full_min_kind,
            eer_full,
            auc_vibration: vibration.map(|v| auc(kinds, v)),
            auc_audio: audio.map(|a| auc(kinds, a)),
            trials: (legit.len(), all.len()),
            finite,
        }
    }

    /// Output checks: finite scores, every population present, AUC below
    /// saturation, and the full method clearly ahead of the audio
    /// baseline.
    pub fn check(&self, report: &mut Report) {
        report.check("every score is finite", self.finite, "");
        report.check(
            "legitimate trials and every attack kind were scored",
            !self.auc_full_min_kind.is_nan(),
            format!("{:?} trials", self.trials),
        );
        report.check(
            "auc_full < 1.0",
            self.auc_full < 1.0,
            format!("auc_full {} over {:?} trials", self.auc_full, self.trials),
        );
        if let Some(audio) = self.auc_audio {
            report.check(
                format!("auc_full exceeds auc_audio by at least {MIN_MARGIN_OVER_AUDIO}"),
                self.auc_full >= audio + MIN_MARGIN_OVER_AUDIO,
                format!("auc_full {} auc_audio {audio}", self.auc_full),
            );
        }
        report.context_num("auc_full", f64::from(self.auc_full));
        report.context_num("auc_full_min_kind", f64::from(self.auc_full_min_kind));
        report.context_num("eer_full", f64::from(self.eer_full));
        if let Some(v) = self.auc_vibration {
            report.context_num("auc_vibration", f64::from(v));
        }
        if let Some(a) = self.auc_audio {
            report.context_num("auc_audio", f64::from(a));
        }
    }

    /// The accuracy figures as per-layer metrics of the traced run.
    pub fn metrics(&self, report: &mut Report) {
        let n = (self.trials.0 + self.trials.1) as u64;
        report.metric("quality.auc_full", f64::from(self.auc_full), "ratio", n);
        report.metric(
            "quality.auc_full_min_kind",
            f64::from(self.auc_full_min_kind),
            "ratio",
            n,
        );
        report.metric("quality.eer_full", f64::from(self.eer_full), "ratio", n);
        if let Some(v) = self.auc_vibration {
            report.metric("quality.auc_vibration", f64::from(v), "ratio", n);
        }
        if let Some(a) = self.auc_audio {
            report.metric("quality.auc_audio", f64::from(a), "ratio", n);
        }
    }
}
