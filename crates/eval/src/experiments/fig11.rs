//! Fig. 11: EER under real-world impact factors.
//!
//! * **11a** — replay-attack EER vs. attack volume {65, 75, 85 dB} for
//!   all three methods (paper: full system < 3.2 % at 65/75 dB; the
//!   audio baseline degrades badly at 85 dB, 29.5 % EER).
//! * **11b** — EER by barrier material {wood, glass} × 4 attacks
//!   (paper: all < 4.2 %, similar across materials).
//! * **11c** — EER by barrier-to-VA distance {3, 4, 5 m} × 4 attacks
//!   (paper: < 4.6 %, slightly worse at 5 m).
//! * **11d** — EER by room {A, B, C, D} × 4 attacks (paper: < 5 %;
//!   hidden voice near 0 %).

use crate::experiments::common::scaled;
use crate::report::Row;
use crate::runner::{Runner, RunnerConfig, SelectorChoice};
use crate::scenario::TrialSettings;
use std::sync::Arc;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_attack::AttackKind;
use thrubarrier_defense::segmentation::SegmentSelector;
use thrubarrier_defense::DefenseMethod;

/// Configuration shared by the four Fig. 11 panels.
#[derive(Debug, Clone)]
pub struct ImpactStudyConfig {
    /// Master seed.
    pub seed: u64,
    /// Trial-count scale.
    pub scale: f32,
    /// Segment selector.
    pub selector: SelectorChoice,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ImpactStudyConfig {
    fn default() -> Self {
        ImpactStudyConfig {
            seed: 0xF11,
            scale: 0.05,
            selector: SelectorChoice::Brnn {
                corpus_size: 80,
                epochs: 3,
                hidden: 48,
            },
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// One series of EER values: one attack kind scored by one method.
#[derive(Debug, Clone)]
pub struct EerSeries {
    /// The attack kind scored.
    pub attack: AttackKind,
    /// The method scoring it.
    pub method: DefenseMethod,
    /// `(condition label, EER)` pairs.
    pub points: Vec<(String, f32)>,
}

/// Result of one Fig. 11 panel.
#[derive(Debug, Clone)]
pub struct ImpactPanel {
    /// The `repro` experiment name (`"fig11a"` … `"fig11d"`).
    pub experiment: &'static str,
    /// The series.
    pub series: Vec<EerSeries>,
    /// Legitimate trials scored per condition.
    pub n_legitimate: usize,
    /// Attack trials scored per kind and condition.
    pub n_attacks_per_kind: usize,
    /// Master seed of the run.
    pub seed: u64,
}

impl ImpactPanel {
    /// One `eer` row per series and condition; the row's condition
    /// names the attack kind and the panel's condition.
    pub fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for s in &self.series {
            for (cond, eer) in &s.points {
                let condition = format!("{}, {cond}", s.attack.name());
                rows.push(
                    Row::new(self.experiment, self.seed, condition, s.method.label())
                        .trials(self.n_legitimate, self.n_attacks_per_kind)
                        .metric("eer", *eer),
                );
            }
        }
        rows
    }
}

fn base_runner(
    cfg: &ImpactStudyConfig,
    settings: Vec<TrialSettings>,
    kinds: Vec<AttackKind>,
) -> RunnerConfig {
    RunnerConfig {
        seed: cfg.seed,
        participants: scaled(8, cfg.scale.sqrt()).clamp(4, 20),
        commands_per_user: scaled(60, cfg.scale).max(2),
        attacks_per_kind: scaled(1_200, cfg.scale),
        attack_kinds: kinds,
        settings,
        selector: cfg.selector,
        threads: cfg.threads,
        batch_size: 8,
    }
}

fn all_rooms_settings(f: impl Fn(&mut TrialSettings)) -> Vec<TrialSettings> {
    RoomId::all()
        .into_iter()
        .flat_map(|room| {
            [(1.0, 75.0), (2.0, 70.0), (3.0, 65.0)].map(|(d, spl)| {
                let mut t = TrialSettings {
                    room: Room::paper_room(room),
                    user_to_va_m: d,
                    user_spl_db: spl,
                    ..Default::default()
                };
                f(&mut t);
                t
            })
        })
        .collect()
}

/// Fig. 11a: replay-attack EER vs. attack volume, one series per method.
pub fn run_fig11a(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let conditions = [65.0f32, 75.0, 85.0]
        .into_iter()
        .map(|spl| {
            let settings = all_rooms_settings(|t| t.attack_spl_db = spl);
            (format!("{spl:.0}dB"), settings)
        })
        .collect();
    let series = DefenseMethod::all().map(|m| (AttackKind::Replay, m));
    panel(cfg, selector, "fig11a", &series, conditions)
}

/// Every attack kind scored by the full method (the series of 11b–d).
fn full_per_kind() -> [(AttackKind, DefenseMethod); 4] {
    AttackKind::all().map(|k| (k, DefenseMethod::Full))
}

/// One panel: the EER of each `(attack, method)` series under each
/// named condition.
fn panel(
    cfg: &ImpactStudyConfig,
    selector: Arc<dyn SegmentSelector>,
    experiment: &'static str,
    series: &[(AttackKind, DefenseMethod)],
    conditions: Vec<(String, Vec<TrialSettings>)>,
) -> ImpactPanel {
    let mut kinds: Vec<AttackKind> = series.iter().map(|&(k, _)| k).collect();
    kinds.dedup();
    let mut series: Vec<EerSeries> = series
        .iter()
        .map(|&(attack, method)| EerSeries {
            attack,
            method,
            points: Vec::new(),
        })
        .collect();
    let mut n_legitimate = 0;
    let mut n_attacks_per_kind = 0;
    for (cond, settings) in conditions {
        let runner_cfg = base_runner(cfg, settings, kinds.clone());
        n_attacks_per_kind = runner_cfg.attacks_per_kind;
        let outcome = Runner::new(runner_cfg).run_with_selector(selector.clone(), Vec::new());
        n_legitimate = outcome.pool(DefenseMethod::Full).legitimate.len();
        for s in &mut series {
            let eer = outcome.pool(s.method).metrics_of(s.attack).eer;
            s.points.push((cond.clone(), eer));
        }
    }
    ImpactPanel {
        experiment,
        series,
        n_legitimate,
        n_attacks_per_kind,
        seed: cfg.seed,
    }
}

/// Fig. 11b: EER by barrier material (wood = rooms B, C; glass = rooms
/// A, D).
pub fn run_fig11b(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let wood: Vec<TrialSettings> = all_rooms_settings(|_| {})
        .into_iter()
        .filter(|t| !t.room.barrier.material.is_glass())
        .collect();
    let glass: Vec<TrialSettings> = all_rooms_settings(|_| {})
        .into_iter()
        .filter(|t| t.room.barrier.material.is_glass())
        .collect();
    let conditions = vec![("Wood".into(), wood), ("Glass".into(), glass)];
    panel(cfg, selector, "fig11b", &full_per_kind(), conditions)
}

/// Fig. 11c: EER by barrier-to-VA distance (3, 4, 5 m;
/// barrier-to-wearable fixed at 2 m). The legitimate user stands at the
/// same distance from the VA, reproducing the paper's observation that
/// 5 m slightly degrades the user's own recordings.
pub fn run_fig11c(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let conditions = [3.0f32, 4.0, 5.0]
        .into_iter()
        .map(|d| {
            let settings = all_rooms_settings(|t| {
                t.barrier_to_va_m = d;
                t.barrier_to_wearable_m = 2.0;
                t.user_to_va_m = d - 2.0 + 1.0; // user further when VA is further
            });
            (format!("{d:.0}m"), settings)
        })
        .collect();
    panel(cfg, selector, "fig11c", &full_per_kind(), conditions)
}

/// Fig. 11d: EER by room environment.
pub fn run_fig11d(cfg: &ImpactStudyConfig, selector: Arc<dyn SegmentSelector>) -> ImpactPanel {
    let conditions = RoomId::all()
        .into_iter()
        .map(|room| {
            let settings: Vec<TrialSettings> = all_rooms_settings(|_| {})
                .into_iter()
                .filter(|t| t.room.id == room)
                .collect();
            (room.to_string(), settings)
        })
        .collect();
    panel(cfg, selector, "fig11d", &full_per_kind(), conditions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thrubarrier_defense::segmentation::EnergySelector;

    fn tiny_cfg() -> ImpactStudyConfig {
        ImpactStudyConfig {
            scale: 0.008,
            selector: SelectorChoice::Energy,
            ..Default::default()
        }
    }

    #[test]
    fn fig11a_produces_three_levels_per_method() {
        let cfg = tiny_cfg();
        let panel = run_fig11a(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series.len(), 3);
        for s in &panel.series {
            assert_eq!(s.points.len(), 3);
            assert!(s.points.iter().all(|(_, e)| (0.0..=1.0).contains(e)));
        }
        let rows = panel.rows();
        assert_eq!(rows.len(), 9);
        assert!(rows
            .iter()
            .all(|r| r.experiment == "fig11a" && r.metric == "eer"));
        assert!(rows.iter().any(|r| r.condition == "replay attack, 65dB"));
    }

    #[test]
    fn fig11b_covers_both_materials() {
        let cfg = tiny_cfg();
        let panel = run_fig11b(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series.len(), 4);
        assert_eq!(panel.series[0].points.len(), 2);
    }

    #[test]
    fn fig11d_covers_four_rooms() {
        let cfg = tiny_cfg();
        let panel = run_fig11d(&cfg, Arc::new(EnergySelector::default()));
        assert_eq!(panel.series[0].points.len(), 4);
    }
}
