//! Shared helpers for the experiment drivers.

use crate::runner::score_trial;
use crate::scenario::{Trial, TrialSettings};
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_defense::{DefenseMethod, DefenseSystem};

/// The standard evaluation matrix pooled over "different physical
/// settings" (paper Sec. VII-A): all four rooms, three user-to-VA
/// distances, and the three attack sound pressure levels.
pub fn standard_settings() -> Vec<TrialSettings> {
    let mut out = Vec::new();
    for room in RoomId::all() {
        for (user_d, user_spl) in [(1.0, 75.0), (2.0, 70.0), (3.0, 65.0)] {
            for attack_spl in [65.0, 75.0, 85.0] {
                out.push(TrialSettings {
                    room: Room::paper_room(room),
                    user_to_va_m: user_d,
                    user_spl_db: user_spl,
                    attack_spl_db: attack_spl,
                    ..Default::default()
                });
            }
        }
    }
    out
}

/// Scales a trial count by the driver's `scale` knob (minimum 1).
pub fn scaled(base: usize, scale: f32) -> usize {
    ((base as f32 * scale).round() as usize).max(1)
}

/// The full method's score of one trial (see [`score_trial`]).
pub fn full_score(trial: &Trial, seed: u64, system: &DefenseSystem) -> f32 {
    let full = DefenseMethod::all()
        .iter()
        .position(|m| *m == DefenseMethod::Full);
    score_trial(trial, seed, system)[full.expect("full method present")]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_settings_cover_matrix() {
        let s = standard_settings();
        assert_eq!(s.len(), 4 * 3 * 3);
        assert!(s.iter().any(|t| t.room.id == RoomId::D));
        assert!(s.iter().any(|t| t.attack_spl_db == 85.0));
    }

    #[test]
    fn scaled_has_floor_of_one() {
        assert_eq!(scaled(10, 0.01), 1);
        assert_eq!(scaled(10, 2.0), 20);
    }
}
