//! Composition of a complete acoustic path from a source to a
//! microphone.

use crate::engine::{self, RenderPath};
use crate::loudspeaker::Loudspeaker;
use crate::mic::Microphone;
use crate::propagation::{distance_gain, propagation_delay_samples};
use crate::room::Room;
use rand::Rng;
use thrubarrier_dsp::AudioBuffer;

/// An acoustic path: optional playback device, optional barrier
/// crossing, spreading loss over a distance, room reverberation and
/// ambient noise.
///
/// Legitimate users speak directly (`loudspeaker: None`,
/// `through_barrier: false`); thru-barrier attackers play sound through a
/// loudspeaker behind the room's barrier.
#[derive(Debug, Clone)]
pub struct AcousticPath {
    /// The room the microphone is in.
    pub room: Room,
    /// Whether the sound crosses the room's barrier.
    pub through_barrier: bool,
    /// Total source-to-microphone distance in metres.
    pub distance_m: f32,
    /// Playback device for replayed sounds, if any.
    pub loudspeaker: Option<Loudspeaker>,
    /// Which rendering implementation [`AcousticPath::record`] uses.
    pub render: RenderPath,
}

impl AcousticPath {
    /// A legitimate user speaking inside the room at `distance_m` from
    /// the microphone.
    pub fn direct(room: Room, distance_m: f32) -> Self {
        AcousticPath {
            room,
            through_barrier: false,
            distance_m,
            loudspeaker: None,
            render: RenderPath::default(),
        }
    }

    /// A thru-barrier attack path: loudspeaker behind the barrier,
    /// `distance_m` from barrier to microphone (the paper places the
    /// speaker 10 cm behind the barrier, which we fold into the total).
    pub fn thru_barrier(room: Room, distance_m: f32, loudspeaker: Loudspeaker) -> Self {
        AcousticPath {
            room,
            through_barrier: true,
            distance_m,
            loudspeaker: Some(loudspeaker),
            render: RenderPath::default(),
        }
    }

    /// The same path with an explicit rendering implementation (parity
    /// tests and benches pin [`RenderPath::Staged`]; everything else
    /// keeps the default).
    pub fn with_render(mut self, render: RenderPath) -> Self {
        self.render = render;
        self
    }

    /// The shared linear front of the staged chain: playback device,
    /// barrier, spreading loss and travel delay — everything before the
    /// reverberation stage. Borrows the source straight through when
    /// there is no loudspeaker instead of copying it.
    fn staged_front(&self, source: &[f32], sample_rate: u32) -> Vec<f32> {
        let played;
        let sig: &[f32] = match &self.loudspeaker {
            Some(sp) => {
                played = sp.play(source, sample_rate);
                &played
            }
            None => source,
        };
        let crossed;
        let sig: &[f32] = if self.through_barrier {
            crossed = self.room.barrier.transmit(sig, sample_rate);
            &crossed
        } else {
            sig
        };
        let g = distance_gain(self.distance_m);
        let delay = propagation_delay_samples(self.distance_m, sample_rate);
        let mut delayed = Vec::with_capacity(delay + sig.len());
        delayed.resize(delay, 0.0);
        delayed.extend(sig.iter().map(|&v| v * g));
        delayed
    }

    /// Propagates a source signal along the path (everything except the
    /// microphone's own transduction): playback device, barrier,
    /// spreading loss, travel delay, reverberation.
    pub fn transmit(&self, source: &[f32], sample_rate: u32) -> Vec<f32> {
        let delayed = self.staged_front(source, sample_rate);
        self.room.apply_reverb(&delayed, sample_rate)
    }

    /// Like [`AcousticPath::transmit`] but with position-dependent
    /// (jittered) early reflections.
    pub fn transmit_positioned<R: Rng + ?Sized>(
        &self,
        source: &[f32],
        sample_rate: u32,
        rng: &mut R,
    ) -> Vec<f32> {
        let delayed = self.staged_front(source, sample_rate);
        self.room
            .apply_reverb_positioned(&delayed, sample_rate, rng)
    }

    /// Propagates the source and records it with `mic`, including the
    /// room's ambient noise. Reflections are position-dependent: each
    /// recording device hears its own echo pattern.
    ///
    /// Rendering is dispatched on [`AcousticPath::render`]: the default
    /// fused path runs the whole linear chain in one spectral pass on
    /// the per-thread [`engine::SceneEngine`]; [`RenderPath::Staged`]
    /// keeps the original stage-by-stage chain as the parity oracle.
    pub fn record<R: Rng + ?Sized>(
        &self,
        source: &[f32],
        sample_rate: u32,
        mic: &Microphone,
        rng: &mut R,
    ) -> AudioBuffer {
        engine::with_engine(|e| e.record(self, source, sample_rate, mic, rng))
    }

    /// The staged rendering chain: transmit stage by stage, add ambient
    /// noise, then run the microphone. Kept as the parity oracle for
    /// the fused scene engine — its RNG draw order (reverb jitter,
    /// ambient, mic self-noise) is the contract the fused path matches.
    pub fn record_staged<R: Rng + ?Sized>(
        &self,
        source: &[f32],
        sample_rate: u32,
        mic: &Microphone,
        rng: &mut R,
    ) -> AudioBuffer {
        let mut incident = self.transmit_positioned(source, sample_rate, rng);
        self.room.add_ambient_noise(&mut incident, rng);
        mic.record(&incident, sample_rate, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::room::RoomId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thrubarrier_dsp::{gen, stats};

    fn band_rms(sig: &[f32], fs: f32, lo: f32, hi: f32) -> f32 {
        let filtered = thrubarrier_dsp::response::filter_cached(
            thrubarrier_dsp::response::curve_key(0x5343_4E42, &[lo, hi]),
            sig,
            fs as u32,
            |f| if f >= lo && f < hi { 1.0 } else { 0.0 },
        );
        stats::rms(&filtered)
    }

    #[test]
    fn direct_path_keeps_spectral_balance() {
        let room = Room::paper_room(RoomId::A);
        let path = AcousticPath::direct(room, 2.0);
        let mut src = gen::sine(300.0, 0.5, 16_000, 0.5);
        let high = gen::sine(3_000.0, 0.5, 16_000, 0.5);
        thrubarrier_dsp::gen::mix_into(&mut src, &high);
        let out = path.transmit(&src, 16_000);
        let low_ratio =
            band_rms(&out, 16_000.0, 200.0, 400.0) / band_rms(&src, 16_000.0, 200.0, 400.0);
        let high_ratio =
            band_rms(&out, 16_000.0, 2_800.0, 3_200.0) / band_rms(&src, 16_000.0, 2_800.0, 3_200.0);
        // Both bands lose the same spreading factor.
        assert!((low_ratio - high_ratio).abs() / low_ratio < 0.25);
    }

    #[test]
    fn barrier_path_tilts_spectrum_to_low_frequencies() {
        let room = Room::paper_room(RoomId::A);
        let path = AcousticPath::thru_barrier(room, 2.0, Loudspeaker::sound_bar());
        let mut src = gen::sine(300.0, 0.5, 16_000, 0.5);
        let high = gen::sine(3_000.0, 0.5, 16_000, 0.5);
        thrubarrier_dsp::gen::mix_into(&mut src, &high);
        let out = path.transmit(&src, 16_000);
        let low = band_rms(&out, 16_000.0, 200.0, 400.0);
        let high_b = band_rms(&out, 16_000.0, 2_800.0, 3_200.0);
        assert!(low > 5.0 * high_b, "low {low} vs high {high_b}");
    }

    #[test]
    fn transmit_applies_distance_loss() {
        let room = Room::paper_room(RoomId::B);
        let near = AcousticPath::direct(room.clone(), 1.0);
        let far = AcousticPath::direct(room, 4.0);
        let src = gen::sine(500.0, 0.5, 16_000, 0.25);
        let rn = stats::rms(&near.transmit(&src, 16_000));
        let rf = stats::rms(&far.transmit(&src, 16_000));
        assert!((rn / rf - 4.0).abs() < 0.8, "ratio {}", rn / rf);
    }

    #[test]
    fn recordings_hold_no_transform_padding() {
        let room = Room::paper_room(RoomId::A);
        let src = gen::sine(500.0, 0.3, 16_000, 0.25);
        let mic = Microphone::phone();
        let mut rng = StdRng::seed_from_u64(9);
        for path in [
            AcousticPath::direct(room.clone(), 2.0),
            AcousticPath::thru_barrier(room, 2.0, Loudspeaker::sound_bar()),
        ] {
            let rec = path.record(&src, 16_000, &mic, &mut rng).into_samples();
            assert!(rec.len() > src.len());
            assert_eq!(
                rec.capacity(),
                rec.len(),
                "barrier={}",
                path.through_barrier
            );
        }
    }

    #[test]
    fn record_includes_noise_floor() {
        let room = Room::paper_room(RoomId::C);
        let path = AcousticPath::direct(room, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let rec = path.record(
            &vec![0.0; 8_000],
            16_000,
            &Microphone::far_field_array(),
            &mut rng,
        );
        assert!(rec.rms() > 0.0);
    }

    #[test]
    fn transmit_delays_signal_onset() {
        let room = Room::paper_room(RoomId::A);
        let path = AcousticPath::direct(room, 3.43); // 10 ms
        let mut src = vec![0.0f32; 400];
        src[0] = 1.0;
        let out = path.transmit(&src, 16_000);
        let onset = out.iter().position(|&x| x.abs() > 1e-4).unwrap();
        assert_eq!(onset, 160);
    }
}
