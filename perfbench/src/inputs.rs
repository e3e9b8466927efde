//! Seeded input generation: cameras, orbits and serve traces.
//!
//! Inputs are pure functions of `(seed, stream, index)` through SplitMix64,
//! so the same seed gives the same inputs on every run and machine, and the
//! program under test only ever receives the generated cameras and traces.

use std::f32::consts::TAU;

use spnerf::render::camera::PinholeCamera;
use spnerf::render::vec3::Vec3;
use spnerf::trajectory::{PathKind, TrajectorySpec};
use spnerf_serve::traffic::{Trace, TrafficConfig};

/// Radius of the orbit shell every generated camera sits on (the
/// repository's `default_camera` ring).
const ORBIT_RADIUS: f32 = 2.8;
/// Elevation of the standard orbit ring, radians.
const ORBIT_ELEVATION: f32 = 0.45;
/// Azimuth advanced per orbit frame, radians (`TrajectorySpec::orbit`'s step).
const ORBIT_STEP: f32 = 0.045;

/// SplitMix64: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 random bits (exact in `f32`).
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Input streams, one per kind of generated input.
pub mod stream {
    /// Still cameras of the measured loop.
    pub const STILLS: u64 = 1;
    /// Warm-up cameras (rendered before timing, never measured).
    pub const WARMUP: u64 = 2;
    /// Orbit start azimuths.
    pub const ORBITS: u64 = 3;
    /// Serve traffic seeds.
    pub const TRACES: u64 = 4;
    /// Probe inputs of the traced run.
    pub const PROBE: u64 = 5;
}

/// A square camera on the orbit shell looking at the origin: azimuth
/// uniform over the full turn, elevation uniform in `[0.2, 0.7]` rad (clear
/// of the pole, where the look-at frame degenerates).
pub fn shell_camera(rng: &mut Rng, px: u32) -> PinholeCamera {
    let azimuth = rng.unit() * TAU;
    let elevation = 0.2 + 0.5 * rng.unit();
    let eye = Vec3::new(
        ORBIT_RADIUS * elevation.cos() * azimuth.cos(),
        ORBIT_RADIUS * elevation.sin(),
        ORBIT_RADIUS * elevation.cos() * azimuth.sin(),
    );
    PinholeCamera::look_at(px, px, px as f32 * 1.1, eye, Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0))
}

/// An orbit of `frames` frames on the standard ring, starting at a random
/// azimuth and advancing [`ORBIT_STEP`] per frame.
pub fn orbit_spec(rng: &mut Rng, frames: usize, px: u32) -> TrajectorySpec {
    let start_azimuth = rng.unit() * TAU;
    let sweep = ORBIT_STEP * frames.saturating_sub(1) as f32;
    TrajectorySpec::new(
        PathKind::Orbit { radius: ORBIT_RADIUS, elevation: ORBIT_ELEVATION, start_azimuth, sweep },
        frames,
        px,
        px,
    )
}

/// The serve trace of one operation: 5 scenes, 4 tenants, 8 views, Zipf
/// s = 1.1 popularity and Poisson arrivals with a mean gap of 24 ticks over
/// 4000 ticks, under a trace seed drawn from `rng`.
pub fn serve_trace(rng: &mut Rng) -> (TrafficConfig, Trace) {
    let cfg = TrafficConfig {
        seed: rng.next_u64(),
        duration_ticks: 4000,
        scenes: 5,
        tenants: 4,
        views: 8,
        zipf_s: 1.1,
        mean_interarrival: 24,
    };
    (cfg, Trace::synthesize(&cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        let mut a = Rng::new(7, stream::STILLS);
        let mut b = Rng::new(7, stream::STILLS);
        for _ in 0..4 {
            assert_eq!(shell_camera(&mut a, 8), shell_camera(&mut b, 8));
        }
        let mut c = Rng::new(8, stream::STILLS);
        assert_ne!(shell_camera(&mut Rng::new(7, stream::STILLS), 8), shell_camera(&mut c, 8));
        assert_ne!(Rng::new(7, stream::STILLS).next_u64(), Rng::new(7, stream::ORBITS).next_u64());
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut r = Rng::new(0, 0);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn traces_are_seeded_and_valid() {
        let (cfg, trace) = serve_trace(&mut Rng::new(1, stream::TRACES));
        let (_, again) = serve_trace(&mut Rng::new(1, stream::TRACES));
        assert_eq!(trace, again);
        assert!(!trace.requests.is_empty());
        assert!(trace.requests.iter().all(|r| r.tick <= cfg.duration_ticks && r.scene < 5));
    }
}
