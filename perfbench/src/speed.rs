//! The machine-speed reference that host timings are scaled by.
//!
//! On a shared machine the speed of this process drifts by 10–30 % over
//! seconds to minutes (neighbours contend for cores, caches and memory),
//! which would swamp any change a later commit makes. The untraced run
//! therefore times a fixed, benchmark-owned kernel mix at regular points of
//! its loop — dense 64-wide matrix-vector products (the MLP's instruction
//! mix) and 8-corner gathers over an 8 MiB table (the decode's memory
//! pattern) — and reports each host time at the reference speed:
//! `raw × NOMINAL_MS / t_ref`, where `t_ref` is the median of the
//! [`WINDOW`] reference samples taken nearest to that measurement. The
//! reference never calls program code, so a change to the program moves
//! the scaled times exactly as it moves the raw ones; only the machine's
//! drift cancels. Raw values go to stderr.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::inputs::Rng;
use crate::stats::median;

/// Reference time (ms) the scaled host timings are expressed at: the
/// probe's typical time on the 2-vCPU machine the bounds were set on.
pub const NOMINAL_MS: f64 = 2.3;
/// Reference samples (nearest in time) whose median scales one
/// measurement: about one second of loop time at one sample per 250 ms.
const WINDOW: usize = 5;

const WIDTH: usize = 64;
const LAYERS: usize = 3;
const INPUTS: usize = 40;
const TABLE: usize = 2 << 20;
const GATHERS: usize = 3000;
const CHANNELS: usize = 12;

/// The reference kernels and the times they took.
#[derive(Debug)]
pub struct SpeedProbe {
    weights: Vec<f32>,
    inputs: Vec<[f32; WIDTH]>,
    table: Vec<f32>,
    gathers: Vec<usize>,
    /// `(loop time, reference ms)`, in time order.
    samples: Vec<(Duration, f64)>,
}

impl SpeedProbe {
    /// Builds the fixed inputs (independent of the run's seed).
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5eed, 0);
        let weights = (0..LAYERS * WIDTH * WIDTH).map(|_| rng.unit() * 0.25 - 0.125).collect();
        let inputs = (0..INPUTS).map(|_| std::array::from_fn(|_| rng.unit())).collect();
        let table = (0..TABLE).map(|_| rng.unit()).collect();
        let gathers = (0..GATHERS)
            .map(|_| rng.next_u64() as usize % (TABLE - 8 * WIDTH * CHANNELS))
            .collect();
        Self { weights, inputs, table, gathers, samples: Vec::new() }
    }

    /// Times one pass over the reference kernels, taken at loop time `at`
    /// (not earlier than the previous sample).
    pub fn sample(&mut self, at: Duration) {
        let start = Instant::now();
        let mut acc = 0.0f32;
        for x in &self.inputs {
            let mut h = *x;
            for layer in self.weights.chunks_exact(WIDTH * WIDTH) {
                let mut out = [0.0f32; WIDTH];
                for (o, row) in out.iter_mut().zip(layer.chunks_exact(WIDTH)) {
                    *o = row.iter().zip(&h).fold(0.0f32, |s, (w, v)| w.mul_add(*v, s)).max(0.0);
                }
                h = out;
            }
            acc += h[0];
        }
        let mut blend = [0.0f32; CHANNELS];
        for &base in &self.gathers {
            for corner in 0..8 {
                let at = base + corner * WIDTH * CHANNELS;
                for (b, v) in blend.iter_mut().zip(&self.table[at..at + CHANNELS]) {
                    *b += v * 0.125;
                }
            }
        }
        black_box((acc, blend));
        self.samples.push((at, start.elapsed().as_secs_f64() * 1e3));
    }

    /// How much slower than nominal the machine ran around loop time `at`:
    /// the median of the [`WINDOW`] samples nearest to `at`, over
    /// [`NOMINAL_MS`]. Divide a host time taken at `at` by it; multiply a
    /// rate by it.
    ///
    /// # Panics
    ///
    /// Panics if the probe was never sampled.
    pub fn slowdown_at(&self, at: Duration) -> f64 {
        assert!(!self.samples.is_empty(), "the speed probe was never sampled");
        let n = self.samples.len();
        let after = self.samples.partition_point(|(t, _)| *t < at);
        let first = after.saturating_sub(WINDOW / 2).min(n.saturating_sub(WINDOW));
        let window: Vec<f64> =
            self.samples[first..(first + WINDOW).min(n)].iter().map(|(_, ms)| *ms).collect();
        median(&window) / NOMINAL_MS
    }

    /// The median slowdown over the whole run (reported on stderr).
    pub fn overall(&self) -> f64 {
        median(&self.samples.iter().map(|(_, ms)| *ms).collect::<Vec<_>>()) / NOMINAL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_of_the_nearest_window() {
        let mut p = SpeedProbe::new();
        p.sample(Duration::ZERO);
        assert_eq!(p.samples.len(), 1);
        assert!(p.slowdown_at(Duration::from_secs(9)) > 0.0);
        let ms = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        p.samples =
            ms.iter().enumerate().map(|(i, m)| (Duration::from_secs(i as u64), *m)).collect();
        // Nearest five to t = 5 s are the samples at 3..=7 s.
        assert_eq!(p.slowdown_at(Duration::from_secs(5)), 5.0 / NOMINAL_MS);
        // Windows clamp at both ends of the run.
        assert_eq!(p.slowdown_at(Duration::ZERO), 3.0 / NOMINAL_MS);
        assert_eq!(p.slowdown_at(Duration::from_secs(60)), 7.0 / NOMINAL_MS);
        assert_eq!(p.overall(), 5.5 / NOMINAL_MS);
    }
}
