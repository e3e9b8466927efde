//! Deterministic synthetic traffic: Zipf scene popularity, Poisson
//! arrivals, and a text replay format.
//!
//! A trace is the complete input of a serve run — every request's virtual
//! arrival tick, tenant, scene, and view. [`Trace::synthesize`] draws one
//! from the seeded rand shim (the only randomness in the crate, consumed
//! before the simulation starts), and the replay format round-trips it to
//! a text file so CI and bug reports can replay the exact same load:
//!
//! ```text
//! spnerf-serve-trace v1
//! scenes 5 tenants 4 views 8
//! 0 2 1 3        <- tick tenant scene view, ticks nondecreasing
//! 4 0 0 6
//! 9 1 0 2 4      <- optional 5th field: a 4-frame trajectory request
//! ```
//!
//! Scene popularity is Zipf(`s`): scene `i` is requested with weight
//! `1/(i+1)^s`, so a larger exponent concentrates load on the head scenes
//! (the regime where an LRU scene cache pays off). Arrivals are Poisson:
//! inter-arrival gaps are drawn from the exponential distribution with the
//! configured mean, quantized to whole ticks (gap 0 = a same-tick burst).
//! Tenants and views are uniform.
//!
//! Every [`TRAJECTORY_EVERY`]-th synthesized request (by sequence number)
//! asks for a short camera trajectory instead of a still — a pure function
//! of `seq`, never an RNG draw, so the still fields of a synthesized trace
//! are byte-identical to what the same seed produced before trajectory
//! requests existed. In the replay format a trajectory request carries its
//! frame count (2 to [`MAX_REPLAY_FRAMES`]) as an optional 5th field; plain
//! 4-field rows stay stills, so v1 replay files written before the field
//! existed parse unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::Ticks;

/// Every `TRAJECTORY_EVERY`-th synthesized request is a trajectory request
/// (seqs 4, 9, 14, ... — derived from `seq`, never drawn from the RNG).
pub const TRAJECTORY_EVERY: u64 = 5;

/// Frame count of synthesized trajectory requests.
pub const TRAJECTORY_FRAMES: usize = 4;

/// Largest trajectory frame count a replay row may carry.
///
/// A trajectory request renders (and charges service ticks for) every
/// frame, so the replay's 5th field sizes a render loop; an unbounded count
/// lets a one-line trace stall the service. 64 frames is 16x the
/// synthesized [`TRAJECTORY_FRAMES`].
pub const MAX_REPLAY_FRAMES: usize = 64;

/// Largest catalog a trace may declare (`scenes`). The run sizes its
/// catalog and per-scene queues by it; 1024 is ~200x the default 5-scene
/// catalog.
pub const MAX_SCENES: usize = 1024;

/// Largest tenant count a trace may declare (`tenants`). The run sizes its
/// per-tenant books and the report by it.
pub const MAX_TENANTS: usize = 1024;

/// Largest orbit view count a trace may declare (`views`).
pub const MAX_VIEWS: usize = 1024;

/// Longest synthetic arrival horizon (`--duration-ticks`). Synthesis
/// draws one request per mean inter-arrival gap up to the horizon, so the
/// horizon sizes the trace; 1 000 000 ticks is 250x the default 4000 and
/// ~42 000 requests at the default 24-tick gap.
pub const MAX_DURATION_TICKS: Ticks = 1_000_000;

/// What a request asks the engine to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestKind {
    /// One frame at the request's orbit view.
    #[default]
    Still,
    /// A short deterministic orbit of `frames` frames starting at the
    /// request's view, rendered with frame-to-frame reuse on the server.
    Trajectory {
        /// Frames along the path, at least 2.
        frames: usize,
    },
}

impl RequestKind {
    /// Frames this request renders (1 for a still).
    pub fn frames(&self) -> usize {
        match self {
            RequestKind::Still => 1,
            RequestKind::Trajectory { frames } => *frames,
        }
    }

    /// The kind [`Trace::synthesize`] assigns to sequence number `seq` — a
    /// pure function of `seq` so synthesis never spends an RNG draw on it.
    pub fn synthesized(seq: u64) -> Self {
        if seq % TRAJECTORY_EVERY == TRAJECTORY_EVERY - 1 {
            RequestKind::Trajectory { frames: TRAJECTORY_FRAMES }
        } else {
            RequestKind::Still
        }
    }
}

/// One camera request: who asks for what, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Virtual arrival tick.
    pub tick: Ticks,
    /// Global arrival sequence number (0-based trace order; unique, so
    /// `(tick, seq)` totally orders requests).
    pub seq: u64,
    /// The requesting tenant, `0..tenants`.
    pub tenant: usize,
    /// Catalog scene index, `0..scenes`.
    pub scene: usize,
    /// Orbit view index, `0..views`.
    pub view: usize,
    /// Still frame or short trajectory.
    pub kind: RequestKind,
}

/// Knobs of [`Trace::synthesize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// RNG seed; equal seeds give equal traces, bit for bit.
    pub seed: u64,
    /// Arrivals stop after this tick (the service may run longer to drain).
    pub duration_ticks: Ticks,
    /// Catalog size requests are drawn over.
    pub scenes: usize,
    /// Tenant count (uniform).
    pub tenants: usize,
    /// Views per scene (uniform).
    pub views: usize,
    /// Zipf popularity exponent; `0` is uniform.
    pub zipf_s: f64,
    /// Mean inter-arrival gap in ticks.
    pub mean_interarrival: Ticks,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            duration_ticks: 4000,
            scenes: 5,
            tenants: 4,
            views: 8,
            zipf_s: 1.1,
            mean_interarrival: 24,
        }
    }
}

impl TrafficConfig {
    /// Checks every field, panicking with the offending field's name —
    /// `scenes: 0` used to surface as an index-out-of-bounds deep inside
    /// the Zipf CDF, which named neither the field nor the fix.
    ///
    /// # Panics
    ///
    /// Panics if `scenes`, `tenants`, or `views` is zero or above
    /// [`MAX_SCENES`] / [`MAX_TENANTS`] / [`MAX_VIEWS`], if
    /// `duration_ticks` is above [`MAX_DURATION_TICKS`], if
    /// `mean_interarrival` is zero, or if `zipf_s` is negative or
    /// non-finite.
    pub fn validate(&self) {
        for (name, n, max) in [
            ("scenes", self.scenes, MAX_SCENES),
            ("tenants", self.tenants, MAX_TENANTS),
            ("views", self.views, MAX_VIEWS),
        ] {
            assert!(n >= 1, "TrafficConfig::{name} must be at least 1, got {n}");
            assert!(n <= max, "TrafficConfig::{name} must be at most {max}, got {n}");
        }
        assert!(
            self.duration_ticks <= MAX_DURATION_TICKS,
            "TrafficConfig::duration_ticks must be at most {MAX_DURATION_TICKS}, got {}",
            self.duration_ticks
        );
        assert!(
            self.mean_interarrival >= 1,
            "TrafficConfig::mean_interarrival must be at least 1 tick, got {}",
            self.mean_interarrival
        );
        assert!(
            self.zipf_s.is_finite() && self.zipf_s >= 0.0,
            "TrafficConfig::zipf_s must be finite and >= 0, got {}",
            self.zipf_s
        );
    }
}

/// A complete, ordered request trace plus the catalog bounds it was drawn
/// over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Catalog size every `Request::scene` is below.
    pub scenes: usize,
    /// Tenant count every `Request::tenant` is below.
    pub tenants: usize,
    /// View count every `Request::view` is below.
    pub views: usize,
    /// Requests in arrival order (`tick` nondecreasing, `seq` = index).
    pub requests: Vec<Request>,
}

/// Replay file magic line (`v1` is the format version).
const REPLAY_HEADER: &str = "spnerf-serve-trace v1";

impl Trace {
    /// Draws a trace from the config's seed. Pure: equal configs give
    /// equal traces.
    ///
    /// # Panics
    ///
    /// Panics via [`TrafficConfig::validate`] — with the offending field's
    /// name — if any count is zero or above its bound, the horizon is above
    /// [`MAX_DURATION_TICKS`], `mean_interarrival` is zero, or `zipf_s` is
    /// negative or non-finite.
    pub fn synthesize(cfg: &TrafficConfig) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let zipf_cdf = zipf_cdf(cfg.scenes, cfg.zipf_s);
        let mut requests = Vec::new();
        let mut tick: Ticks = 0;
        loop {
            // Exponential gap, quantized to whole ticks; `u < 1` keeps the
            // log argument positive. Gap 0 models a same-tick burst.
            let u: f64 = rng.gen();
            tick += (-(1.0 - u).ln() * cfg.mean_interarrival as f64).floor() as Ticks;
            if tick > cfg.duration_ticks {
                break;
            }
            let seq = requests.len() as u64;
            requests.push(Request {
                tick,
                seq,
                tenant: rng.gen_range(0..cfg.tenants),
                scene: sample_cdf(&zipf_cdf, rng.gen()),
                view: rng.gen_range(0..cfg.views),
                // Derived from seq, not drawn: the RNG stream (and so every
                // other field) matches pre-trajectory traces bit for bit.
                kind: RequestKind::synthesized(seq),
            });
        }
        Self { scenes: cfg.scenes, tenants: cfg.tenants, views: cfg.views, requests }
    }

    /// Serializes to the replay text format ([`Trace::parse_replay`]'s
    /// inverse; `parse_replay(&t.to_replay()) == Ok(t)`).
    pub fn to_replay(&self) -> String {
        let mut out = String::new();
        out.push_str(REPLAY_HEADER);
        out.push('\n');
        out.push_str(&format!(
            "scenes {} tenants {} views {}\n",
            self.scenes, self.tenants, self.views
        ));
        for r in &self.requests {
            match r.kind {
                RequestKind::Still => {
                    out.push_str(&format!("{} {} {} {}\n", r.tick, r.tenant, r.scene, r.view));
                }
                RequestKind::Trajectory { frames } => {
                    out.push_str(&format!(
                        "{} {} {} {} {frames}\n",
                        r.tick, r.tenant, r.scene, r.view
                    ));
                }
            }
        }
        out
    }

    /// Parses the replay text format, strictly: wrong magic, malformed
    /// rows, out-of-bounds fields, counts above [`MAX_SCENES`] /
    /// [`MAX_TENANTS`] / [`MAX_VIEWS`] / [`MAX_REPLAY_FRAMES`], or ticks
    /// running backwards are errors (never silently skipped — a truncated
    /// replay must not "work").
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse_replay(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim_end() == REPLAY_HEADER => {}
            other => {
                return Err(format!(
                    "replay must start with `{REPLAY_HEADER}`, got {:?}",
                    other.unwrap_or("<empty file>")
                ))
            }
        }
        let bounds = lines.next().ok_or("replay missing the bounds line".to_string())?;
        let b: Vec<&str> = bounds.split_whitespace().collect();
        let bound = |i: usize, name: &str, max: usize| -> Result<usize, String> {
            if b.len() != 6 || b[i * 2] != name {
                return Err(format!(
                    "line 2: bounds line must be `scenes N tenants N views N`: {bounds:?}"
                ));
            }
            match b[i * 2 + 1].parse::<usize>() {
                Ok(n) if n > max => {
                    Err(format!("line 2: {name} count may be at most {max}, got {n}"))
                }
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("line 2: {name} count must be a positive integer: {bounds:?}")),
            }
        };
        let (scenes, tenants, views) = (
            bound(0, "scenes", MAX_SCENES)?,
            bound(1, "tenants", MAX_TENANTS)?,
            bound(2, "views", MAX_VIEWS)?,
        );

        let mut requests = Vec::new();
        let mut last_tick: Ticks = 0;
        for (lineno, line) in lines.enumerate() {
            let lineno = lineno + 3; // 1-based, after the two header lines
            if line.trim().is_empty() {
                return Err(format!("line {lineno}: blank lines are not allowed"));
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 4 && fields.len() != 5 {
                return Err(format!(
                    "line {lineno}: expected `tick tenant scene view [frames]`: {line:?}"
                ));
            }
            let int = |f: &str, what: &str| -> Result<u64, String> {
                f.parse::<u64>().map_err(|_| format!("line {lineno}: bad {what} `{f}`"))
            };
            let tick = int(fields[0], "tick")?;
            let tenant = int(fields[1], "tenant")? as usize;
            let scene = int(fields[2], "scene")? as usize;
            let view = int(fields[3], "view")? as usize;
            // The optional 5th field is a trajectory frame count; a
            // 4-field row is a still, so pre-trajectory replays parse
            // unchanged.
            let kind = match fields.get(4) {
                None => RequestKind::Still,
                Some(f) => match int(f, "frame count")? {
                    frames if frames < 2 => {
                        return Err(format!(
                            "line {lineno}: a trajectory needs at least 2 frames, got {frames} \
                             (drop the field for a still)"
                        ))
                    }
                    frames if frames > MAX_REPLAY_FRAMES as u64 => {
                        return Err(format!(
                            "line {lineno}: a trajectory may have at most \
                             {MAX_REPLAY_FRAMES} frames, got {frames}"
                        ))
                    }
                    frames => RequestKind::Trajectory { frames: frames as usize },
                },
            };
            if tick < last_tick {
                return Err(format!("line {lineno}: tick {tick} runs backwards (< {last_tick})"));
            }
            if tenant >= tenants || scene >= scenes || view >= views {
                return Err(format!("line {lineno}: field out of bounds: {line:?}"));
            }
            last_tick = tick;
            requests.push(Request { tick, seq: requests.len() as u64, tenant, scene, view, kind });
        }
        Ok(Self { scenes, tenants, views, requests })
    }
}

/// The cumulative Zipf(`s`) distribution over `n` ranks, normalized to end
/// at exactly 1. A distribution over zero ranks does not exist, and the
/// `cdf[n - 1]` pin below would otherwise turn `n == 0` into an opaque
/// index-out-of-bounds; [`TrafficConfig::validate`] rejects it upstream
/// with the field name, this assert keeps the helper safe on its own.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    assert!(n >= 1, "zipf_cdf requires at least one rank, got n = 0");
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    cdf[n - 1] = 1.0;
    cdf
}

/// Inverts a CDF at `u ∈ [0, 1)`: the first rank whose cumulative weight
/// exceeds `u`.
fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_and_ordered() {
        let cfg = TrafficConfig::default();
        let a = Trace::synthesize(&cfg);
        let b = Trace::synthesize(&cfg);
        assert_eq!(a, b, "equal configs must give equal traces");
        assert!(!a.requests.is_empty());
        for w in a.requests.windows(2) {
            assert!(w[0].tick <= w[1].tick, "ticks must be nondecreasing");
            assert_eq!(w[0].seq + 1, w[1].seq);
        }
        for r in &a.requests {
            assert!(r.tenant < cfg.tenants && r.scene < cfg.scenes && r.view < cfg.views);
            assert!(r.tick <= cfg.duration_ticks);
            // Trajectory requests are a pure function of seq.
            assert_eq!(r.kind, RequestKind::synthesized(r.seq));
        }
        assert!(
            a.requests.iter().any(|r| r.kind != RequestKind::Still),
            "the default trace must include trajectory requests"
        );
        let c = Trace::synthesize(&TrafficConfig { seed: 43, ..cfg });
        assert_ne!(a, c, "different seeds must move the traffic");
    }

    #[test]
    fn trajectory_kind_cadence_never_consumes_rng() {
        assert_eq!(RequestKind::synthesized(0), RequestKind::Still);
        assert_eq!(
            RequestKind::synthesized(TRAJECTORY_EVERY - 1),
            RequestKind::Trajectory { frames: TRAJECTORY_FRAMES }
        );
        assert_eq!(RequestKind::Still.frames(), 1);
        assert_eq!(RequestKind::Trajectory { frames: 6 }.frames(), 6);
        // The trajectory cadence by seq, with every other field drawn from
        // the same RNG stream as always: the seed-42 head tick/tenant
        // values are pinned so an accidental extra RNG draw (which would
        // silently reshuffle every pre-trajectory trace) fails loudly.
        let a = Trace::synthesize(&TrafficConfig::default());
        let head: Vec<(Ticks, usize)> =
            a.requests.iter().take(4).map(|r| (r.tick, r.tenant)).collect();
        assert_eq!(head, [(40, 1), (77, 1), (82, 0), (109, 1)], "RNG stream moved");
    }

    #[test]
    fn zipf_skews_toward_head_scenes() {
        let skewed = Trace::synthesize(&TrafficConfig {
            zipf_s: 1.4,
            duration_ticks: 50_000,
            mean_interarrival: 5,
            ..Default::default()
        });
        let mut counts = vec![0usize; skewed.scenes];
        for r in &skewed.requests {
            counts[r.scene] += 1;
        }
        assert!(
            counts[0] > 2 * counts[4],
            "scene 0 must dominate the tail under s=1.4: {counts:?}"
        );
        // s = 0 is uniform: no scene should dominate.
        let uniform = Trace::synthesize(&TrafficConfig {
            zipf_s: 0.0,
            duration_ticks: 50_000,
            mean_interarrival: 5,
            ..Default::default()
        });
        let mut u = vec![0usize; uniform.scenes];
        for r in &uniform.requests {
            u[r.scene] += 1;
        }
        let (min, max) = (u.iter().min().unwrap(), u.iter().max().unwrap());
        assert!(*max < 2 * *min, "uniform draw must stay balanced: {u:?}");
    }

    #[test]
    fn replay_round_trips_bit_for_bit() {
        let trace = Trace::synthesize(&TrafficConfig::default());
        let text = trace.to_replay();
        let back = Trace::parse_replay(&text).expect("own output must parse");
        assert_eq!(back, trace);
        assert_eq!(back.to_replay(), text, "serialization must be canonical");
    }

    #[test]
    fn parse_rejects_malformed_replays() {
        let ok = Trace::synthesize(&TrafficConfig::default()).to_replay();
        for (mutation, why) in
            [("other-header v1", "wrong magic"), ("spnerf-serve-trace v2", "wrong version")]
        {
            let bad = ok.replacen(REPLAY_HEADER, mutation, 1);
            assert!(Trace::parse_replay(&bad).is_err(), "{why} must be rejected");
        }
        assert!(Trace::parse_replay("").is_err());
        assert!(Trace::parse_replay(REPLAY_HEADER).is_err(), "missing bounds line");

        let head = format!("{REPLAY_HEADER}\nscenes 2 tenants 2 views 2\n");
        assert!(Trace::parse_replay(&format!("{head}0 0 0\n")).is_err(), "short row");
        assert!(Trace::parse_replay(&format!("{head}0 0 0 0 4 9\n")).is_err(), "long row");
        assert!(Trace::parse_replay(&format!("{head}0 0 0 0 1\n")).is_err(), "1-frame path");
        assert!(Trace::parse_replay(&format!("{head}0 0 0 0 0\n")).is_err(), "0-frame path");
        assert!(Trace::parse_replay(&format!("{head}0 0 0 0 x\n")).is_err(), "bad frame count");
        assert!(Trace::parse_replay(&format!("{head}0 0 2 0\n")).is_err(), "scene out of bounds");
        assert!(Trace::parse_replay(&format!("{head}0 2 0 0\n")).is_err(), "tenant out of bounds");
        assert!(Trace::parse_replay(&format!("{head}0 0 0 2\n")).is_err(), "view out of bounds");
        assert!(Trace::parse_replay(&format!("{head}5 0 0 0\n3 0 0 0\n")).is_err(), "time travel");
        assert!(Trace::parse_replay(&format!("{head}x 0 0 0\n")).is_err(), "non-integer tick");
        assert!(Trace::parse_replay(&format!("{head}\n0 0 0 0\n")).is_err(), "blank line");
        assert!(
            Trace::parse_replay(&format!("{REPLAY_HEADER}\nscenes 0 tenants 2 views 2\n")).is_err(),
            "zero scene count"
        );

        // An empty request list with valid headers is a valid (idle) trace.
        let idle = Trace::parse_replay(&head).unwrap();
        assert!(idle.requests.is_empty());
        assert_eq!((idle.scenes, idle.tenants, idle.views), (2, 2, 2));
    }

    #[test]
    fn frame_counts_above_the_bound_are_rejected_with_their_line() {
        let head = format!("{REPLAY_HEADER}\nscenes 1 tenants 1 views 1\n");
        let err = Trace::parse_replay(&format!("{head}0 0 0 0 100000\n")).unwrap_err();
        assert!(err.starts_with("line 3: "), "error must name the row: {err}");
        assert!(err.contains(&MAX_REPLAY_FRAMES.to_string()), "error must name the bound: {err}");
        // Overflowing counts fail as malformed integers, never as a wrap.
        assert!(Trace::parse_replay(&format!("{head}0 0 0 0 99999999999999999999\n")).is_err());
        let at_bound = format!("{head}0 0 0 0 {MAX_REPLAY_FRAMES}\n");
        let trace = Trace::parse_replay(&at_bound).expect("the bound itself is accepted");
        assert_eq!(trace.requests[0].kind, RequestKind::Trajectory { frames: MAX_REPLAY_FRAMES });
        let past = format!("{head}0 0 0 0\n1 0 0 0 {}\n", MAX_REPLAY_FRAMES + 1);
        let err = Trace::parse_replay(&past).unwrap_err();
        assert!(err.starts_with("line 4: "), "{err}");
    }

    #[test]
    fn header_counts_above_their_bounds_are_rejected_on_line_2() {
        let header = |s: usize, t: usize, v: usize| {
            format!("{REPLAY_HEADER}\nscenes {s} tenants {t} views {v}\n")
        };
        for (text, max) in [
            (header(MAX_SCENES + 1, 1, 1), MAX_SCENES),
            (header(1, MAX_TENANTS + 1, 1), MAX_TENANTS),
            (header(1, 1, MAX_VIEWS + 1), MAX_VIEWS),
            // The two headers that used to die in `Catalog::corpus`
            // ("capacity overflow") and in the per-tenant books (a failed
            // 32 PB allocation).
            (header(1_000_000_000_000_000_000, 1, 1), MAX_SCENES),
            (header(1, 1_000_000_000_000_000, 1), MAX_TENANTS),
        ] {
            let err = Trace::parse_replay(&text).unwrap_err();
            assert!(err.starts_with("line 2: "), "error must name the line: {err}");
            assert!(err.contains(&max.to_string()), "error must name the bound: {err}");
        }
        let at_bounds = Trace::parse_replay(&header(MAX_SCENES, MAX_TENANTS, MAX_VIEWS))
            .expect("the bounds themselves are accepted");
        assert_eq!((at_bounds.scenes, at_bounds.tenants, at_bounds.views), (1024, 1024, 1024));
    }

    #[test]
    fn smoke_fixture_parses_unchanged() {
        let text = include_str!("../tests/data/smoke.trace");
        let trace = Trace::parse_replay(text).expect("the CI replay fixture parses");
        assert_eq!(trace.to_replay(), text, "the fixture must round-trip byte for byte");
        assert!(!trace.requests.is_empty());
        assert!(trace.requests.iter().all(|r| r.kind.frames() <= MAX_REPLAY_FRAMES));
    }

    #[test]
    fn four_field_rows_stay_stills_and_five_field_rows_carry_frames() {
        // A pre-trajectory replay file (all 4-field rows) must parse
        // exactly as it always did: every request a still.
        let text = format!("{REPLAY_HEADER}\nscenes 2 tenants 2 views 2\n0 0 1 1\n3 1 0 0\n");
        let old = Trace::parse_replay(&text).expect("v1 4-field replay parses");
        assert!(old.requests.iter().all(|r| r.kind == RequestKind::Still));
        assert_eq!(old.to_replay(), text, "still rows serialize back to 4 fields");

        let text = format!("{REPLAY_HEADER}\nscenes 2 tenants 2 views 2\n0 0 1 1\n3 1 0 0 6\n");
        let mixed = Trace::parse_replay(&text).expect("5-field rows parse");
        assert_eq!(mixed.requests[0].kind, RequestKind::Still);
        assert_eq!(mixed.requests[1].kind, RequestKind::Trajectory { frames: 6 });
        assert_eq!(mixed.to_replay(), text, "frame counts round-trip");
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        let field = |cfg: TrafficConfig| {
            std::panic::catch_unwind(move || cfg.validate())
                .err()
                .and_then(|e| e.downcast_ref::<String>().cloned())
                .expect("validate must panic with a message")
        };
        let ok = TrafficConfig::default();
        ok.validate(); // the default config is valid

        assert!(field(TrafficConfig { scenes: 0, ..ok }).contains("scenes"));
        assert!(field(TrafficConfig { tenants: 0, ..ok }).contains("tenants"));
        assert!(field(TrafficConfig { views: 0, ..ok }).contains("views"));
        assert!(field(TrafficConfig { scenes: MAX_SCENES + 1, ..ok }).contains("scenes"));
        assert!(field(TrafficConfig { tenants: MAX_TENANTS + 1, ..ok }).contains("tenants"));
        assert!(field(TrafficConfig { views: MAX_VIEWS + 1, ..ok }).contains("views"));
        let past = TrafficConfig { duration_ticks: MAX_DURATION_TICKS + 1, ..ok };
        assert!(field(past).contains("duration_ticks"));
        TrafficConfig { duration_ticks: MAX_DURATION_TICKS, ..ok }.validate();
        assert!(field(TrafficConfig { mean_interarrival: 0, ..ok }).contains("mean_interarrival"));
        assert!(field(TrafficConfig { zipf_s: -1.0, ..ok }).contains("zipf_s"));
        assert!(field(TrafficConfig { zipf_s: f64::NAN, ..ok }).contains("zipf_s"));
    }

    #[test]
    #[should_panic(expected = "TrafficConfig::scenes must be at least 1")]
    fn synthesize_rejects_an_empty_catalog_by_name() {
        // Regression: this used to die as `index out of bounds` inside
        // `zipf_cdf` without ever naming the zero field.
        let _ = Trace::synthesize(&TrafficConfig { scenes: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_cdf_rejects_zero_ranks() {
        let _ = zipf_cdf(0, 1.0);
    }

    #[test]
    fn zipf_cdf_is_well_formed() {
        let cdf = zipf_cdf(5, 1.1);
        assert_eq!(cdf.len(), 5);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(cdf[4], 1.0, "normalized to exactly 1");
        assert_eq!(sample_cdf(&cdf, 0.0), 0);
        assert_eq!(sample_cdf(&cdf, 0.999_999), 4);
        // Uniform case: every rank gets an equal slice.
        let u = zipf_cdf(4, 0.0);
        assert!((u[0] - 0.25).abs() < 1e-12);
    }
}
