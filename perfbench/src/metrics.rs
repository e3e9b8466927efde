//! The metric catalog and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names, units and directions; a test checks that `BENCHMARK.json` lists
//! exactly these. `exact` marks metrics that must repeat bit for bit for a
//! given seed (virtual ticks, simulated cycles, counts, PSNR); the rest are
//! host measurements.

use std::collections::BTreeMap;

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name: `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 bytes.
    pub name: &'static str,
    /// Unit: at most 16 of `[A-Za-z0-9_/%.-]`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    /// Repeats bit for bit for a given seed.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better, exact: true }
}

/// Metrics printed by the untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Spec] = &[
    host("setup_s", "s", "lower"),
    host("frame_ms.p50", "ms", "lower"),
    host("frame_ms.p90", "ms", "lower"),
    host("serve.requests_per_s", "1/s", "higher"),
    host("peak_rss_mb", "MB", "lower"),
    exact("model_mb", "MB", "lower"),
    exact("psnr_db", "dB", "higher"),
    exact("sim_fps", "fps", "higher"),
    exact("serve.latency_ticks.p50", "ticks", "lower"),
    exact("serve.latency_ticks.p95", "ticks", "lower"),
    exact("serve.admitted_share", "share", "higher"),
    exact("ok_share", "share", "higher"),
];

/// Metrics printed by the traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[Spec] = &[
    host("voxel.grid_build_ms", "ms", "lower"),
    host("voxel.vqrf_build_ms", "ms", "lower"),
    host("voxel.mip_build_ms", "ms", "lower"),
    exact("voxel.kmeans_distance_evals", "count", "lower"),
    host("core.spnerf_build_ms", "ms", "lower"),
    host("core.decode_ns", "ns", "lower"),
    exact("core.samples_marched", "count", "lower"),
    host("render.mlp_ns", "ns", "lower"),
    host("render.deferred_mlp_ns", "ns", "lower"),
    host("render.composite_ns", "ns", "lower"),
    exact("render.samples_shaded", "count", "lower"),
    exact("render.samples_skipped", "count", "higher"),
    exact("render.pixels_shaded", "count", "lower"),
    exact("render.shade_ratio", "ratio", "higher"),
    exact("render.skip_ratio", "ratio", "higher"),
    host("render.bake_ms", "ms", "lower"),
    host("render.stage_share.decode", "share", "lower"),
    host("render.stage_share.mlp", "share", "lower"),
    host("render.stage_share.composite", "share", "lower"),
    host("render.stage_share.other", "share", "lower"),
    exact("accel.sgpu_cycle_share", "share", "lower"),
    exact("accel.mlp_cycle_share", "share", "lower"),
    exact("accel.dram_cycle_share", "share", "lower"),
    host("temporal.frame0_ms", "ms", "lower"),
    host("temporal.reuse_frame_ms", "ms", "lower"),
    host("temporal.warp_splat_us", "us", "lower"),
    host("temporal.disocclusion_us", "us", "lower"),
    exact("temporal.reuse_ratio", "ratio", "higher"),
    exact("temporal.rays_remarched", "count", "lower"),
    exact("temporal.max_validation_error", "abs", "lower"),
    host("pipeline.build_ms", "ms", "lower"),
    exact("pipeline.resident_bytes", "bytes", "lower"),
    host("accel.simulate_us", "us", "lower"),
    exact("accel.cycles_per_frame", "cycles", "lower"),
    exact("accel.dram_bytes_per_frame", "bytes", "lower"),
    host("serve.run_s", "s", "lower"),
    host("serve.scene_build_ms", "ms", "lower"),
    exact("serve.cache_hit_ratio", "ratio", "higher"),
    exact("serve.misses", "count", "lower"),
    exact("serve.evictions", "count", "lower"),
    exact("serve.peak_resident_bytes", "bytes", "lower"),
    host("trace.overhead_ms", "ms", "lower"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 bytes.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1–16 of letters, digits, `_/%.-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Looks a metric up in either catalog.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// Values measured by one run, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under a catalog metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog or was already recorded —
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec(name).unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
        assert!(self.values.insert(spec.name, value).is_none(), "metric `{name}` recorded twice");
    }

    /// The `(spec, value)` pairs of one catalog, in catalog order.
    ///
    /// # Errors
    ///
    /// Names every catalog metric that was not recorded or is not finite.
    pub fn select(&self, catalog: &'static [Spec]) -> Result<Vec<(&'static Spec, f64)>, String> {
        let mut out = Vec::with_capacity(catalog.len());
        let mut problems = Vec::new();
        for spec in catalog {
            if !valid_name(spec.name) || !valid_unit(spec.unit) {
                problems.push(format!("{} has an invalid name or unit", spec.name));
            }
            match self.values.get(spec.name) {
                Some(v) if v.is_finite() => out.push((spec, *v)),
                Some(v) => problems.push(format!("{} = {v}", spec.name)),
                None => problems.push(format!("{} missing", spec.name)),
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join(", "))
        }
    }
}

/// Formats the result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Floats print in Rust's shortest round-trip form, i.e. with every digit
/// the measurement has.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static Spec, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(spec, v)| {
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", spec.name, spec.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnerf_bench::snapshot::parse_json;

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
            assert!(s.better == "lower" || s.better == "higher", "{}", s.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn name_validation() {
        for ok in ["a", "frame_ms.p50", "serve.latency_ticks.p95", "x-1", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "-x", "has space", "a/b", "é", "a\"b", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse_json(text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), catalog.len(), "{key} count");
            for (entry, spec) in listed.iter().zip(catalog) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(spec.name));
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(spec.unit));
                assert_eq!(entry.get("better").and_then(|v| v.as_str()), Some(spec.better));
            }
        }
        let workloads = doc.get("workloads").and_then(|v| v.as_array()).expect("workloads");
        let names: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name").and_then(|v| v.as_str())).collect();
        let expected: Vec<&str> = crate::cli::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set("frame_ms.p50", 1.0 / 3.0);
        let picked =
            vec![(spec("setup_s").unwrap(), 0.8127), (spec("frame_ms.p50").unwrap(), 1.0 / 3.0)];
        let line = result_line(true, 12, 0, &picked);
        let doc = parse_json(&line).expect("result line parses");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(12.0));
        let v = doc.get("metrics").and_then(|m| m.get("frame_ms.p50")).and_then(|m| m.get("value"));
        assert_eq!(v.and_then(|v| v.as_f64()), Some(1.0 / 3.0));
        assert!(m.select(END_TO_END).is_err(), "incomplete set must not select");
    }
}
