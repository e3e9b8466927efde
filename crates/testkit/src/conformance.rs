//! The cross-layer conformance runner: one corpus scene in, one golden
//! [`Record`] out.
//!
//! [`run`] pushes a [`CorpusSpec`] through the entire stack — procedural
//! grid → VQRF compression → SpNeRF preprocessing → [`spnerf::RenderSession`]
//! renders of all four per-sample sources → accelerator cycle model → DRAM
//! trace/energy model — and snapshots a digest or counter from every layer,
//! then repeats the renders with mip empty-space skipping
//! ([`SkipMode::mip`]) under `skip.*` keys: the `skip.image.*` digests must
//! equal the `image.*` digests (skipping is pixel-exact) while the
//! `skip.stats.*` / `skip.accel.*` / `skip.dram.*` counters document the
//! removed work. The `baked.*` keys cover the fifth source, the
//! bake-and-defer path ([`RenderSource::Baked`]): its image digest, PSNR
//! against ground truth, the per-sample → per-pixel MLP-work collapse, and
//! the cycle model charging the small deferred network. The `traj.*` keys
//! pin the temporal tier: an 8-frame orbit rendered through the facade
//! Trajectory API in both reuse modes, every frame's image digest plus the
//! cumulative samples/cycles/DRAM the warp amortized.
//! `tests/conformance.rs` checks these records against the checked-in
//! goldens, so *any* behavioural change anywhere in the stack surfaces as
//! a named key diff.

use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderSource};
use spnerf::trajectory::{ReuseMode, TrajectoryRequest, TrajectorySpec};
use spnerf::{RenderResponse, Scene};
use spnerf_accel::sim::pipeline::{simulate_frame, simulate_path, ArchConfig};
use spnerf_dram::energy::EnergyModel;
use spnerf_dram::timing::DramTimings;
use spnerf_dram::trace::{gather, sequential};
use spnerf_dram::MemoryController;
use spnerf_render::renderer::{RenderConfig, SkipMode};
use spnerf_render::scene::default_camera;
use spnerf_voxel::sparse::{predicted_index_bytes, FormatKind, OccupancyStats, SparseFormat};
use spnerf_voxel::vqrf::VqrfConfig;

use crate::corpus::{generate, CorpusSpec};
use crate::digest;
use crate::fixtures;
use crate::golden::Record;

/// Fidelity knobs of a conformance run. The default is the quick preset
/// the golden suite and CI use: small renders that still exercise every
/// code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceConfig {
    /// Rendered image side (square).
    pub image: u32,
    /// Ray-march samples across the scene AABB.
    pub samples_per_ray: usize,
    /// VQRF/SpNeRF codebook size.
    pub codebook: usize,
    /// SpNeRF subgrid count.
    pub subgrid_count: usize,
    /// Hash-table entries per subgrid.
    pub table_size: usize,
    /// Render worker threads (`0` = all cores). Output is identical at any
    /// value; goldens are rendered with 1.
    pub threads: usize,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        Self {
            image: 16,
            samples_per_ray: 32,
            codebook: 32,
            subgrid_count: 8,
            table_size: 4096,
            threads: 1,
        }
    }
}

impl ConformanceConfig {
    /// The render configuration of this preset.
    pub fn render_config(&self) -> RenderConfig {
        RenderConfig {
            samples_per_ray: self.samples_per_ray,
            parallelism: self.threads,
            ..Default::default()
        }
    }

    /// The VQRF configuration of this preset.
    pub fn vqrf_config(&self) -> VqrfConfig {
        fixtures::test_vqrf_config(self.codebook)
    }
}

/// Builds the pipeline [`Scene`] a corpus spec + conformance preset select.
///
/// # Panics
///
/// Panics if the pipeline rejects the configuration (cannot happen for the
/// default preset).
pub fn scene_for(spec: &CorpusSpec, cfg: &ConformanceConfig) -> Scene {
    PipelineBuilder::from_grid(spec.label(), generate(spec))
        .vqrf_config(cfg.vqrf_config())
        .spnerf_config(fixtures::test_spnerf_config(
            cfg.subgrid_count,
            cfg.table_size,
            cfg.codebook,
        ))
        .render_config(cfg.render_config())
        .build()
        .expect("conformance preset builds")
}

/// Runs one corpus scene through every layer and returns the snapshot
/// record the golden suite checks.
pub fn run(spec: &CorpusSpec, cfg: &ConformanceConfig) -> Record {
    let mut rec = Record::new();
    rec.push("spec.label", spec.label());
    rec.push("spec.side", spec.side);
    rec.push("spec.occupancy", spec.occupancy);
    rec.push("spec.seed", spec.seed);

    // Layer 1 — voxel substrate.
    let scene = scene_for(spec, cfg);
    rec.push("grid.occupied", scene.grid().occupied_count());
    rec.push("grid.digest", digest::hex(digest::digest_grid(scene.grid())));

    // Layer 2 — VQRF compression.
    rec.push("vqrf.nnz", scene.vqrf().nnz());
    rec.push("vqrf.kept", scene.vqrf().kept_count());
    rec.push("vqrf.codebook_digest", digest::hex(digest::digest_codebook(scene.vqrf().codebook())));

    // Layer 3 — SpNeRF preprocessing artifact.
    let model = scene.model();
    rec.push("bitmap.ones", model.bitmap().count_ones());
    rec.push("bitmap.digest", digest::hex(digest::digest_bitmap(model.bitmap())));
    let fp = model.footprint();
    rec.push("model.total_bytes", fp.total_bytes());
    rec.push("model.hash_table_bytes", fp.bytes_of("hash tables"));

    // Layer 3b — sparse occupancy index: the auto-selected encoding, its
    // byte-exact size, the per-lookup metadata cost the accelerator/DRAM
    // models charge, and every candidate's predicted bytes (the crossover
    // inputs). `tests/conformance.rs` additionally asserts the image
    // digests above are reproduced bit-for-bit under every fixed format.
    let index = scene.sparse_index();
    rec.push("format.selected", scene.sparse_kind().name());
    rec.push("format.index_bytes", index.footprint().total_bytes());
    rec.push("format.bytes_per_lookup", index.access_cost().bytes_per_lookup);
    let occ_stats = OccupancyStats::from_bitmap(model.bitmap());
    for kind in FormatKind::ALL {
        rec.push(format!("format.{}.bytes", kind.name()), predicted_index_bytes(kind, &occ_stats));
    }

    // Layer 4 — renders of all four sources through one session.
    let session = scene.session();
    let cam = default_camera(cfg.image, cfg.image, 1, 8);
    let render = |source: RenderSource, psnr: bool| -> RenderResponse {
        let mut req = RenderRequest::single(source, cam);
        if psnr {
            req = req.with_reference(RenderSource::GroundTruth);
        }
        session.render(&req).expect("single-camera request")
    };
    let gt = render(RenderSource::GroundTruth, false);
    let vq = render(RenderSource::Vqrf, true);
    let masked = render(RenderSource::spnerf_masked(), true);
    let unmasked = render(RenderSource::spnerf_unmasked(), true);
    rec.push("image.gt.digest", digest::hex(digest::digest_image(&gt.images[0])));
    rec.push("image.vqrf.digest", digest::hex(digest::digest_image(&vq.images[0])));
    rec.push("image.masked.digest", digest::hex(digest::digest_image(&masked.images[0])));
    rec.push("image.unmasked.digest", digest::hex(digest::digest_image(&unmasked.images[0])));
    rec.push("psnr.vqrf_db", vq.mean_psnr());
    rec.push("psnr.masked_db", masked.mean_psnr());
    rec.push("psnr.unmasked_db", unmasked.mean_psnr());
    rec.push("stats.rays", masked.stats.rays);
    rec.push("stats.samples_marched", masked.stats.samples_marched);
    rec.push("stats.samples_shaded", masked.stats.samples_shaded);
    rec.push("stats.rays_terminated_early", masked.stats.rays_terminated_early);
    rec.push("stats.samples_skipped", masked.stats.samples_skipped);
    rec.push("stats.digest", digest::hex(digest::digest_stats(&masked.stats)));
    rec.push("workload.model_bytes", masked.workload.model_bytes);
    rec.push("workload.format_bytes", masked.workload.format_bytes);
    rec.push("workload.digest", digest::hex(digest::digest_workload(&masked.workload)));

    // Layer 5 — accelerator cycle model on the measured workload.
    let sim = simulate_frame(&masked.workload, &ArchConfig::default());
    rec.push("accel.cycles", sim.cycles);
    rec.push("accel.sgpu_cycles", sim.sgpu_cycles);
    rec.push("accel.mlp_cycles", sim.mlp_cycles);
    rec.push("accel.dram_cycles", sim.dram_cycles);
    rec.push("accel.bottleneck", format!("{:?}", sim.bottleneck));

    // Layer 6 — DRAM controller + energy on the two trace archetypes this
    // scene implies: SpNeRF's streamed model vs a VQRF-style gather over
    // the restored grid.
    let timings = DramTimings::lpddr4_3200();
    let energy = EnergyModel::lpddr4();
    let seq_trace = sequential(0, masked.workload.model_bytes as u64, 256);
    let seq = MemoryController::new(timings).run_trace(&seq_trace);
    rec.push("dram.seq.row_hits", seq.row_hits);
    rec.push("dram.seq.row_misses", seq.row_misses);
    rec.push("dram.seq.cycles", seq.cycles);
    rec.push("dram.seq.energy_pj", (energy.energy_j(&seq) * 1e12).round() as u64);
    // The selected format's per-frame metadata stream, charged through the
    // same controller as the model stream.
    let fmt_trace = sequential(0, masked.workload.format_bytes as u64, 256);
    let fmt = MemoryController::new(timings).run_trace(&fmt_trace);
    rec.push("dram.format.row_hits", fmt.row_hits);
    rec.push("dram.format.row_misses", fmt.row_misses);
    rec.push("dram.format.cycles", fmt.cycles);
    rec.push("dram.format.energy_pj", (energy.energy_j(&fmt) * 1e12).round() as u64);
    let region = scene.grid().restored_bytes_f32() as u64;
    let count = masked.stats.samples_marched.clamp(1, 4096);
    let gat_trace = gather(count, region, 64, spec.seed);
    let gat = MemoryController::new(timings).run_trace(&gat_trace);
    rec.push("dram.gather.row_hits", gat.row_hits);
    rec.push("dram.gather.row_misses", gat.row_misses);
    rec.push("dram.gather.cycles", gat.cycles);
    rec.push("dram.gather.energy_pj", (energy.energy_j(&gat) * 1e12).round() as u64);

    // Layer 7 — the same renders with mip empty-space skipping. The image
    // digests must **match the `image.*` keys above** (skipping is
    // pixel-exact; `tests/conformance.rs` asserts the equality, the golden
    // file documents it); the samples/cycles/DRAM keys are separate and
    // show the skipped work.
    let skip_session =
        scene.session_with(RenderConfig { skip_mode: SkipMode::mip(), ..cfg.render_config() });
    let skip_render = |source: RenderSource| -> RenderResponse {
        skip_session.render(&RenderRequest::single(source, cam)).expect("single-camera request")
    };
    let s_gt = skip_render(RenderSource::GroundTruth);
    let s_vq = skip_render(RenderSource::Vqrf);
    let s_masked = skip_render(RenderSource::spnerf_masked());
    let s_unmasked = skip_render(RenderSource::spnerf_unmasked());
    rec.push("skip.image.gt.digest", digest::hex(digest::digest_image(&s_gt.images[0])));
    rec.push("skip.image.vqrf.digest", digest::hex(digest::digest_image(&s_vq.images[0])));
    rec.push("skip.image.masked.digest", digest::hex(digest::digest_image(&s_masked.images[0])));
    rec.push(
        "skip.image.unmasked.digest",
        digest::hex(digest::digest_image(&s_unmasked.images[0])),
    );
    rec.push("skip.stats.samples_marched", s_masked.stats.samples_marched);
    rec.push("skip.stats.samples_skipped", s_masked.stats.samples_skipped);
    rec.push("skip.stats.samples_shaded", s_masked.stats.samples_shaded);
    rec.push(
        "skip.march_reduction",
        format!(
            "{:.2}",
            masked.stats.samples_marched as f64 / s_masked.stats.samples_marched.max(1) as f64
        ),
    );
    let skip_sim = simulate_frame(&s_masked.workload, &ArchConfig::default());
    rec.push("skip.accel.cycles", skip_sim.cycles);
    rec.push("skip.accel.sgpu_cycles", skip_sim.sgpu_cycles);
    rec.push("skip.accel.bottleneck", format!("{:?}", skip_sim.bottleneck));
    let skip_count = s_masked.stats.samples_marched.clamp(1, 4096);
    let skip_gat =
        MemoryController::new(timings).run_trace(&gather(skip_count, region, 64, spec.seed));
    rec.push("skip.dram.gather.row_hits", skip_gat.row_hits);
    rec.push("skip.dram.gather.row_misses", skip_gat.row_misses);
    rec.push("skip.dram.gather.cycles", skip_gat.cycles);
    rec.push("skip.dram.gather.energy_pj", (energy.energy_j(&skip_gat) * 1e12).round() as u64);

    // Layer 8 — the bake-and-defer path. The baked image is *not* expected
    // to equal the per-sample render (view dependence is factored into a
    // different network); the digest pins it bit-for-bit, `baked.psnr_db`
    // documents its fidelity against ground truth, and the stats/accel
    // keys document the MLP-work collapse from per-sample to per-pixel.
    // `baked.skip.image.digest` must equal `baked.image.digest` (skipping
    // stays pixel-exact on the baked grid; asserted live in
    // `tests/conformance.rs`).
    let baked = render(RenderSource::Baked, true);
    rec.push("baked.image.digest", digest::hex(digest::digest_image(&baked.images[0])));
    rec.push("baked.psnr_db", baked.mean_psnr());
    rec.push("baked.stats.samples_marched", baked.stats.samples_marched);
    rec.push("baked.stats.samples_shaded", baked.stats.samples_shaded);
    rec.push("baked.stats.pixels_shaded", baked.stats.pixels_shaded);
    rec.push("baked.mlp_collapse", format!("{:.2}", baked.workload.mlp_collapse()));
    rec.push("baked.stats.digest", digest::hex(digest::digest_stats(&baked.stats)));
    rec.push("baked.workload.digest", digest::hex(digest::digest_workload(&baked.workload)));
    let baked_sim = simulate_frame(&baked.workload, &ArchConfig::default());
    rec.push("baked.accel.cycles", baked_sim.cycles);
    rec.push("baked.accel.mlp_cycles", baked_sim.mlp_cycles);
    rec.push("baked.accel.bottleneck", format!("{:?}", baked_sim.bottleneck));
    let s_baked = skip_render(RenderSource::Baked);
    rec.push("baked.skip.image.digest", digest::hex(digest::digest_image(&s_baked.images[0])));
    rec.push("baked.skip.stats.samples_marched", s_baked.stats.samples_marched);
    rec.push("baked.skip.stats.samples_skipped", s_baked.stats.samples_skipped);

    // Layer 9 — the temporal trajectory tier: an 8-frame orbit through the
    // facade Trajectory API, once frame-independent (`ReuseMode::Off`) and
    // once with forward-warp reuse. Every frame's image is pinned
    // bit-for-bit in both modes; the cumulative samples/cycles/DRAM keys
    // document what the reuse amortized. `tests/conformance.rs` asserts
    // the live invariants (off-mode ≡ per-frame session rendering, the
    // per-archetype reuse floor) on top of these pins.
    let orbit = TrajectorySpec::orbit(8, cfg.image, cfg.image);
    let source = RenderSource::spnerf_masked();
    let t_off = session
        .render_trajectory(&TrajectoryRequest::new(source, orbit))
        .expect("off-mode trajectory");
    let t_warp = session
        .render_trajectory(&TrajectoryRequest::new(source, orbit).with_mode(ReuseMode::warp()))
        .expect("warp trajectory");
    rec.push("traj.frames", orbit.frames);
    for (i, f) in t_off.frames.iter().enumerate() {
        rec.push(format!("traj.off.image.{i}.digest"), digest::hex(digest::digest_image(&f.image)));
    }
    for (i, f) in t_warp.frames.iter().enumerate() {
        rec.push(
            format!("traj.warp.image.{i}.digest"),
            digest::hex(digest::digest_image(&f.image)),
        );
    }
    rec.push("traj.off.samples_marched", t_off.stats.samples_marched);
    rec.push("traj.warp.samples_marched", t_warp.stats.samples_marched);
    rec.push("traj.off.samples_after_first", t_off.samples_marched_after_first());
    rec.push("traj.warp.samples_after_first", t_warp.samples_marched_after_first());
    rec.push("traj.warp.rays_warped", t_warp.stats.rays_warped);
    rec.push("traj.warp.rays_remarched", t_warp.stats.rays_remarched);
    rec.push("traj.warp.max_validation_error", format!("{:.4}", t_warp.max_validation_error()));
    rec.push("traj.off.stats.digest", digest::hex(digest::digest_stats(&t_off.stats)));
    rec.push("traj.warp.stats.digest", digest::hex(digest::digest_stats(&t_warp.stats)));
    let p_off = simulate_path(&t_off.workloads, &ArchConfig::default());
    let p_warp = simulate_path(&t_warp.workloads, &ArchConfig::default());
    rec.push("traj.off.accel.cycles", p_off.total_cycles);
    rec.push("traj.warp.accel.cycles", p_warp.total_cycles);
    rec.push("traj.off.dram.bytes", p_off.total_dram_bytes);
    rec.push("traj.warp.dram.bytes", p_warp.total_dram_bytes);
    rec.push(
        "traj.warp.amortized_samples_per_frame",
        format!("{:.1}", p_warp.amortized_samples_per_frame),
    );

    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Archetype, Corpus};

    #[test]
    fn record_is_deterministic_across_runs() {
        let spec = CorpusSpec::archetype_default(Archetype::EmptySpace, 16, 11);
        let cfg = ConformanceConfig { image: 8, samples_per_ray: 16, ..Default::default() };
        assert_eq!(run(&spec, &cfg), run(&spec, &cfg));
    }

    #[test]
    fn record_is_identical_at_any_thread_count() {
        let spec = CorpusSpec::archetype_default(Archetype::Clusters, 16, 12);
        let serial = ConformanceConfig { image: 8, samples_per_ray: 16, ..Default::default() };
        let parallel = ConformanceConfig { threads: 4, ..serial };
        assert_eq!(run(&spec, &serial), run(&spec, &parallel));
    }

    #[test]
    fn every_layer_contributes_keys() {
        let spec = Corpus::quick().next().unwrap();
        let cfg = ConformanceConfig { image: 8, samples_per_ray: 16, ..Default::default() };
        let rec = run(&spec, &cfg);
        for prefix in [
            "spec.",
            "grid.",
            "vqrf.",
            "bitmap.",
            "model.",
            "format.",
            "image.",
            "psnr.",
            "stats.",
            "workload.",
            "accel.",
            "dram.seq.",
            "dram.format.",
            "dram.gather.",
            "skip.image.",
            "skip.stats.",
            "skip.accel.",
            "skip.dram.",
            "baked.",
            "traj.",
        ] {
            assert!(
                rec.entries().iter().any(|(k, _)| k.starts_with(prefix)),
                "no {prefix}* key in the record"
            );
        }
    }
}
