//! # spnerf
//!
//! Facade crate for the SpNeRF reproduction (DATE 2025, "SpNeRF: Memory
//! Efficient Sparse Volumetric Neural Rendering Accelerator for Edge
//! Devices"). It re-exports the workspace crates under one roof so examples
//! and downstream users can depend on a single package:
//!
//! * [`voxel`] — sparse voxel-grid substrate (grids, bitmaps, the
//!   hierarchical occupancy mip-pyramid, COO/CSR/CSC, INT8 quantization,
//!   k-means VQ, the VQRF model),
//! * [`render`] — CPU reference renderer (FP16, cameras, rays, trilinear
//!   interpolation, MLP, compositing, PSNR, procedural scenes) with a
//!   tile-parallel engine (`render::engine`) whose output is
//!   bitwise-identical to the serial path at any thread count, and
//!   pixel-exact empty-space skipping (`render::renderer::SkipMode`)
//!   driven by the occupancy pyramid,
//! * [`core`] — the paper's contribution: hash-mapping preprocessing and
//!   online sparse voxel-grid decoding with bitmap masking,
//! * [`dram`] — Ramulator-like DRAM timing/energy model,
//! * [`accel`] — cycle-level accelerator simulator and ASIC area/power model,
//! * [`platforms`] — GPU roofline baselines and edge-accelerator operating
//!   points,
//!
//! and adds the layer that ties them together:
//!
//! * [`pipeline`] — the **unified front door**: [`pipeline::PipelineBuilder`]
//!   runs the paper's five offline stages (procedural grid → VQRF
//!   compression → hash-mapping preprocessing → MLP) exactly once into a
//!   cached [`pipeline::Scene`] bundle, and [`pipeline::RenderSession`]
//!   serves typed [`pipeline::RenderRequest`]s — ground truth, VQRF, or the
//!   SpNeRF decoder, one camera or a batch — returning images, merged
//!   [`render::renderer::RenderStats`], per-view PSNR, and the
//!   [`accel::frame::FrameWorkload`] the accelerator simulator consumes.
//!   Every failure unifies behind one [`Error`].
//! * [`trajectory`] — camera paths over the same front door:
//!   [`trajectory::TrajectoryRequest`]s render deterministic
//!   orbit/dolly/jitter paths with optional frame-to-frame forward-warp
//!   reuse, resumable [`trajectory::TrajectoryStream`]s persist warp state
//!   per scene bundle, and a streaming driver overlaps each frame's render
//!   with the previous frame's cycle simulation.
//!
//! It also owns the two pieces every binary shares, so the figure harness
//! (`spnerf-bench`) and the render service (`spnerf-serve`) link no test or
//! bench crate for them:
//!
//! * [`cli`] — the one command-line grammar: each binary declares the
//!   [`cli::Flag`]s it reads and every other flag exits 2;
//! * [`json`] — the one JSON emitter pair and the depth-bounded parser
//!   behind the `BENCH_*.json` and serve-report validators.
//!
//! # Examples
//!
//! The whole flow, scene to stats, through the pipeline layer:
//!
//! ```
//! use spnerf::core::SpNerfConfig;
//! use spnerf::pipeline::{PipelineBuilder, RenderRequest, RenderSource};
//! use spnerf::render::scene::{default_camera, SceneId};
//! use spnerf::voxel::vqrf::VqrfConfig;
//!
//! // Offline stages run exactly once into a cached artifact bundle.
//! let scene = PipelineBuilder::new(SceneId::Lego)
//!     .grid_side(24)
//!     .vqrf_config(VqrfConfig { codebook_size: 32, kmeans_iters: 1, ..Default::default() })
//!     .spnerf_config(SpNerfConfig { subgrid_count: 8, table_size: 4096, codebook_size: 32 })
//!     .build()?;
//!
//! // Online: serve typed requests against the bundle.
//! let session = scene.session();
//! let response = session.render(
//!     &RenderRequest::single(RenderSource::spnerf_masked(), default_camera(8, 8, 0, 4))
//!         .with_reference(RenderSource::GroundTruth),
//! )?;
//! assert_eq!(response.stats.rays, 64);
//! assert!(response.mean_psnr() > 10.0);
//! // The same response carries what the accelerator simulator consumes.
//! let workload = response.workload.at_paper_resolution();
//! assert_eq!(workload.rays, 800 * 800);
//! # Ok::<(), spnerf::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod error;
pub mod json;
pub mod pipeline;
pub mod trajectory;

pub use error::Error;
pub use pipeline::{
    PipelineBuilder, Reference, RenderRequest, RenderResponse, RenderSession, RenderSource, Scene,
};
pub use trajectory::{TemporalCache, TrajectoryRequest, TrajectoryResponse, TrajectoryStream};

pub use spnerf_accel as accel;
pub use spnerf_core as core;
pub use spnerf_dram as dram;
pub use spnerf_platforms as platforms;
pub use spnerf_render as render;
pub use spnerf_voxel as voxel;
