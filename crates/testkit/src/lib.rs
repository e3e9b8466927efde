//! # spnerf-testkit
//!
//! The cross-layer golden conformance harness of the SpNeRF reproduction.
//! SpNeRF's value proposition is *sparsity-aware* memory reduction, so the
//! stack must be validated across the sparsity/structure space — not just
//! at the eight Synthetic-NeRF stand-ins' single operating band.
//!
//! The testkit is a leaf: no production crate depends on it (only tests
//! and the criterion benches do). What production code shares with it
//! lives in production crates and is re-exported here, so test paths stay
//! stable:
//!
//! * [`corpus`] — the procedural scenario generator (five archetypes
//!   spanning that space: `dense-blob`, `clusters`, `thin-shell`,
//!   `empty-space`, `noise-field`), which is `spnerf_render::corpus`;
//! * the FNV-1a hasher [`digest::Fnv64`] (`spnerf_voxel::digest`) and the
//!   MLP seed [`fixtures::MLP_SEED`] (`spnerf::pipeline`).
//!
//! This crate itself provides:
//!
//! * [`digest`] — stable 64-bit FNV-1a digests of images, grids, bitmaps,
//!   codebooks, render stats and frame workloads (floats hashed by bit
//!   pattern, so a digest match is bitwise equality);
//! * [`golden`] — checked-in `key = value` snapshot files with a
//!   `SPNERF_BLESS=1` regeneration path;
//! * [`conformance`] — the runner that pushes each corpus scene through
//!   the full `Pipeline`/`RenderSession` stack, the accelerator cycle
//!   model, and the DRAM trace/energy model, snapshotting every layer —
//!   including a mip empty-space-skipping pass whose image digests are
//!   pinned equal to the unskipped ones (`skip.*` keys);
//! * [`fixtures`] — the shared scene/model builders the workspace's
//!   integration tests use instead of hand-rolled copies.
//!
//! # Golden-file layout
//!
//! One file per corpus archetype under `crates/testkit/goldens/`:
//!
//! ```text
//! goldens/
//!   dense-blob.txt    # spec, grid digest, VQRF/bitmap summary, image
//!   clusters.txt      # digests, PSNR, stats, workload, accel cycles,
//!   thin-shell.txt    # DRAM row-hit/miss + energy — one `key = value`
//!   empty-space.txt   # per line
//!   noise-field.txt
//! ```
//!
//! # The `SPNERF_BLESS` workflow
//!
//! ```text
//! cargo test -p spnerf-testkit                 # check: fails on any drift
//! SPNERF_BLESS=1 cargo test -p spnerf-testkit  # regenerate the goldens
//! git diff crates/testkit/goldens              # review what changed
//! ```
//!
//! Blessing is a pure function of the computed records: re-blessing an
//! unchanged tree rewrites every golden byte-identically (CI enforces
//! this). Goldens pin exact float bit patterns, so they are tied to one
//! platform class — they are generated on x86-64 Linux, the CI platform.
//!
//! # Example
//!
//! ```
//! use spnerf_testkit::conformance::{run, ConformanceConfig};
//! use spnerf_testkit::corpus::{Archetype, CorpusSpec};
//!
//! let spec = CorpusSpec::archetype_default(Archetype::ThinShell, 16, 7);
//! let cfg = ConformanceConfig { image: 8, samples_per_ray: 16, ..Default::default() };
//! let record = run(&spec, &cfg);
//! assert!(record.entries().iter().any(|(k, _)| k == "accel.cycles"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod digest;
pub mod fixtures;
pub mod golden;

pub use spnerf_render::corpus;

pub use conformance::{run, ConformanceConfig};
pub use corpus::{generate, Archetype, Corpus, CorpusSpec};
pub use golden::{check, Record};
