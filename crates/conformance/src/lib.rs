//! Conformance & differential-testing harness for the PuPPIeS workspace.
//!
//! The paper's headline guarantee — an authorized receiver reconstructs
//! the original DCT coefficients even after the PSP transforms the
//! perturbed JPEG — is only worth reproducing if it is machine-checked.
//! This crate turns it into four executable suites:
//!
//! * [`golden`] — byte-exact committed vectors for the codec, protect, and
//!   every PSP transformation, with a bless mode and hex diff reports;
//! * [`oracle`] — the recovery matrix: every transformation × ROI shape ×
//!   key/params setting, coefficient-exact where the paper claims
//!   exactness and PSNR-bounded where it claims approximation;
//! * [`differential`] — the codec against itself: coefficient-domain vs
//!   pixel-domain transformation paths, lossless entropy round-trips, and
//!   recompression fixed-point convergence;
//! * [`fuzz`] — seeded campaigns over malformed bitstreams, degenerate
//!   ROIs, mutated params, worker-pool widths and HTTP requests, with
//!   minimized failing inputs written to a corpus directory;
//! * [`serving`] — the PSP cache-coherence oracle: cached transform
//!   results must be byte-identical to freshly computed ones, across
//!   content addressing, eviction pressure, and the in-place path;
//! * [`identity`] — the perceptual-identity oracle: recompression keeps a
//!   protected photo inside its signature family, geometry leaves it,
//!   and content changes confined to the private ROI cannot move a
//!   single signature bit (blindness, checked exactly);
//! * [`netcheck`] — the network round-trip oracle: a real `net::Server`
//!   on loopback must serve every transformation byte-identical to the
//!   in-process path, and recover every upload across a restart;
//! * [`cluster`] — the k-of-n Shamir oracle: every k-subset of backends
//!   reconstructs byte-exactly, every (k−1)-subset fails loudly,
//!   corrupted shares are detected, and recovery through reconstructed
//!   matrices matches single-PSP recovery pixel-exactly.
//!
//! Entry points: [`run_all`] for the whole harness (what
//! `puppies-cli conformance` and CI run), or the per-suite `run_*`/
//! `check`/`bless` functions. Everything reports through
//! [`report::Report`] so failures render identically everywhere.

pub mod cluster;
pub mod differential;
pub mod fuzz;
pub mod golden;
pub mod identity;
pub mod netcheck;
pub mod oracle;
pub mod report;
pub mod serving;

use std::path::PathBuf;

pub use report::{CaseResult, CaseStatus, Report};

/// Which suites to run, and where their inputs/outputs live.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Directory holding the committed golden vectors.
    pub golden_dir: PathBuf,
    /// Regenerate golden vectors instead of checking them.
    pub bless: bool,
    /// Corpus directory for minimized fuzz failures (`None` disables).
    pub corpus_dir: Option<PathBuf>,
    /// Master fuzz seed.
    pub fuzz_seed: u64,
    /// Scale factor for fuzz case counts (1 = the default campaign; the
    /// HTTP campaign's fixed count is not scaled).
    pub fuzz_scale: usize,
    /// Suites to skip, by name (`golden`, `oracle`, `differential`,
    /// `fuzz`, `serving`, `identity`, `netcheck`, `cluster`).
    pub skip: Vec<String>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            // Both follow this crate's source tree, not the working
            // directory.
            golden_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden")),
            bless: false,
            corpus_dir: Some(PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../tests/corpus"
            ))),
            fuzz_seed: 0xC0FFEE,
            fuzz_scale: 1,
            skip: Vec::new(),
        }
    }
}

impl HarnessConfig {
    fn skipped(&self, suite: &str) -> bool {
        self.skip.iter().any(|s| s == suite)
    }
}

/// Runs every enabled suite and returns the merged report.
///
/// # Errors
/// Only filesystem errors from `--bless` are fatal; oracle failures are
/// reported, not returned.
pub fn run_all(cfg: &HarnessConfig) -> std::io::Result<Report> {
    let _span = puppies_obs::span("conformance.run_all", "conformance");
    let mut report = Report::new();
    if !cfg.skipped("golden") {
        let _suite = puppies_obs::span("conformance.golden", "conformance");
        if cfg.bless {
            report.merge(golden::bless(&cfg.golden_dir)?);
        } else {
            report.merge(golden::check(&cfg.golden_dir));
        }
    }
    if !cfg.skipped("oracle") {
        let _suite = puppies_obs::span("conformance.oracle", "conformance");
        report.merge(oracle::run_matrix(&oracle::Matrix::default()));
    }
    if !cfg.skipped("differential") {
        let _suite = puppies_obs::span("conformance.differential", "conformance");
        report.merge(differential::run_differential());
    }
    if !cfg.skipped("serving") {
        let _suite = puppies_obs::span("conformance.serving", "conformance");
        report.merge(serving::run_serving());
    }
    if !cfg.skipped("identity") {
        let _suite = puppies_obs::span("conformance.identity", "conformance");
        report.merge(identity::run_identity());
    }
    if !cfg.skipped("netcheck") {
        let _suite = puppies_obs::span("conformance.netcheck", "conformance");
        report.merge(netcheck::run_netcheck());
    }
    if !cfg.skipped("cluster") {
        let _suite = puppies_obs::span("conformance.cluster", "conformance");
        report.merge(cluster::run_cluster());
    }
    if !cfg.skipped("fuzz") {
        let _suite = puppies_obs::span("conformance.fuzz", "conformance");
        let base = fuzz::FuzzConfig::default();
        let fcfg = fuzz::FuzzConfig {
            seed: cfg.fuzz_seed,
            bitstream_cases: base.bitstream_cases * cfg.fuzz_scale,
            roi_cases: base.roi_cases * cfg.fuzz_scale,
            params_cases: base.params_cases * cfg.fuzz_scale,
            worker_cases: base.worker_cases * cfg.fuzz_scale,
            entropy_cases: base.entropy_cases * cfg.fuzz_scale,
            corpus_dir: cfg.corpus_dir.clone(),
        };
        report.merge(fuzz::run_fuzz(&fcfg));
    }
    Ok(report)
}
