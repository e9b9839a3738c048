//! Reproduction harness: one runnable experiment per table and figure of
//! the paper's evaluation (§V–§VI). See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Run everything with `cargo run -p puppies-experiments --release -- all`
//! or a single experiment with e.g. `-- table2`. `--quick` shrinks the
//! dataset counts for smoke runs; `--full` approaches paper scale.

pub mod baselines;
pub mod exp;
pub mod util;

use puppies_image::{GrayImage, RgbImage};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Experiment scale knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny datasets for CI smoke runs.
    Quick,
    /// Laptop-sized defaults (a few minutes for the full suite).
    Default,
    /// Counts approaching the paper's (hours).
    Full,
}

impl Scale {
    /// Scales a default count.
    pub fn count(self, quick: usize, default: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// Context shared by every experiment.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Scale knob.
    pub scale: Scale,
    /// RNG/dataset seed (fixed for reproducibility).
    pub seed: u64,
    /// Directory for image dumps and result files.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Standard context at the given scale. Outputs go to the workspace's
    /// `results/`, found from this crate's own location, so `repro` writes
    /// to the same place from any working directory.
    ///
    /// # Panics
    /// If that directory cannot be created.
    pub fn new(scale: Scale) -> Ctx {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("the crate sits two levels below the workspace root")
            .join("results");
        std::fs::create_dir_all(&out_dir)
            .unwrap_or_else(|e| panic!("creating {}: {e}", out_dir.display()));
        Ctx {
            scale,
            seed: 0x9E37_2026,
            out_dir,
        }
    }

    /// Writes a colour dump to `out_dir/name` and returns its path.
    ///
    /// # Panics
    /// If the file cannot be written.
    pub fn save_ppm(&self, img: &RgbImage, name: &str) -> PathBuf {
        let path = self.out_dir.join(name);
        puppies_image::io::save_ppm(img, &path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        path
    }

    /// Writes a grayscale dump to `out_dir/name` and returns its path.
    ///
    /// # Panics
    /// If the file cannot be written.
    pub fn save_pgm(&self, img: &GrayImage, name: &str) -> PathBuf {
        let path = self.out_dir.join(name);
        puppies_image::io::save_pgm(img, &path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        path
    }
}

type ExpFn = fn(&Ctx);

/// Registry of all experiments, keyed by their CLI name.
pub fn registry() -> BTreeMap<&'static str, (&'static str, ExpFn)> {
    let mut m: BTreeMap<&'static str, (&'static str, ExpFn)> = BTreeMap::new();
    m.insert(
        "table1",
        (
            "Table I: transformation-compatibility matrix",
            exp::table1::run,
        ),
    );
    m.insert(
        "table2",
        (
            "Table II: normalized perturbed size (PASCAL, whole image)",
            exp::table2::run,
        ),
    );
    m.insert("table3", ("Table III: dataset inventory", exp::table3::run));
    m.insert(
        "table4",
        ("Table IV: privacy levels and secure bits", exp::table4::run),
    );
    m.insert(
        "table5",
        ("Table V: encryption/decryption wall time", exp::table5::run),
    );
    m.insert(
        "fig2",
        (
            "Fig. 2: retrieval overlap original vs perturbed query",
            exp::fig02::run,
        ),
    );
    m.insert(
        "fig4",
        (
            "Fig. 4: PSP scaling — P3 detail loss vs PuPPIeS recovery",
            exp::fig04::run,
        ),
    );
    m.insert(
        "fig11",
        (
            "Fig. 11: private-part size vs number of matrices",
            exp::fig11::run,
        ),
    );
    m.insert(
        "fig12",
        ("Fig. 12: ROI detection and disjoint split", exp::fig12::run),
    );
    m.insert(
        "fig13",
        (
            "Figs. 13-14: DC-only vs AC-only reconstructions",
            exp::fig13::run,
        ),
    );
    m.insert(
        "fig15",
        (
            "Fig. 15: perturbing a license plate with B/C/Z",
            exp::fig15::run,
        ),
    );
    m.insert(
        "fig16",
        ("Fig. 16: scale-then-recover flow", exp::fig16::run),
    );
    m.insert(
        "fig17",
        ("Fig. 17: perturbed size vs privacy level", exp::fig17::run),
    );
    m.insert(
        "fig18",
        ("Fig. 18: public-part size vs ROI area", exp::fig18::run),
    );
    m.insert(
        "fig19",
        ("Fig. 19: public/private split accounting", exp::fig19::run),
    );
    m.insert("fig20", ("Fig. 20: SIFT feature attack", exp::fig20::run));
    m.insert(
        "fig21",
        ("Fig. 21: edge-detection attack CDF", exp::fig21::run),
    );
    m.insert(
        "fig22",
        ("Fig. 22: face-recognition rank curve", exp::fig22::run),
    );
    m.insert(
        "fig23",
        ("Fig. 23: signal-correlation attacks", exp::fig23::run),
    );
    m.insert(
        "bruteforce",
        (
            "§VI-A: brute-force accounting + demos",
            exp::bruteforce::run,
        ),
    );
    m.insert(
        "detect_time",
        ("§V-C: ROI detection timing", exp::detect_time::run),
    );
    m.insert(
        "ablation_nb",
        (
            "Ablation: PuPPIeS-N vs -B under the DC sweep",
            exp::ablation_nb::run,
        ),
    );
    m.insert(
        "ablation_huffman",
        (
            "Ablation: Huffman re-optimization (the C-vs-B mechanism)",
            exp::ablation_huffman::run,
        ),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_is_the_workspace_results_dir() {
        let ctx = Ctx::new(Scale::Quick);
        assert!(ctx.out_dir.is_absolute(), "{}", ctx.out_dir.display());
        assert!(ctx.out_dir.ends_with("results"));
        let root = ctx.out_dir.parent().unwrap();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(
            manifest.contains("[workspace]"),
            "{} is not the workspace root",
            root.display()
        );
        assert!(
            ctx.out_dir.join("repro_all.txt").is_file(),
            "the committed transcript lives there"
        );
    }
}
