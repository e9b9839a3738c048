//! Structured pass/fail reporting shared by every conformance suite.
//!
//! All suites funnel their results through [`Report`] so the CLI, the
//! integration tests, and the CI job render identical output: one line per
//! case, failures expanded with whatever diagnostic the suite attached
//! (byte diffs for golden vectors, PSNR tables for oracles, reproduction
//! commands for fuzz findings).

use puppies_obs::fnv64;
use std::fmt::Write as _;

/// First mismatch between two byte strings, with context for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteDiff {
    /// Length of the expected (committed) bytes.
    pub expected_len: usize,
    /// Length of the actual (freshly produced) bytes.
    pub actual_len: usize,
    /// Offset of the first differing byte, if any byte differs before the
    /// shorter string ends. `None` means one string is a prefix of the
    /// other (pure length mismatch).
    pub first_mismatch: Option<usize>,
}

impl ByteDiff {
    /// Compares two byte strings; `None` means byte-identical.
    pub fn compare(expected: &[u8], actual: &[u8]) -> Option<ByteDiff> {
        let first_mismatch = expected.iter().zip(actual.iter()).position(|(a, b)| a != b);
        if first_mismatch.is_none() && expected.len() == actual.len() {
            return None;
        }
        Some(ByteDiff {
            expected_len: expected.len(),
            actual_len: actual.len(),
            first_mismatch,
        })
    }

    /// Human-readable diff: lengths, offset of first mismatch, and a hex
    /// window around it on both sides.
    pub fn render(&self, expected: &[u8], actual: &[u8]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "expected {} bytes (fnv64 {:016x}), got {} bytes (fnv64 {:016x})",
            self.expected_len,
            fnv64(expected),
            self.actual_len,
            fnv64(actual),
        );
        match self.first_mismatch {
            Some(off) => {
                let _ = writeln!(out, "first mismatch at byte offset {off}:");
                let _ = writeln!(out, "  expected: {}", hex_window(expected, off));
                let _ = writeln!(out, "  actual:   {}", hex_window(actual, off));
            }
            None => {
                let _ = writeln!(
                    out,
                    "no mismatch within the common prefix; lengths differ by {}",
                    self.actual_len.abs_diff(self.expected_len)
                );
            }
        }
        out
    }
}

/// Hex dump of up to 8 bytes either side of `center`, with the byte at
/// `center` bracketed.
pub fn hex_window(bytes: &[u8], center: usize) -> String {
    let lo = center.saturating_sub(8);
    let hi = (center + 9).min(bytes.len());
    let mut out = format!("[{lo:#06x}] ");
    for (i, b) in bytes[lo..hi].iter().enumerate() {
        let pos = lo + i;
        if pos == center {
            let _ = write!(out, "[{b:02x}] ");
        } else {
            let _ = write!(out, "{b:02x} ");
        }
    }
    if hi < bytes.len() {
        out.push('…');
    }
    out.trim_end().to_string()
}

/// Outcome of a single conformance case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseStatus {
    /// The oracle held.
    Pass,
    /// The oracle failed; the string is the full diagnostic.
    Fail(String),
    /// The expected output was (re)written in `--bless` mode.
    Blessed,
    /// Intentionally not asserted for this combination (the reason says
    /// why — e.g. full-range profiles have no pixel-domain recovery
    /// guarantee). Skips are reported so coverage holes stay visible.
    Skipped(String),
}

/// One named case inside a suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult {
    /// Stable case name (used in reports and artifact file names).
    pub name: String,
    /// What happened.
    pub status: CaseStatus,
    /// Optional one-line measurement (e.g. `psnr 31.2 dB ≥ 26.0`) shown
    /// even for passing cases when verbose.
    pub detail: Option<String>,
}

/// A collection of case results from one or more suites.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All recorded cases, in execution order.
    pub cases: Vec<CaseResult>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a passing case.
    pub fn pass(&mut self, name: impl Into<String>, detail: Option<String>) {
        self.cases.push(CaseResult {
            name: name.into(),
            status: CaseStatus::Pass,
            detail,
        });
    }

    /// Records a failing case with its diagnostic.
    pub fn fail(&mut self, name: impl Into<String>, diagnostic: impl Into<String>) {
        self.cases.push(CaseResult {
            name: name.into(),
            status: CaseStatus::Fail(diagnostic.into()),
            detail: None,
        });
    }

    /// Records a blessed (regenerated) golden vector.
    pub fn blessed(&mut self, name: impl Into<String>, detail: Option<String>) {
        self.cases.push(CaseResult {
            name: name.into(),
            status: CaseStatus::Blessed,
            detail,
        });
    }

    /// Records a documented skip.
    pub fn skip(&mut self, name: impl Into<String>, reason: impl Into<String>) {
        self.cases.push(CaseResult {
            name: name.into(),
            status: CaseStatus::Skipped(reason.into()),
            detail: None,
        });
    }

    /// Merges another report's cases into this one.
    pub fn merge(&mut self, other: Report) {
        self.cases.extend(other.cases);
    }

    /// Number of passing cases.
    pub fn passed(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.status == CaseStatus::Pass)
            .count()
    }

    /// All failing cases.
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.cases
            .iter()
            .filter(|c| matches!(c.status, CaseStatus::Fail(_)))
            .collect()
    }

    /// Whether every case passed (blessed and skipped cases do not fail
    /// the run).
    pub fn is_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// Full text rendering: a status line per case, failures expanded.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cases {
            let (tag, extra) = match &c.status {
                CaseStatus::Pass => ("PASS", None),
                CaseStatus::Fail(d) => ("FAIL", Some(d.as_str())),
                CaseStatus::Blessed => ("BLESS", None),
                CaseStatus::Skipped(r) => ("SKIP", Some(r.as_str())),
            };
            let _ = write!(out, "{tag:5} {}", c.name);
            if let Some(d) = &c.detail {
                let _ = write!(out, "  ({d})");
            }
            out.push('\n');
            if let Some(extra) = extra {
                for line in extra.lines() {
                    let _ = writeln!(out, "      {line}");
                }
            }
        }
        let fails = self.failures().len();
        let blessed = self
            .cases
            .iter()
            .filter(|c| c.status == CaseStatus::Blessed)
            .count();
        let skipped = self
            .cases
            .iter()
            .filter(|c| matches!(c.status, CaseStatus::Skipped(_)))
            .count();
        let _ = writeln!(
            out,
            "{} cases: {} passed, {} failed, {} blessed, {} skipped",
            self.cases.len(),
            self.passed(),
            fails,
            blessed,
            skipped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_diff_finds_first_mismatch() {
        let a = b"hello world".to_vec();
        let mut b = a.clone();
        b[6] = b'W';
        let d = ByteDiff::compare(&a, &b).unwrap();
        assert_eq!(d.first_mismatch, Some(6));
        let text = d.render(&a, &b);
        assert!(text.contains("offset 6"), "{text}");
        assert!(ByteDiff::compare(&a, &a).is_none());
    }

    #[test]
    fn byte_diff_reports_length_only_mismatch() {
        let a = b"abcd".to_vec();
        let b = b"abcdef".to_vec();
        let d = ByteDiff::compare(&a, &b).unwrap();
        assert_eq!(d.first_mismatch, None);
        assert!(d.render(&a, &b).contains("lengths differ by 2"));
    }

    #[test]
    fn report_counts_and_renders() {
        let mut r = Report::new();
        r.pass("a", Some("psnr 30.0".into()));
        r.fail("b", "boom\nsecond line");
        r.skip("c", "not applicable");
        assert!(!r.is_ok());
        assert_eq!(r.passed(), 1);
        let text = r.render();
        assert!(text.contains("PASS  a"));
        assert!(text.contains("FAIL  b"));
        assert!(text.contains("      boom"));
        assert!(text.contains("3 cases: 1 passed, 1 failed, 0 blessed, 1 skipped"));
    }
}
