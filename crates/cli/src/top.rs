//! `puppies top` — a live dashboard over a serving PSP's `/metrics`.
//!
//! ```text
//! puppies top --addr <host:port> [--samples N] [--interval-ms M]
//!             [--plain] [--assert-monotonic] [--assert-nonzero <series>]...
//! ```
//!
//! Polls the Prometheus text exposition, renders totals plus the
//! per-endpoint SLO window table, and derives rates from successive
//! samples. The `--assert-*` flags turn it into CI's scrape checker:
//! `--assert-monotonic` fails if any `*_total` counter ever decreases
//! between samples, `--assert-nonzero <substring>` fails if no matching
//! series is positive by the final sample.

use crate::{flag_value, flag_values, has_flag, CliResult};
use puppies_psp::net::Client;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};

/// One scrape, parsed: full series key (`name{labels}`) → value.
type Scrape = BTreeMap<String, f64>;

fn parse_scrape(text: &str) -> Scrape {
    let mut out = Scrape::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Split on the last space: label values may not contain unescaped
        // spaces but this stays safe if a timestamp is ever appended.
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(key.to_string(), v);
        }
    }
    out
}

/// The label value of `label` inside a `name{a="b",...}` series key.
fn label_of<'a>(key: &'a str, label: &str) -> Option<&'a str> {
    let needle = format!("{label}=\"");
    let start = key.find(&needle)? + needle.len();
    let end = key[start..].find('"')? + start;
    Some(&key[start..end])
}

fn series<'a>(scrape: &'a Scrape, name: &str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
    let prefix = format!("{name}{{");
    let bare = name.to_string();
    scrape
        .iter()
        .filter(move |(k, _)| **k == bare || k.starts_with(&prefix))
        .map(|(k, v)| (k.as_str(), *v))
}

fn value(scrape: &Scrape, key: &str) -> f64 {
    scrape.get(key).copied().unwrap_or(0.0)
}

/// The sum of every series of `name`, whatever its labels.
fn total(scrape: &Scrape, name: &str) -> f64 {
    // fold, not sum(): an empty f64 sum() is -0.0, which prints as "-0".
    series(scrape, name).map(|(_, v)| v).fold(0.0, |a, b| a + b)
}

fn render(scrape: &Scrape, prev: Option<&Scrape>, interval_ms: u64) -> String {
    let mut out = String::new();
    let requests = total(scrape, "psp_slo_requests_total");
    let errors = total(scrape, "psp_slo_errors_total");
    let rate = prev
        .map(|p| {
            let dr = requests - total(p, "psp_slo_requests_total");
            dr.max(0.0) * 1000.0 / interval_ms.max(1) as f64
        })
        .unwrap_or(0.0);
    out.push_str(&format!(
        "ready:{} connections:{} requests:{requests:.0} ({rate:.1}/s) errors:{errors:.0}\n",
        value(scrape, "psp_ready"),
        value(scrape, "psp_net_connections"),
    ));
    if let Some(entries) = scrape.get("psp_sig_index_entries") {
        out.push_str(&format!(
            "sig index: {entries:.0} entries, {:.0} family hit(s), {:.0} search(es), \
             {:.0} answered from memo\n",
            value(scrape, "psp_sig_hit_total"),
            value(scrape, "psp_sig_search_total"),
            value(scrape, "psp_sig_search_memo_hit_total"),
        ));
    }
    let healthy = scrape.get("psp_cluster_backends_healthy");
    if let Some(h) = healthy {
        out.push_str(&format!(
            "cluster: {h:.0}/{:.0} backends healthy, quorum k={:.0}\n",
            value(scrape, "psp_cluster_backends_total"),
            value(scrape, "psp_cluster_quorum_k"),
        ));
    }
    let mut endpoints: Vec<&str> = series(scrape, "psp_slo_requests_total")
        .filter_map(|(k, _)| label_of(k, "endpoint"))
        .collect();
    endpoints.sort_unstable();
    if !endpoints.is_empty() {
        out.push_str(&format!(
            "{:<12} {:>9} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}\n",
            "endpoint",
            "requests",
            "errors",
            "req/s",
            "p99 ms",
            "err %",
            "cache %",
            "coeff %",
            "sig %"
        ));
    }
    let slo = |name: &str, ep: &str| value(scrape, &format!("{name}{{endpoint=\"{ep}\"}}"));
    let pct = |v: f64| {
        if v < 0.0 {
            "-".to_string()
        } else {
            format!("{:.1}", v * 100.0)
        }
    };
    for ep in endpoints {
        let opt = |name: &str| {
            scrape
                .get(&format!("{name}{{endpoint=\"{ep}\"}}"))
                .copied()
                .unwrap_or(-1.0)
        };
        out.push_str(&format!(
            "{ep:<12} {:>9.0} {:>7.0} {:>9.2} {:>9.2} {:>7} {:>7} {:>7} {:>7}\n",
            slo("psp_slo_requests_total", ep),
            slo("psp_slo_errors_total", ep),
            slo("psp_slo_window_request_rate", ep),
            slo("psp_slo_window_p99_us", ep) / 1000.0,
            pct(slo("psp_slo_window_error_rate", ep)),
            pct(opt("psp_slo_window_cache_hit_rate")),
            pct(opt("psp_slo_window_coeff_serve_rate")),
            pct(opt("psp_slo_window_sig_hit_rate")),
        ));
    }
    out
}

/// Counters that decreased between two scrapes (name → before/after).
fn regressions(prev: &Scrape, cur: &Scrape) -> Vec<String> {
    prev.iter()
        .filter(|(k, _)| k.split('{').next().unwrap_or("").ends_with("_total"))
        .filter_map(|(k, before)| {
            let after = cur.get(k)?;
            (after < before).then(|| format!("{k}: {before} -> {after}"))
        })
        .collect()
}

/// What one `top` run samples and asserts.
struct Watch<'a> {
    samples: u64,
    interval_ms: u64,
    plain: bool,
    assert_monotonic: bool,
    assert_nonzero: Vec<&'a str>,
}

pub fn cmd(args: &[String]) -> CliResult {
    let addr = flag_value(args, "--addr").ok_or("missing --addr <host:port>")?;
    let watch = Watch {
        samples: match flag_value(args, "--samples") {
            Some(v) => v.parse().map_err(|e| format!("bad --samples: {e}"))?,
            None => u64::MAX,
        },
        interval_ms: match flag_value(args, "--interval-ms") {
            Some(v) => v.parse().map_err(|e| format!("bad --interval-ms: {e}"))?,
            None => 1000,
        },
        plain: has_flag(args, "--plain"),
        assert_monotonic: has_flag(args, "--assert-monotonic"),
        assert_nonzero: flag_values(args, "--assert-nonzero"),
    };
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let fetch = || match client.metrics_text() {
        Ok(t) => Ok(t),
        Err(_) => {
            // The connection may have idled out; one reconnect attempt.
            client = Client::connect(addr).map_err(|e| e.to_string())?;
            client.metrics_text().map_err(|e| e.to_string())
        }
    };
    run(&mut std::io::stdout().lock(), fetch, &watch)
}

/// Writes `text` and flushes it. `Ok(false)` means the reader has gone
/// away (`top | head`): sampling stops, but the `--assert-*` conditions
/// are still checked on the scrapes already taken.
fn emit(out: &mut impl Write, text: &str) -> Result<bool, String> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("writing to stdout: {e}")),
    }
}

/// Samples `/metrics` text from `fetch`, renders each sample into `out`
/// and checks the `--assert-*` conditions.
fn run(
    out: &mut impl Write,
    mut fetch: impl FnMut() -> Result<String, String>,
    watch: &Watch,
) -> CliResult {
    let mut prev: Option<Scrape> = None;
    let mut reading = true;
    for i in 0..watch.samples.max(1) {
        let scrape = parse_scrape(&fetch()?);
        if scrape.is_empty() {
            return Err("scrape parsed to zero series — is /metrics serving?".into());
        }
        if watch.assert_monotonic {
            if let Some(p) = &prev {
                let bad = regressions(p, &scrape);
                if !bad.is_empty() {
                    return Err(format!("counter(s) went backwards: {}", bad.join("; ")));
                }
            }
        }
        let mut frame = String::new();
        if !watch.plain {
            frame.push_str("\x1b[2J\x1b[H");
        }
        frame.push_str(&render(&scrape, prev.as_ref(), watch.interval_ms));
        if watch.plain {
            frame.push_str("---\n");
        }
        reading = emit(out, &frame)?;
        prev = Some(scrape);
        if !reading {
            break;
        }
        if i + 1 < watch.samples {
            std::thread::sleep(std::time::Duration::from_millis(watch.interval_ms));
        }
    }
    let last = prev.unwrap_or_default();
    for needle in &watch.assert_nonzero {
        let hit = last.iter().any(|(k, v)| k.contains(needle) && *v > 0.0);
        if !hit {
            return Err(format!("no series matching {needle:?} is nonzero"));
        }
        if reading {
            reading = emit(out, &format!("assert-nonzero ok: {needle}\n"))?;
        }
    }
    if watch.assert_monotonic && reading {
        emit(out, "assert-monotonic ok: no *_total series decreased\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP psp_slo_requests_total requests per endpoint\n\
# TYPE psp_slo_requests_total counter\n\
psp_slo_requests_total{endpoint=\"download\"} 25\n\
psp_slo_requests_total{endpoint=\"upload\"} 17\n\
psp_slo_errors_total{endpoint=\"upload\"} 2\n\
psp_slo_window_p99_us{endpoint=\"upload\"} 1234.5\n\
psp_ready 1\n";

    #[test]
    fn scrape_parses_values_and_labels() {
        let s = parse_scrape(SAMPLE);
        assert_eq!(
            s.get("psp_slo_requests_total{endpoint=\"download\"}"),
            Some(&25.0)
        );
        assert_eq!(
            s.get("psp_slo_requests_total{endpoint=\"upload\"}"),
            Some(&17.0)
        );
        assert_eq!(
            label_of("psp_slo_requests_total{endpoint=\"upload\"}", "endpoint"),
            Some("upload")
        );
    }

    #[test]
    fn monotonicity_check_flags_decreases_only() {
        let before = parse_scrape(SAMPLE);
        let mut after = before.clone();
        assert!(regressions(&before, &after).is_empty());
        after.insert("psp_slo_requests_total{endpoint=\"download\"}".into(), 24.0);
        // Gauges may move freely; only *_total decreases are violations.
        after.insert("psp_ready".into(), 0.0);
        let bad = regressions(&before, &after);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("psp_slo_requests_total{endpoint=\"download\"}"));
    }

    #[test]
    fn render_builds_the_endpoint_table() {
        let s = parse_scrape(SAMPLE);
        let text = render(&s, None, 1000);
        assert!(text.contains("requests:42 (0.0/s) errors:2"), "got: {text}");
        assert!(text.contains("upload"));
        assert!(text.contains("1.23"));
    }

    #[test]
    fn request_rate_sums_every_endpoint_of_both_scrapes() {
        let mut prev = parse_scrape(SAMPLE);
        prev.insert("psp_slo_requests_total{endpoint=\"download\"}".into(), 10.0);
        prev.insert("psp_slo_requests_total{endpoint=\"upload\"}".into(), 20.0);
        let text = render(&parse_scrape(SAMPLE), Some(&prev), 500);
        // (42 - 30) requests over half a second.
        assert!(text.contains("requests:42 (24.0/s)"), "got: {text}");
    }

    #[test]
    fn render_shows_memo_answered_searches_beside_their_base() {
        let mut s = parse_scrape(SAMPLE);
        s.insert("psp_sig_index_entries".into(), 9.0);
        s.insert("psp_sig_search_total".into(), 5.0);
        s.insert("psp_sig_search_memo_hit_total".into(), 3.0);
        let text = render(&s, None, 1000);
        assert!(
            text.contains("5 search(es), 3 answered from memo"),
            "got: {text}"
        );
    }

    /// A writer whose reader has gone away, as stdout is under `| head`
    /// once `head` exits.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(ErrorKind::BrokenPipe.into())
        }
    }

    fn watch(samples: u64) -> Watch<'static> {
        Watch {
            samples,
            interval_ms: 0,
            plain: true,
            assert_monotonic: true,
            assert_nonzero: vec!["psp_ready"],
        }
    }

    #[test]
    fn closed_pipe_ends_the_run_cleanly() {
        let mut scrapes = 0;
        let fetch = || {
            scrapes += 1;
            Ok(SAMPLE.to_string())
        };
        assert_eq!(run(&mut ClosedPipe, fetch, &watch(3)), Ok(()));
        assert_eq!(scrapes, 1, "sampling stops once nobody reads");
    }

    #[test]
    fn closed_pipe_still_checks_the_assertions() {
        let w = Watch {
            assert_nonzero: vec!["psp_ready", "no_such_series"],
            ..watch(3)
        };
        let err = run(&mut ClosedPipe, || Ok(SAMPLE.to_string()), &w).unwrap_err();
        assert!(err.contains("no_such_series"), "got: {err}");
    }

    #[test]
    fn plain_run_writes_every_sample_and_the_assertions() {
        let mut out = Vec::new();
        run(&mut out, || Ok(SAMPLE.to_string()), &watch(2)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("---\n").count(), 2, "got: {text}");
        assert!(text.contains("assert-nonzero ok: psp_ready"));
        assert!(text.ends_with("assert-monotonic ok: no *_total series decreased\n"));
    }
}
