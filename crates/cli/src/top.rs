//! `puppies top` — a live dashboard over a serving PSP's `/metrics`.
//!
//! ```text
//! puppies top --addr <host:port> [--samples N] [--interval-ms M]
//!             [--plain] [--assert-monotonic] [--assert-nonzero <series>]...
//! ```
//!
//! Polls the Prometheus text exposition, reads it with
//! [`puppies_obs::parse_prometheus`], and renders totals plus a
//! per-endpoint table. Every series the server writes is cumulative, so
//! each column is the difference between this scrape and the previous
//! one, and req/s divides it by the time measured between the two. The
//! first frame compares against an empty scrape: it shows whole-life
//! figures, and no rate, since there is no interval yet.
//!
//! The `--assert-*` flags turn it into CI's scrape checker:
//! `--assert-monotonic` fails if any cumulative series (a counter, or a
//! histogram's `_bucket`, `_sum` or `_count`) decreases between samples;
//! `--assert-nonzero <substring>` fails if no matching series is positive
//! by the final sample. Series are matched by their parsed keys: dotted
//! registry names (`psp.sig.hit`), the server's own families by
//! exposition name (`psp_slo_requests_total{endpoint="upload"}`), and a
//! histogram as its `_count` and `_sum` series.

use crate::{flag_value, flag_values, has_flag, CliResult};
use puppies_obs::{parse_prometheus, HistogramSnapshot, Scrape};
use puppies_psp::net::Client;
use std::io::{ErrorKind, Write};
use std::time::Instant;

/// The label value of `label` inside a `name{a="b",...}` series key.
fn label_of<'a>(key: &'a str, label: &str) -> Option<&'a str> {
    let needle = format!("{label}=\"");
    let start = key.find(&needle)? + needle.len();
    let end = key[start..].find('"')? + start;
    Some(&key[start..end])
}

/// `key` with `suffix` on its name: `h{a="b"}` + `_count` is
/// `h_count{a="b"}`.
fn suffixed(key: &str, suffix: &str) -> String {
    let (name, labels) = key.split_at(key.find('{').unwrap_or(key.len()));
    format!("{name}{suffix}{labels}")
}

/// The sum of every series of counter `name`, whatever its labels.
fn total(scrape: &Scrape, name: &str) -> u64 {
    scrape
        .counters
        .iter()
        .filter(|(k, _)| k.split('{').next() == Some(name))
        .map(|(_, v)| v)
        .sum()
}

/// `part` as a percentage of `whole`, or `-` when `whole` is zero.
fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", part as f64 * 100.0 / whole as f64)
    }
}

/// One frame: `cur` against `prev`, `secs` apart (`None` on the first
/// frame, whose `prev` is empty).
fn render(cur: &Scrape, prev: &Scrape, secs: Option<f64>) -> String {
    let rate = |n: u64| secs.map_or("-".to_string(), |s| format!("{:.1}", n as f64 / s));
    let requests = total(cur, "psp_slo_requests_total");
    let gauge = |name: &str| cur.gauges.get(name).copied().unwrap_or(0);
    let counter = |name: &str| cur.counters.get(name).copied().unwrap_or(0);
    let mut out = format!(
        "ready:{} connections:{} requests:{requests} ({}/s) errors:{}\n",
        gauge("psp_ready"),
        gauge("psp_net_connections"),
        rate(requests.saturating_sub(total(prev, "psp_slo_requests_total"))),
        total(cur, "psp_slo_errors_total"),
    );
    if let Some(entries) = cur.gauges.get("psp.sig.index_entries") {
        out.push_str(&format!(
            "sig index: {entries} entries, {} family hit(s), {} search(es), \
             {} answered from memo\n",
            counter("psp.sig.hit"),
            counter("psp.sig.search"),
            counter("psp.sig.search_memo_hit"),
        ));
    }
    let endpoints: Vec<&str> = cur
        .counters
        .keys()
        .filter(|k| k.starts_with("psp_slo_requests_total{"))
        .filter_map(|k| label_of(k, "endpoint"))
        .collect();
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
    for ep in endpoints {
        let key = |name: &str| format!("{name}{{endpoint=\"{ep}\"}}");
        let now = |key: &str| cur.counters.get(key).copied().unwrap_or(0);
        let delta =
            |key: &str| now(key).saturating_sub(prev.counters.get(key).copied().unwrap_or(0));
        let served = |path: &str| {
            delta(&format!(
                "psp_slo_served_total{{endpoint=\"{ep}\",path=\"{path}\"}}"
            ))
        };
        let (coeff, pixel) = (served("coeff-domain"), served("pixel-fallback"));
        let (cached, sig) = (served("cached"), served("sig-cached"));
        let (lat, none) = (key("psp_slo_latency_us"), HistogramSnapshot::default());
        let latency = (cur.histograms.get(&lat).unwrap_or(&none))
            .since(prev.histograms.get(&lat).unwrap_or(&none));
        let p99 = match latency.count {
            0 => "-".to_string(),
            _ => format!("{:.2}", latency.quantile(0.99) / 1000.0),
        };
        let (requests, errors) = (key("psp_slo_requests_total"), key("psp_slo_errors_total"));
        out.push_str(&format!(
            "{ep:<12} {:>9} {:>7} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7}\n",
            now(&requests),
            now(&errors),
            rate(delta(&requests)),
            p99,
            pct(delta(&errors), delta(&requests)),
            pct(cached + sig, cached + sig + coeff + pixel),
            pct(coeff, coeff + pixel),
            pct(sig, cached + sig),
        ));
    }
    out
}

/// Cumulative series that decreased between two scrapes, each as
/// `series: before -> after`.
fn regressions(prev: &Scrape, cur: &Scrape) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |series: String, before: u64, after: u64| {
        if after < before {
            bad.push(format!("{series}: {before} -> {after}"));
        }
    };
    for (k, &before) in &prev.counters {
        if let Some(&after) = cur.counters.get(k) {
            check(k.clone(), before, after);
        }
    }
    for (k, before) in &prev.histograms {
        let Some(after) = cur.histograms.get(k) else {
            continue;
        };
        check(suffixed(k, "_count"), before.count, after.count);
        check(suffixed(k, "_sum"), before.sum, after.sum);
        for &(le, c) in &before.buckets {
            let now = after.buckets.iter().take_while(|b| b.0 <= le).last();
            check(
                format!("{} le={le}", suffixed(k, "_bucket")),
                c,
                now.map_or(0, |b| b.1),
            );
        }
    }
    bad
}

/// Whether a series of `scrape` whose key contains `needle` is positive;
/// a histogram is matched as its `_count` and `_sum` series.
fn nonzero(scrape: &Scrape, needle: &str) -> bool {
    scrape
        .counters
        .iter()
        .any(|(k, &v)| v > 0 && k.contains(needle))
        || scrape
            .gauges
            .iter()
            .any(|(k, &v)| v > 0 && k.contains(needle))
        || scrape.histograms.iter().any(|(k, h)| {
            [("_count", h.count), ("_sum", h.sum)]
                .iter()
                .any(|&(suffix, v)| v > 0 && suffixed(k, suffix).contains(needle))
        })
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
    let mut prev = Scrape::default();
    let mut prev_at: Option<Instant> = None;
    let mut reading = true;
    for i in 0..watch.samples.max(1) {
        let text = fetch()?;
        let at = Instant::now();
        let scrape = parse_prometheus(&text).map_err(|e| format!("reading /metrics: {e}"))?;
        if scrape == Scrape::default() {
            return Err("scrape parsed to zero series — is /metrics serving?".into());
        }
        if watch.assert_monotonic {
            let bad = regressions(&prev, &scrape);
            if !bad.is_empty() {
                return Err(format!("series went backwards: {}", bad.join("; ")));
            }
        }
        let mut frame = String::new();
        if !watch.plain {
            frame.push_str("\x1b[2J\x1b[H");
        }
        let secs = prev_at.map(|t| at.duration_since(t).as_secs_f64());
        frame.push_str(&render(&scrape, &prev, secs));
        if watch.plain {
            frame.push_str("---\n");
        }
        reading = emit(out, &frame)?;
        prev = scrape;
        prev_at = Some(at);
        if !reading {
            break;
        }
        if i + 1 < watch.samples {
            std::thread::sleep(std::time::Duration::from_millis(watch.interval_ms));
        }
    }
    for needle in &watch.assert_nonzero {
        if !nonzero(&prev, needle) {
            return Err(format!("no series matching {needle:?} is nonzero"));
        }
        if reading {
            reading = emit(out, &format!("assert-nonzero ok: {needle}\n"))?;
        }
    }
    if watch.assert_monotonic && reading {
        emit(out, "assert-monotonic ok: no cumulative series decreased\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_psp::net::{Sample, SloRegistry};
    use puppies_psp::store::ServedPath;

    const SAMPLE: &str = "\
# HELP psp_slo_requests_total requests per endpoint\n\
# TYPE psp_slo_requests_total counter\n\
psp_slo_requests_total{endpoint=\"download\"} 25\n\
psp_slo_requests_total{endpoint=\"upload\"} 17\n\
# HELP psp_slo_errors_total 5xx responses per endpoint\n\
# TYPE psp_slo_errors_total counter\n\
psp_slo_errors_total{endpoint=\"upload\"} 2\n\
# HELP psp_slo_latency_us request latency per endpoint, in us\n\
# TYPE psp_slo_latency_us histogram\n\
psp_slo_latency_us_bucket{endpoint=\"upload\",le=\"1279\"} 16\n\
psp_slo_latency_us_bucket{endpoint=\"upload\",le=\"1343\"} 17\n\
psp_slo_latency_us_bucket{endpoint=\"upload\",le=\"+Inf\"} 17\n\
psp_slo_latency_us_sum{endpoint=\"upload\"} 20900\n\
psp_slo_latency_us_count{endpoint=\"upload\"} 17\n\
# HELP psp_ready whether the store is recovered and serving\n\
# TYPE psp_ready gauge\n\
psp_ready 1\n";

    fn scrape(text: &str) -> Scrape {
        parse_prometheus(text).unwrap()
    }

    /// The columns of `endpoint`'s row in a rendered frame.
    fn row<'a>(frame: &'a str, endpoint: &str) -> Vec<&'a str> {
        let line = frame
            .lines()
            .find(|l| l.starts_with(endpoint))
            .unwrap_or_else(|| panic!("no {endpoint} row in {frame}"));
        line.split_whitespace().collect()
    }

    fn record(reg: &SloRegistry, n: usize, ok: bool, latency_us: u64, served: ServedPath) {
        for _ in 0..n {
            let sample = Sample {
                ok,
                latency_us,
                served: Some(served),
            };
            reg.record("transformed", sample);
        }
    }

    #[test]
    fn columns_are_differences_between_scrapes() {
        let reg = SloRegistry::new();
        record(&reg, 3, true, 8_000, ServedPath::CoeffDomain);
        record(&reg, 1, true, 8_000, ServedPath::PixelFallback);
        record(&reg, 3, true, 8_000, ServedPath::Cached);
        record(&reg, 1, false, 8_000, ServedPath::Cached);
        record(&reg, 2, true, 8_000, ServedPath::SigCached);
        let first = scrape(&reg.render_prometheus());
        record(&reg, 1, true, 500, ServedPath::CoeffDomain);
        record(&reg, 1, false, 500, ServedPath::PixelFallback);
        record(&reg, 2, false, 500, ServedPath::Cached);
        record(&reg, 4, false, 500, ServedPath::SigCached);
        record(&reg, 2, true, 500, ServedPath::SigCached);
        let second = scrape(&reg.render_prometheus());

        // One scrape: whole-life figures, and no rate without an interval.
        let whole = render(&first, &Scrape::default(), None);
        assert!(whole.contains("requests:10 (-/s) errors:1"), "{whole}");
        let cols = row(&whole, "transformed");
        assert_eq!(cols[1..4], ["10", "1", "-"], "{whole}");
        let p99: f64 = cols[4].parse().unwrap();
        assert!((7.9..=8.2).contains(&p99), "{whole}");
        assert_eq!(cols[5..], ["10.0", "60.0", "75.0", "33.3"], "{whole}");

        // Two scrapes 2 s apart: only the ten requests between them.
        let delta = render(&second, &first, Some(2.0));
        assert!(delta.contains("requests:20 (5.0/s) errors:8"), "{delta}");
        let cols = row(&delta, "transformed");
        assert_eq!(cols[1..4], ["20", "8", "5.0"], "{delta}");
        let p99: f64 = cols[4].parse().unwrap();
        assert!((0.49..=0.52).contains(&p99), "{delta}");
        assert_eq!(cols[5..], ["70.0", "80.0", "50.0", "75.0"], "{delta}");
    }

    #[test]
    fn idle_interval_shows_no_percentages() {
        let s = scrape(SAMPLE);
        let frame = render(&s, &s, Some(1.0));
        assert!(
            frame.contains("ready:1 connections:0 requests:42 (0.0/s)"),
            "{frame}"
        );
        assert_eq!(
            row(&frame, "upload")[1..],
            ["17", "2", "0.0", "-", "-", "-", "-", "-"]
        );
        let whole = render(&s, &Scrape::default(), None);
        assert_eq!(row(&whole, "upload")[4..6], ["1.33", "11.8"], "{whole}");
    }

    #[test]
    fn monotonicity_check_flags_decreases_only() {
        let before = scrape(SAMPLE);
        let mut after = before.clone();
        assert!(regressions(&before, &after).is_empty());
        after
            .counters
            .insert("psp_slo_requests_total{endpoint=\"download\"}".into(), 24);
        // Gauges may move freely; only cumulative series are checked.
        after.gauges.insert("psp_ready".into(), 0);
        let bad = regressions(&before, &after);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("psp_slo_requests_total{endpoint=\"download\"}"));
    }

    #[test]
    fn monotonicity_check_covers_every_histogram_series() {
        let before = scrape(SAMPLE);
        // The 1279 bucket loses an observation to the 1343 one: count and
        // sum hold, so only the bucket shows it.
        let after = scrape(&SAMPLE.replace("le=\"1279\"} 16", "le=\"1279\"} 15"));
        assert_eq!(
            regressions(&before, &after),
            ["psp_slo_latency_us_bucket{endpoint=\"upload\"} le=1279: 16 -> 15"]
        );
        let after = scrape(
            &SAMPLE
                .replace(
                    "_sum{endpoint=\"upload\"} 20900",
                    "_sum{endpoint=\"upload\"} 20000",
                )
                .replace(
                    "_count{endpoint=\"upload\"} 17",
                    "_count{endpoint=\"upload\"} 16",
                ),
        );
        let bad = regressions(&before, &after);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].starts_with("psp_slo_latency_us_count{endpoint=\"upload\"}: 17 -> 16"));
        assert!(bad[1].starts_with("psp_slo_latency_us_sum{endpoint=\"upload\"}"));
    }

    #[test]
    fn nonzero_matches_histograms_by_their_count_series() {
        let s = scrape(SAMPLE);
        assert!(nonzero(&s, "psp_slo_latency_us_count"));
        assert!(nonzero(&s, "psp_ready"));
        assert!(!nonzero(&s, "psp_slo_errors_total{endpoint=\"download\""));
    }

    #[test]
    fn render_shows_memo_answered_searches_beside_their_base() {
        let mut s = scrape(SAMPLE);
        s.gauges.insert("psp.sig.index_entries".into(), 9);
        s.counters.insert("psp.sig.search".into(), 5);
        s.counters.insert("psp.sig.search_memo_hit".into(), 3);
        let text = render(&s, &Scrape::default(), None);
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
        assert!(text.ends_with("assert-monotonic ok: no cumulative series decreased\n"));
    }
}
