//! Exporters and the one reader of the metrics format: the Prometheus
//! text exposition ([`prometheus_text`], served on the PSP's `/metrics`
//! and written by `--stats`), read back by [`parse_prometheus`] for
//! `puppies top` and `puppies stats`; and the Chrome `trace_event` file
//! (written by `--trace`, loadable in `about:tracing` or
//! <https://ui.perfetto.dev>).
//!
//! Both formats are emitted by hand — the workspace has no serde, and
//! both schemas are small and ours.

use crate::hist::HistogramSnapshot;
use crate::metrics::MetricRegistry;
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` into a JSON string body (no surrounding quotes): `"`,
/// `\`, and all control characters, per RFC 8259.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders finished spans as a Chrome `trace_event` JSON document:
/// complete (`"ph":"X"`) events with microsecond timestamps, plus
/// thread-name metadata events so Perfetto labels each track.
pub fn chrome_trace(spans: &[SpanRecord], threads: &[(u64, String)], dropped: u64) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 256);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, name) in threads {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        );
    }
    for s in spans {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.tid,
            s.ts_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            escape_json(&s.name),
            escape_json(s.cat),
            s.id,
            s.parent
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"");
    if dropped > 0 {
        let _ = write!(out, ",\"otherData\":{{\"dropped_spans\":{dropped}}}");
    }
    out.push_str("}\n");
    out
}

/// Maps a dotted metric name onto the Prometheus identifier charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots (and anything else illegal) become
/// underscores, and a leading digit gets an underscore prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and line feed.
pub fn escape_prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus text format: backslash and
/// line feed only (quotes are legal in help text).
pub fn escape_prom_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders every metric in `reg` in the Prometheus text exposition
/// format (version 0.0.4, the `text/plain` scrape format).
///
/// * Counters gain the conventional `_total` suffix.
/// * Histograms render cumulative `le` buckets from the log-linear grid
///   (occupied buckets only — the grid has 593 cells, almost all empty),
///   always ending with `+Inf`, `_sum`, and `_count`; an empty histogram
///   still renders all three so scrapers see a well-formed family.
/// * The original dotted name is preserved in `# HELP` (escaped), which
///   is how [`parse_prometheus`] gives the dotted names back.
///
/// Values are raw (the pipeline records ns for spans, µs for request
/// latencies); unit suffixes in the metric name carry the unit.
pub fn prometheus_text(reg: &MetricRegistry) -> String {
    let snap = reg.snapshot();
    let mut out = String::with_capacity(4096);
    for (name, v) in &snap.counters {
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# HELP {pname}_total {}", escape_prom_help(name));
        let _ = writeln!(out, "# TYPE {pname}_total counter");
        let _ = writeln!(out, "{pname}_total {v}");
    }
    for (name, v) in &snap.gauges {
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# HELP {pname} {}", escape_prom_help(name));
        let _ = writeln!(out, "# TYPE {pname} gauge");
        let _ = writeln!(out, "{pname} {v}");
    }
    for (name, _) in &snap.histograms {
        // The name is registered as a histogram, so the lookup cannot
        // conflict; a racing kind-conflict would return None and the
        // family is simply skipped this scrape.
        let Some(h) = reg.histogram(name) else {
            continue;
        };
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# HELP {pname} {}", escape_prom_help(name));
        let _ = writeln!(out, "# TYPE {pname} histogram");
        write_prom_histogram(&mut out, &pname, "", &h.cumulative());
    }
    out
}

/// Appends one histogram series' samples: a `_bucket` line per occupied
/// bucket, then `+Inf`, `_sum` and `_count`. `labels` is the series' own
/// `key="value"` list, already escaped, or empty; `le` goes last.
pub fn write_prom_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let (sep, braced) = if labels.is_empty() {
        ("", String::new())
    } else {
        (",", format!("{{{labels}}}"))
    };
    for &(le, c) in &h.buckets {
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {c}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum{braced} {}", h.sum);
    let _ = writeln!(out, "{name}_count{braced} {}", h.count);
}

/// One parsed exposition. Every key is a series key, `name{labels}` with
/// the labels as written (a histogram's without `le`). `name` is the
/// family's dotted registry name when its `# HELP` line is one, as
/// [`prometheus_text`] writes it (`psp.sig.hit`, `jpeg.encode`), and the
/// exposition name otherwise (`psp_slo_requests_total{endpoint="upload"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    /// Counter samples.
    pub counters: BTreeMap<String, u64>,
    /// Gauge samples.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram series.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Parses the text format that [`prometheus_text`] and the PSP's
/// `/metrics` write: `# HELP`, then `# TYPE`, then the family's samples,
/// every value an integer.
///
/// # Errors
/// Names the first sample that is not an integer, that lies outside a
/// `# TYPE`d counter, gauge or histogram family, or that is a histogram
/// sample other than `_bucket` (with `le`), `_sum` or `_count`.
pub fn parse_prometheus(text: &str) -> Result<Scrape, String> {
    let mut scrape = Scrape::default();
    let mut help = ("", "");
    // (exposition name, kind, key name) of the family being read.
    let mut family: Option<(&str, &str, String)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = rest.split_once(' ').unwrap_or((rest, ""));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            let dotted = unescape_prom_help(help.1);
            let exposed = match kind {
                "counter" => format!("{}_total", prometheus_name(&dotted)),
                _ => prometheus_name(&dotted),
            };
            let key = if help.0 == name && exposed == name {
                dotted
            } else {
                name.to_string()
            };
            family = Some((name, kind, key));
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("bad sample {line:?}");
        let int = |v: &str| v.parse::<u64>().map_err(|_| bad());
        let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
        let (name, labels) = series.split_at(series.find('{').unwrap_or(series.len()));
        let Some((fam, kind, key)) = &family else {
            return Err(bad());
        };
        match (*kind, name.strip_prefix(fam)) {
            ("counter", Some("")) => {
                scrape
                    .counters
                    .insert(format!("{key}{labels}"), int(value)?);
            }
            ("gauge", Some("")) => {
                let v = value.parse::<i64>().map_err(|_| bad())?;
                scrape.gauges.insert(format!("{key}{labels}"), v);
            }
            ("histogram", Some(part)) => {
                let (labels, le) = split_le(labels);
                let h = scrape
                    .histograms
                    .entry(format!("{key}{labels}"))
                    .or_default();
                match (part, le) {
                    ("_bucket", Some("+Inf")) => {}
                    ("_bucket", Some(le)) => h.buckets.push((int(le)?, int(value)?)),
                    ("_sum", None) => h.sum = int(value)?,
                    ("_count", None) => h.count = int(value)?,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(bad()),
        }
    }
    Ok(scrape)
}

/// Splits a trailing `le="…"` off a label list: `{endpoint="x",le="7"}`
/// gives `{endpoint="x"}` and `7`, `{le="7"}` gives an empty list.
fn split_le(labels: &str) -> (String, Option<&str>) {
    let at = labels
        .rfind("le=\"")
        .filter(|&i| i > 0 && matches!(labels.as_bytes()[i - 1], b'{' | b','));
    let Some(i) = at else {
        return (labels.to_string(), None);
    };
    let le = labels[i + 4..].split('"').next();
    let rest = match &labels[..i - 1] {
        "" => String::new(),
        rest => format!("{rest}}}"),
    };
    (rest, le)
}

/// Reverses [`escape_prom_help`].
fn unescape_prom_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Renders a parsed `--stats` file as the table `puppies stats` prints.
/// Histograms are shown in milliseconds. A histogram's name carries its
/// unit: a `_us` suffix marks microseconds (request latencies), and every
/// other histogram holds nanoseconds (span durations). `max` is the
/// highest occupied bucket's bound.
pub fn render_stats(scrape: &Scrape) -> String {
    let mut out = String::new();
    if !scrape.histograms.is_empty() {
        out.push_str(&format!(
            "{:<26} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram (ms)", "count", "p50", "p95", "p99", "max"
        ));
        for (name, h) in &scrape.histograms {
            let in_us = name.split('{').next().is_some_and(|n| n.ends_with("_us"));
            let per_ms = if in_us { 1e3 } else { 1e6 };
            let ms = |q: f64| h.quantile(q) / per_ms;
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                name,
                h.count,
                ms(0.50),
                ms(0.95),
                ms(0.99),
                ms(1.0)
            );
        }
    }
    if !scrape.counters.is_empty() {
        let _ = writeln!(out, "{:<26} {:>8}", "counter", "value");
        for (name, v) in &scrape.counters {
            let _ = writeln!(out, "{name:<26} {v:>8}");
        }
    }
    if !scrape.gauges.is_empty() {
        let _ = writeln!(out, "{:<26} {:>8}", "gauge", "value");
        for (name, v) in &scrape.gauges {
            let _ = writeln!(out, "{name:<26} {v:>8}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_json(r"a\b"), r"a\\b");
        assert_eq!(escape_json("a\nb\tc\rd"), r"a\nb\tc\rd");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("é✓"), "é✓"); // non-ASCII passes through
    }

    #[test]
    fn chrome_trace_escapes_span_names() {
        let spans = vec![SpanRecord {
            name: Cow::Owned("evil\"name\\with\ncontrols\u{02}".to_string()),
            cat: "test",
            id: 1,
            parent: 0,
            tid: 1,
            ts_ns: 1500,
            dur_ns: 2500,
        }];
        let threads = vec![(1u64, "weird\"thread".to_string())];
        let json = chrome_trace(&spans, &threads, 0);
        assert!(json.contains(r#"evil\"name\\with\ncontrols"#));
        assert!(json.contains(r#"weird\"thread"#));
        // No raw control bytes or unescaped quotes-in-names survive.
        assert!(!json.bytes().any(|b| b < 0x20 && b != b'\n'));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("psp.net.requests"), "psp_net_requests");
        assert_eq!(prometheus_name("bench.net p99"), "bench_net_p99");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("a:b_c9"), "a:b_c9");
    }

    #[test]
    fn prometheus_escaping_per_text_format_spec() {
        // Label values escape backslash, quote, and newline.
        assert_eq!(escape_prom_label(r"a\b"), r"a\\b");
        assert_eq!(escape_prom_label(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape_prom_label("two\nlines"), r"two\nlines");
        // Help text escapes backslash and newline but leaves quotes alone.
        assert_eq!(escape_prom_help(r"a\b"), r"a\\b");
        assert_eq!(escape_prom_help("two\nlines"), r"two\nlines");
        assert_eq!(escape_prom_help(r#"say "hi""#), r#"say "hi""#);
    }

    #[test]
    fn prometheus_text_renders_all_three_kinds() {
        let reg = MetricRegistry::default();
        reg.counter("psp.net.requests").unwrap().add(3);
        reg.gauge("psp.photos").unwrap().set(-2);
        let h = reg.histogram("psp.net.req_us").unwrap();
        h.record(5);
        h.record(5);
        h.record(700);
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE psp_net_requests_total counter"));
        assert!(text.contains("\npsp_net_requests_total 3\n"));
        assert!(text.contains("# TYPE psp_photos gauge"));
        assert!(text.contains("\npsp_photos -2\n"));
        assert!(text.contains("# TYPE psp_net_req_us histogram"));
        assert!(text.contains("psp_net_req_us_bucket{le=\"5\"} 2\n"));
        assert!(text.contains("psp_net_req_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("\npsp_net_req_us_sum 710\n"));
        assert!(text.contains("\npsp_net_req_us_count 3\n"));
        // The dotted names survive in HELP lines.
        assert!(text.contains("# HELP psp_net_req_us psp.net.req_us\n"));
        // Cumulative buckets are monotone non-decreasing in both fields.
        let mut prev = (0u64, 0u64);
        for line in text
            .lines()
            .filter(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf"))
        {
            let le: u64 = line
                .split("le=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let c: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(le >= prev.0 && c >= prev.1, "{line}");
            prev = (le, c);
        }
    }

    #[test]
    fn prometheus_empty_histogram_still_renders_inf_sum_count() {
        let reg = MetricRegistry::default();
        reg.histogram("empty.hist").unwrap();
        let text = prometheus_text(&reg);
        assert!(text.contains("empty_hist_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("empty_hist_sum 0\n"));
        assert!(text.contains("empty_hist_count 0\n"));
        // No finite buckets for an empty histogram.
        assert!(!text.contains("empty_hist_bucket{le=\"0\""));
    }

    #[test]
    fn prometheus_help_escapes_metric_names_with_specials() {
        let reg = MetricRegistry::default();
        reg.counter("weird\\name\nwith specials").unwrap().add(1);
        let text = prometheus_text(&reg);
        assert!(text.contains(r"# HELP weird_name_with_specials_total weird\\name\nwith specials"));
        // The body never contains a raw newline inside a HELP line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn parse_gives_back_what_prometheus_text_wrote() {
        let reg = MetricRegistry::default();
        reg.counter("psp.sig.hit").unwrap().add(3);
        reg.counter("weird\\name\nwith specials").unwrap().add(1);
        reg.gauge("psp.photos").unwrap().set(-2);
        reg.histogram("empty.hist").unwrap();
        let h = reg.histogram("jpeg.encode").unwrap();
        for v in [0u64, 5, 5, 700, 1 << 41] {
            h.record(v);
        }
        let scrape = parse_prometheus(&prometheus_text(&reg)).unwrap();
        let snap = reg.snapshot();
        assert_eq!(scrape.counters, snap.counters.into_iter().collect());
        let gauges: BTreeMap<String, i64> = snap.gauges.into_iter().collect();
        assert_eq!(scrape.gauges, gauges);
        let names: Vec<&String> = scrape.histograms.keys().collect();
        assert_eq!(names, ["empty.hist", "jpeg.encode"]);
        for (name, parsed) in &scrape.histograms {
            assert_eq!(*parsed, reg.histogram(name).unwrap().cumulative(), "{name}");
        }
    }

    #[test]
    fn parse_keeps_labels_and_exposition_names_without_a_dotted_help() {
        let mut text = String::from(
            "# HELP psp_slo_requests_total requests per endpoint\n\
             # TYPE psp_slo_requests_total counter\n\
             psp_slo_requests_total{endpoint=\"upload\"} 4\n\
             # HELP psp_slo_latency_us request latency\n\
             # TYPE psp_slo_latency_us histogram\n",
        );
        let h = crate::Histogram::new();
        for v in [3u64, 40, 40, 900] {
            h.record(v);
        }
        write_prom_histogram(
            &mut text,
            "psp_slo_latency_us",
            "endpoint=\"upload\"",
            &h.cumulative(),
        );
        let scrape = parse_prometheus(&text).unwrap();
        assert_eq!(
            scrape.counters["psp_slo_requests_total{endpoint=\"upload\"}"],
            4
        );
        assert_eq!(
            scrape.histograms["psp_slo_latency_us{endpoint=\"upload\"}"],
            h.cumulative()
        );
        for bad in [
            "orphan 1\n",
            "# TYPE c counter\nc 1.5\n",
            "# TYPE c counter\nother_total 1\n",
            "# TYPE h histogram\nh_bucket 1\n",
            "# TYPE s summary\ns 1\n",
        ] {
            assert!(parse_prometheus(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parsed_quantiles_are_within_one_bucket_at_us_and_ns_scale() {
        // A skewed stream: most observations near the base, a long tail.
        for base in [80u64, 80_000] {
            let reg = MetricRegistry::default();
            let h = reg.histogram("lat").unwrap();
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                h.record(base + (x % 1_000) * (x % 1_000) * base / 1_000);
            }
            let scrape = parse_prometheus(&prometheus_text(&reg)).unwrap();
            let parsed = &scrape.histograms["lat"];
            for q in [0.5, 0.95, 0.99, 1.0] {
                let (got, want) = (parsed.quantile(q), h.quantile(q));
                // A bucket spans at most 1/16 of its lower bound.
                assert!(
                    (got - want).abs() <= want / 16.0 + 1.0,
                    "base {base} q{q}: parsed {got}, recorded {want}"
                );
            }
        }
    }

    #[test]
    fn render_includes_quantile_columns() {
        let reg = MetricRegistry::default();
        reg.counter("c").unwrap().add(1);
        reg.histogram("core.protect").unwrap().record(2_000_000);
        let text = render_stats(&parse_prometheus(&prometheus_text(&reg)).unwrap());
        for needle in ["p50", "p99", "max", "core.protect", "c "] {
            assert!(text.contains(needle), "{needle} missing from {text}");
        }
    }

    #[test]
    fn stats_show_us_and_ns_histograms_in_ms() {
        let reg = MetricRegistry::default();
        for _ in 0..4 {
            reg.histogram("bench.net.transformed_us")
                .unwrap()
                .record(500);
            reg.histogram("core.protect").unwrap().record(2_000_000);
        }
        // A labelled µs family, as the PSP's `/metrics` serves it.
        let mut text = prometheus_text(&reg);
        text.push_str("# HELP psp_slo_latency_us Request latency.\n");
        text.push_str("# TYPE psp_slo_latency_us histogram\n");
        let us = reg
            .histogram("bench.net.transformed_us")
            .unwrap()
            .cumulative();
        write_prom_histogram(&mut text, "psp_slo_latency_us", "endpoint=\"upload\"", &us);
        let scrape = parse_prometheus(&text).unwrap();
        let stats = render_stats(&scrape);
        let p50 = |name: &str| -> f64 {
            let row = stats.lines().find(|l| l.starts_with(name)).unwrap();
            row.split_whitespace().nth(2).unwrap().parse().unwrap()
        };
        for name in ["bench.net.transformed_us", "psp_slo_latency_us{"] {
            assert!((p50(name) - 0.5).abs() < 0.05, "{name}: {stats}");
        }
        assert!((p50("core.protect") - 2.0).abs() < 0.2, "{stats}");
    }
}
