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

fn render(scrape: &Scrape, prev: Option<&Scrape>, interval_ms: u64) -> String {
    let mut out = String::new();
    // fold, not sum(): an empty f64 sum() is -0.0, which prints as "-0".
    let total = |name: &str| series(scrape, name).map(|(_, v)| v).fold(0.0, |a, b| a + b);
    let requests = total("psp_net_requests_total");
    let errors = total("psp_net_errors_total");
    let rate = prev
        .map(|p| {
            let dr = requests - p.get("psp_net_requests_total").copied().unwrap_or(0.0);
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

pub fn cmd(args: &[String]) -> CliResult {
    let addr = flag_value(args, "--addr").ok_or("missing --addr <host:port>")?;
    let samples: u64 = match flag_value(args, "--samples") {
        Some(v) => v.parse().map_err(|e| format!("bad --samples: {e}"))?,
        None => u64::MAX,
    };
    let interval_ms: u64 = match flag_value(args, "--interval-ms") {
        Some(v) => v.parse().map_err(|e| format!("bad --interval-ms: {e}"))?,
        None => 1000,
    };
    let plain = has_flag(args, "--plain");
    let assert_monotonic = has_flag(args, "--assert-monotonic");
    let assert_nonzero = flag_values(args, "--assert-nonzero");
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut prev: Option<Scrape> = None;
    let mut last = Scrape::new();
    for i in 0..samples.max(1) {
        let text = match client.metrics_text() {
            Ok(t) => t,
            Err(_) => {
                // The connection may have idled out; one reconnect attempt.
                client = Client::connect(addr).map_err(|e| e.to_string())?;
                client.metrics_text().map_err(|e| e.to_string())?
            }
        };
        let scrape = parse_scrape(&text);
        if scrape.is_empty() {
            return Err("scrape parsed to zero series — is /metrics serving?".into());
        }
        if assert_monotonic {
            if let Some(p) = &prev {
                let bad = regressions(p, &scrape);
                if !bad.is_empty() {
                    return Err(format!("counter(s) went backwards: {}", bad.join("; ")));
                }
            }
        }
        if !plain {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render(&scrape, prev.as_ref(), interval_ms));
        if plain {
            println!("---");
        }
        last = scrape.clone();
        prev = Some(scrape);
        if i + 1 < samples {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    for needle in assert_nonzero {
        let hit = last.iter().any(|(k, v)| k.contains(needle) && *v > 0.0);
        if !hit {
            return Err(format!("no series matching {needle:?} is nonzero"));
        }
        println!("assert-nonzero ok: {needle}");
    }
    if assert_monotonic {
        println!("assert-monotonic ok: no *_total series decreased");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP psp_net_requests_total psp.net.requests\n\
# TYPE psp_net_requests_total counter\n\
psp_net_requests_total 42\n\
psp_slo_requests_total{endpoint=\"upload\"} 17\n\
psp_slo_window_p99_us{endpoint=\"upload\"} 1234.5\n\
psp_ready 1\n";

    #[test]
    fn scrape_parses_values_and_labels() {
        let s = parse_scrape(SAMPLE);
        assert_eq!(s.get("psp_net_requests_total"), Some(&42.0));
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
        after.insert("psp_net_requests_total".into(), 41.0);
        // Gauges may move freely; only *_total decreases are violations.
        after.insert("psp_ready".into(), 0.0);
        let bad = regressions(&before, &after);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("psp_net_requests_total"));
    }

    #[test]
    fn render_builds_the_endpoint_table() {
        let s = parse_scrape(SAMPLE);
        let text = render(&s, None, 1000);
        assert!(text.contains("requests:42"));
        assert!(text.contains("upload"));
        assert!(text.contains("1.23"));
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
}
