//! The metrics a run reports: their names, units and directions (the
//! same as `BENCHMARK.json` lists), the printed table and the final JSON
//! line.

use std::collections::BTreeMap;

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What it measures, or for a layer metric which end-to-end metric
    /// of which workload it should move.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// Reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "ops_per_s",
        "1/s",
        "higher",
        "median over ten slices of the window of operations per second",
    ),
    m(
        "p50_us",
        "us",
        "lower",
        "median over ten slices of the window of median latency",
    ),
    m("setup_s", "s", "lower", "median of five set-ups"),
    m(
        "peak_rss_mb",
        "MB",
        "lower",
        "VmHWM less the resident memory before: set-up median (cluster: window)",
    ),
];

/// Reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("jpeg.decode_us", "us", "lower", "share p50_us, ops_per_s"),
    m("jpeg.encode_us", "us", "lower", "share p50_us, ops_per_s"),
    m("jpeg.to_rgb_us", "us", "lower", "share p50_us, ops_per_s"),
    m("core.protect_us", "us", "lower", "share p50_us"),
    m("core.protect_coeff_us", "us", "lower", "share p50_us"),
    m("core.recover_transformed_us", "us", "lower", "share p50_us"),
    m(
        "core.shadow_floor_miss_ratio",
        "ratio",
        "lower",
        "share: pixel-domain recoveries missing the conformance rule",
    ),
    m("transform.coeff_us", "us", "lower", "share p50_us, p99"),
    m("transform.pixel_us", "us", "lower", "share p50_us, p99"),
    m("store.upload_us", "us", "lower", "share p50_us"),
    m("store.transformed_miss_us", "us", "lower", "share p50_us"),
    m(
        "store.transformed_hit_us",
        "us",
        "lower",
        "view p50_us, ops_per_s",
    ),
    m("store.download_us", "us", "lower", "view p50_us, ops_per_s"),
    m(
        "store.cache_hit_ratio",
        "ratio",
        "higher",
        "view p50_us, ops_per_s",
    ),
    m("store.coeff_serve_ratio", "ratio", "higher", "share p50_us"),
    m("sig.probe_us", "us", "lower", "share p50_us (upload path)"),
    m("sig.search_us", "us", "lower", "view p99 (search)"),
    m(
        "sig.scanned_per_query",
        "count",
        "lower",
        "view p99 (search)",
    ),
    m("sig.cached_ratio", "ratio", "higher", "share p50_us"),
    m(
        "disk.upload_us",
        "us",
        "lower",
        "share p50_us, p99; view disk.restart_s",
    ),
    m("wal.append_us", "us", "lower", "share p50_us, p99"),
    m(
        "disk.restart_s",
        "s",
        "lower",
        "view: Server::bind until /readyz 200 on its 80 photos",
    ),
    m(
        "disk.write_bytes_per_upload_byte",
        "ratio",
        "lower",
        "share p99; view disk.restart_s",
    ),
    m("net.roundtrip_us", "us", "lower", "view p50_us, ops_per_s"),
    m("net.overhead_us", "us", "lower", "view p50_us, ops_per_s"),
    m(
        "net.tcp_segments_per_request",
        "count",
        "lower",
        "view p50_us, ops_per_s",
    ),
    m(
        "net.connect_us",
        "us",
        "lower",
        "no end-to-end metric (keep-alive workloads)",
    ),
    m("cluster.upload_us", "us", "lower", "cluster, every metric"),
    m(
        "cluster.reconstruct_us",
        "us",
        "lower",
        "cluster, every metric",
    ),
    m(
        "shamir.split_mb_s",
        "MB/s",
        "higher",
        "cluster, every metric",
    ),
    m(
        "shamir.reconstruct_mb_s",
        "MB/s",
        "higher",
        "cluster, every metric",
    ),
    m("parallel.fanout_us", "us", "lower", "cluster p99"),
    m(
        "obs.overhead_pct",
        "%",
        "lower",
        "none: the cost of tracing itself",
    ),
];

/// Measured values by metric name, each with a note (sample count or
/// the base of a ratio) for the table.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, (f64, String)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.insert(name, (value, note.into()));
    }

    /// The table of `defs` and the final JSON line. Fails if a metric is
    /// missing or not a finite number.
    pub fn render(
        &self,
        defs: &[MetricDef],
        attempted: u64,
        failed: u64,
    ) -> Result<(Vec<String>, String), String> {
        let mut table = vec![format!(
            "{:<34} {:>14} {:<6} {:<6} {:<14} {}",
            "metric", "value", "unit", "better", "note", "about"
        )];
        let mut json = Vec::with_capacity(defs.len());
        for d in defs {
            let (value, note) = self
                .0
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not a number: {value}", d.name));
            }
            table.push(format!(
                "{:<34} {:>14.3} {:<6} {:<6} {:<14} {}",
                d.name, value, d.unit, d.better, note, d.about
            ));
            json.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        table.push(format!(
            "{:<34} {:>14} {:<6} {:<6} {}/{attempted} operations failed",
            "failed_ratio",
            format!("{:.6}", failed as f64 / attempted.max(1) as f64),
            "ratio",
            "lower",
            failed
        ));
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            json.join(", ")
        );
        Ok((table, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just enough JSON to read `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Str(String),
        Num(f64),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    fn parse(text: &str) -> Json {
        let mut pos = 0;
        let v = value(text.as_bytes(), &mut pos);
        skip_ws(text.as_bytes(), &mut pos);
        assert_eq!(pos, text.len(), "trailing text in BENCHMARK.json");
        v
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        skip_ws(b, pos);
        match b[*pos] {
            b'"' => {
                *pos += 1;
                let start = *pos;
                while b[*pos] != b'"' {
                    assert_ne!(b[*pos], b'\\', "escapes are not expected");
                    *pos += 1;
                }
                *pos += 1;
                Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).unwrap())
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    skip_ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(value(b, pos));
                    skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'{' => {
                *pos += 1;
                let mut fields = Vec::new();
                loop {
                    skip_ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = value(b, pos) else {
                        panic!("object key is not a string")
                    };
                    skip_ws(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    fields.push((key, value(b, pos)));
                    skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+')
                {
                    *pos += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*pos])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = obj else {
            panic!("not an object")
        };
        &fields.iter().find(|(k, _)| k == key).unwrap().1
    }

    fn metrics(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let Json::Arr(items) = field(doc, key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|item| {
                let s = |k| match field(item, k) {
                    Json::Str(s) => s.clone(),
                    other => panic!("{k} is {other:?}"),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn defs(list: &[MetricDef]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_reported_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json"));
        assert_eq!(metrics(&doc, "end_to_end"), defs(END_TO_END));
        assert_eq!(metrics(&doc, "per_layer"), defs(PER_LAYER));
    }

    #[test]
    fn the_json_line_carries_every_metric_with_its_unit() {
        let mut values = Values::default();
        for d in END_TO_END {
            values.set(d.name, 1.5, "");
        }
        let (table, line) = values.render(END_TO_END, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        for d in END_TO_END {
            let entry = format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
            assert!(line.contains(&entry), "{entry} missing from {line}");
            assert!(table.iter().any(|row| row.starts_with(d.name)));
        }
        let (_, failed) = values.render(END_TO_END, 10, 1).unwrap();
        assert!(failed.starts_with("{\"correct\": false"));
        let partial = Values::default();
        assert!(partial.render(END_TO_END, 10, 0).is_err());
    }
}
