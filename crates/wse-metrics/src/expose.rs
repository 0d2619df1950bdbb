//! Exposition: Prometheus text format and a JSON snapshot, hand-rolled
//! like `wse-prof::report` (the offline build has no serde).
//!
//! The text format follows the Prometheus conventions the scrape parser
//! actually enforces: one `# HELP`/`# TYPE` pair per metric name, sample
//! lines `name{label="value"} value`, and for histograms the cumulative
//! `_bucket{le="..."}` series ending in `le="+Inf"` plus `_sum`/`_count`.
//! CI validates the output with a small python checker, the same way the
//! Chrome-trace export is validated.

use std::fmt::Write as _;

use crate::registry::{bucket_upper_bound, Sample, SampleValue};

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `{k1="v1",k2="v2"}`, or the empty string for an empty label set;
/// `extra` appends one more pair (the histogram `le` label).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // Prometheus spells non-finite values out; NaN should not occur,
        // but never emit something the parser rejects.
        if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    }
}

/// Renders samples in the Prometheus text exposition format.
pub fn prometheus_text(samples: &[Sample]) -> String {
    let mut out = String::with_capacity(64 * samples.len().max(1));
    let mut last_name: Option<&str> = None;
    for s in samples {
        // One HELP/TYPE pair per name; samples of the same family are
        // registered consecutively, so consecutive dedup suffices.
        if last_name != Some(s.name.as_str()) {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", s.name, s.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            SampleValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", s.name, label_block(&s.labels, None));
            }
            SampleValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    fmt_f64(*v)
                );
            }
            SampleValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (i, n) in buckets.iter().enumerate() {
                    cumulative += n;
                    // Collapse empty interior buckets: Prometheus is happy
                    // either way, humans and diffs prefer short output.
                    // Always emit the +Inf bucket.
                    let last = i == buckets.len() - 1;
                    if *n == 0 && !last {
                        continue;
                    }
                    let le = match bucket_upper_bound(i) {
                        Some(b) => b.to_string(),
                        None => "+Inf".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        s.name,
                        label_block(&s.labels, Some(("le", &le)))
                    );
                }
                let _ = writeln!(out, "{}_sum{} {sum}", s.name, label_block(&s.labels, None));
                let _ = writeln!(
                    out,
                    "{}_count{} {count}",
                    s.name,
                    label_block(&s.labels, None)
                );
            }
        }
    }
    out
}

/// Renders samples as a standalone JSON document:
/// `{"metrics": [{"name": ..., "type": ..., "labels": {...}, ...}]}`.
pub fn json_snapshot(samples: &[Sample]) -> String {
    let mut out = String::with_capacity(96 * samples.len().max(1));
    out.push_str("{\n  \"metrics\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let labels = s
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, ",
            escape_json(&s.name)
        );
        match &s.value {
            SampleValue::Counter(v) => {
                let _ = write!(out, "\"type\": \"counter\", \"value\": {v}");
            }
            SampleValue::Gauge(v) => {
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, "\"type\": \"gauge\", \"value\": {v}");
            }
            SampleValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                let bs = buckets
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = write!(
                    out,
                    "\"type\": \"histogram\", \"buckets\": [{bs}], \"sum\": {sum}, \"count\": {count}"
                );
            }
        }
        let _ = writeln!(out, "}}{}", if i + 1 < samples.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::registry::MetricsHub;

    fn demo_hub() -> MetricsHub {
        let hub = MetricsHub::new_live();
        hub.counter("events_total", "Fabric events", &[("engine", "sequential")])
            .add(12);
        hub.gauge("queue_depth", "Queued jobs", &[]).set_u64(3);
        let h = hub.histogram("latency_ns", "Latency", &[]);
        h.observe(0);
        h.observe(5);
        h.observe(5);
        hub
    }

    #[test]
    fn prometheus_text_has_help_type_and_samples() {
        let text = demo_hub().prometheus_text();
        assert!(text.contains("# HELP events_total Fabric events\n"));
        assert!(text.contains("# TYPE events_total counter\n"));
        assert!(text.contains("events_total{engine=\"sequential\"} 12\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 3\n"));
        assert!(text.contains("# TYPE latency_ns histogram\n"));
        // 0 → bucket 0 (le="0"); two 5s → bucket 3 (le="7"); cumulative.
        assert!(text.contains("latency_ns_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("latency_ns_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("latency_ns_sum 10\n"));
        assert!(text.contains("latency_ns_count 3\n"));
    }

    #[test]
    fn histogram_bucket_series_is_cumulative_and_ends_at_count() {
        let hub = MetricsHub::new_live();
        let h = hub.histogram("h", "h", &[]);
        for v in 0..100u64 {
            h.observe(v);
        }
        let text = hub.prometheus_text();
        let inf = text
            .lines()
            .find(|l| l.starts_with("h_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket always present");
        assert_eq!(inf, "h_bucket{le=\"+Inf\"} 100");
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("h_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "cumulative series must be monotone: {line}");
            prev = v;
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let hub = MetricsHub::new_live();
        hub.counter("x_total", "x", &[("path", "a\"b\\c\nd")]).inc();
        let text = hub.prometheus_text();
        assert!(text.contains("x_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
        let json = hub.json_snapshot();
        assert!(json.contains("\"path\": \"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn json_snapshot_is_balanced_and_complete() {
        let json = demo_hub().json_snapshot();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"name\": \"events_total\""));
        assert!(json.contains("\"type\": \"counter\", \"value\": 12"));
        assert!(json.contains("\"sum\": 10, \"count\": 3"));
        // A null hub still produces a valid document.
        assert_eq!(
            MetricsHub::Null.json_snapshot(),
            "{\n  \"metrics\": [\n  ]\n}\n"
        );
    }
}
