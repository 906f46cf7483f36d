//! Prometheus text exposition (format version 0.0.4) for the metrics
//! registry — and for any other store that wants to publish series
//! through the same writer (the server's always-on command-latency
//! histograms use it too).
//!
//! # Name mapping
//!
//! Registry names are dotted (`"mgba.fit.rows"`); Prometheus names are
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`. The mapping is mechanical and stable:
//!
//! - every character outside the legal set becomes `_`
//!   (`mgba.fit.rows` → `mgba_fit_rows`);
//! - counters gain the conventional `_total` suffix
//!   (`server.requests.ping` → `server_requests_ping_total`);
//! - gauges and histograms keep the sanitized name unchanged.
//!
//! # Histograms
//!
//! The registry's log₂ buckets carry *per-bucket* counts over the
//! contiguous non-empty range ([`crate::metrics::HistogramSnapshot`]);
//! the exposition format wants **cumulative** counts plus a final
//! `le="+Inf"` bucket equal to `_count`. [`PromWriter`] performs that
//! conversion, so scrapers see a conformant histogram regardless of the
//! registry's internal trimming.
//!
//! [`validate`] is a conformance checker for the subset of the format
//! this module emits; the unit and integration suites run every encoder
//! output through it.

use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

/// The HTTP `Content-Type` a scrape endpoint should declare for this
/// output.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Maps an arbitrary registry name onto the Prometheus grammar:
/// illegal characters become `_`, and a leading digit gains a `_`
/// prefix.
pub fn sanitize_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, c) in raw.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if legal {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders a sample value: finite floats in shortest round-trip form,
/// infinities as `+Inf`/`-Inf` (the exposition spelling), NaN as `NaN`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v:?}")
    }
}

/// Incremental builder for one exposition document. Callers group
/// output by metric family: `# HELP` / `# TYPE` once, then the family's
/// samples.
#[derive(Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {}", fmt_value(value));
    }

    /// One counter family with a single unlabeled sample. `name` must
    /// already be sanitized and carry the `_total` suffix.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// One gauge family with a single unlabeled sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// Opens a gauge family (`# HELP`/`# TYPE` lines). Follow with one
    /// [`sample_labels`](Self::sample_labels) per label set.
    pub fn gauge_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "gauge");
    }

    /// Opens a counter family. Follow with
    /// [`sample_labels`](Self::sample_labels); `name` must already carry
    /// the `_total` suffix.
    pub fn counter_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "counter");
    }

    /// Emits one labeled sample under an already-open family (e.g. a
    /// `{session="a"}` gauge series).
    pub fn sample_labels(&mut self, name: &str, label_set: &[(&str, &str)], value: f64) {
        let labels: Vec<(&str, String)> = label_set
            .iter()
            .map(|(k, v)| (*k, (*v).to_owned()))
            .collect();
        self.sample(name, &labels, value);
    }

    /// Opens a histogram family (`# HELP`/`# TYPE` lines). Follow with
    /// one [`histogram_series_labels`](Self::histogram_series_labels)
    /// per label set.
    pub fn histogram_family(&mut self, name: &str, help: &str) {
        self.header(name, help, "histogram");
    }

    /// Emits one histogram series under an open family, with the label
    /// set in the given order (e.g. `{session="a",cmd="wns"}`, or none):
    /// cumulative `_bucket` samples from per-bucket `(upper_bound,
    /// count)` pairs, the mandatory `le="+Inf"` bucket, then `_sum` and
    /// `_count`.
    pub fn histogram_series_labels(
        &mut self,
        name: &str,
        label_set: &[(&str, &str)],
        buckets: &[(f64, u64)],
        count: u64,
        sum: f64,
    ) {
        let base: Vec<(&str, String)> = label_set
            .iter()
            .map(|(k, v)| (*k, (*v).to_owned()))
            .collect();
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for &(le, c) in buckets {
            if !le.is_finite() {
                // The registry's overflow bucket; folded into +Inf below.
                cumulative += c;
                continue;
            }
            cumulative += c;
            let mut labels = base.clone();
            labels.push(("le", fmt_value(le)));
            self.sample(&bucket_name, &labels, cumulative as f64);
        }
        let mut labels = base.clone();
        labels.push(("le", "+Inf".into()));
        self.sample(&bucket_name, &labels, count as f64);
        self.sample(&format!("{name}_sum"), &base, sum);
        self.sample(&format!("{name}_count"), &base, count as f64);
    }

    /// Consumes the writer and returns the document (newline-terminated).
    pub fn finish(self) -> String {
        self.out
    }
}

/// Encodes a metrics-registry snapshot as one exposition document.
pub fn encode(snapshot: &MetricsSnapshot) -> String {
    let mut w = PromWriter::new();
    for (name, value) in &snapshot.counters {
        let mut prom = sanitize_name(name);
        if !prom.ends_with("_total") {
            prom.push_str("_total");
        }
        w.counter(&prom, &format!("obs counter `{name}`"), *value);
    }
    for (name, value) in &snapshot.gauges {
        w.gauge(&sanitize_name(name), &format!("obs gauge `{name}`"), *value);
    }
    for h in &snapshot.histograms {
        let prom = sanitize_name(&h.name);
        w.histogram_family(&prom, &format!("obs histogram `{}`", h.name));
        w.histogram_series_labels(&prom, &[], &h.buckets, h.count, h.sum);
    }
    w.finish()
}

/// Conformance checker for the exposition subset this module emits.
///
/// Verifies that every line is a `# HELP`, `# TYPE`, or sample line;
/// that every sample's family is typed before its first sample; that
/// metric names match the Prometheus grammar; and that each histogram
/// series has non-decreasing cumulative buckets ending in an
/// `le="+Inf"` bucket equal to its `_count`, plus a `_sum`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;

    if text.is_empty() {
        return Ok(());
    }
    if !text.ends_with('\n') {
        return Err("document must end with a newline".into());
    }
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn parse_value(s: &str) -> Result<f64, String> {
        match s {
            "+Inf" => Ok(f64::INFINITY),
            "-Inf" => Ok(f64::NEG_INFINITY),
            "NaN" => Ok(f64::NAN),
            other => other.parse().map_err(|_| format!("bad value `{other}`")),
        }
    }

    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, series labels without `le`) → cumulative bucket values.
    let mut hist_buckets: BTreeMap<(String, String), Vec<(String, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut hist_sums: BTreeMap<(String, String), f64> = BTreeMap::new();

    for (ln, line) in text.lines().enumerate() {
        let ctx = |msg: String| format!("line {}: {msg}", ln + 1);
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_name(name) {
                        return Err(ctx(format!("bad HELP name `{name}`")));
                    }
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(ctx(format!("bad TYPE kind `{kind}`")));
                    }
                    if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                        return Err(ctx(format!("duplicate TYPE for `{name}`")));
                    }
                }
                other => return Err(ctx(format!("unknown comment keyword `{other}`"))),
            }
            continue;
        }
        if line.is_empty() {
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| ctx("sample line without value".into()))?;
        let value = parse_value(value).map_err(ctx)?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| ctx("unterminated label set".into()))?;
                (n, labels)
            }
            None => (name_labels, ""),
        };
        if !valid_name(name) {
            return Err(ctx(format!("bad metric name `{name}`")));
        }
        // Resolve the family: histogram child samples hang off the base
        // name; everything else is its own family.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(ctx(format!("sample `{name}` has no preceding TYPE")));
        }
        if types.get(family).map(String::as_str) == Some("histogram") {
            let mut le: Option<String> = None;
            let mut series = Vec::new();
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| ctx(format!("bad label `{pair}`")))?;
                let v = v.trim_matches('"').to_owned();
                if k == "le" {
                    le = Some(v);
                } else {
                    series.push(format!("{k}={v}"));
                }
            }
            let key = (family.to_owned(), series.join(","));
            if name.ends_with("_bucket") {
                let le = le.ok_or_else(|| ctx("bucket sample without le".into()))?;
                hist_buckets.entry(key).or_default().push((le, value));
            } else if name.ends_with("_count") {
                hist_counts.insert(key, value);
            } else if name.ends_with("_sum") {
                hist_sums.insert(key, value);
            }
        }
    }
    for ((family, series), buckets) in &hist_buckets {
        let at = |msg: String| format!("histogram `{family}`{{{series}}}: {msg}");
        let mut prev = 0.0f64;
        for (le, v) in buckets {
            if *v < prev {
                return Err(at(format!("bucket le={le} decreases ({v} < {prev})")));
            }
            prev = *v;
        }
        let (last_le, last_v) = buckets.last().expect("non-empty");
        if last_le != "+Inf" {
            return Err(at("missing le=\"+Inf\" bucket".into()));
        }
        let count = hist_counts
            .get(&(family.clone(), series.clone()))
            .ok_or_else(|| at("missing _count sample".into()))?;
        if last_v != count {
            return Err(at(format!("+Inf bucket {last_v} != _count {count}")));
        }
        if !hist_sums.contains_key(&(family.clone(), series.clone())) {
            return Err(at("missing _sum sample".into()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("mgba.fit.rows"), "mgba_fit_rows");
        assert_eq!(
            sanitize_name("server.latency_us.ping"),
            "server_latency_us_ping"
        );
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn encode_registry_snapshot_conforms() {
        let _l = testlock::hold();
        crate::set_enabled(true);
        crate::counter_add("mgba.paths_selected", 840);
        crate::gauge_set("mgba.mse_after", 1.25e-3);
        crate::observe("server.latency_us.wns", 12.0);
        crate::observe("server.latency_us.wns", 900.0);
        crate::set_enabled(false);
        let text = encode(&crate::metrics::snapshot());
        validate(&text).expect("conformant exposition");
        assert!(text.contains("# TYPE mgba_paths_selected_total counter"));
        assert!(text.contains("mgba_paths_selected_total 840"));
        assert!(text.contains("# TYPE mgba_mse_after gauge"));
        assert!(text.contains("# TYPE server_latency_us_wns histogram"));
        assert!(text.contains("server_latency_us_wns_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut w = PromWriter::new();
        w.histogram_family("h", "test");
        w.histogram_series_labels("h", &[], &[(1.0, 3), (2.0, 0), (4.0, 2)], 5, 9.5);
        let text = w.finish();
        validate(&text).expect("conformant");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[2], "h_bucket{le=\"1.0\"} 3.0");
        assert_eq!(lines[3], "h_bucket{le=\"2.0\"} 3.0");
        assert_eq!(lines[4], "h_bucket{le=\"4.0\"} 5.0");
        assert_eq!(lines[5], "h_bucket{le=\"+Inf\"} 5.0");
        assert_eq!(lines[6], "h_sum 9.5");
        assert_eq!(lines[7], "h_count 5.0");
    }

    #[test]
    fn labeled_series_share_one_family() {
        let mut w = PromWriter::new();
        w.histogram_family("lat", "per-command latency");
        w.histogram_series_labels("lat", &[("cmd", "ping")], &[(1.0, 1)], 1, 0.5);
        w.histogram_series_labels("lat", &[("cmd", "wns")], &[(2.0, 2)], 2, 3.0);
        let text = w.finish();
        validate(&text).expect("conformant");
        assert_eq!(text.matches("# TYPE lat histogram").count(), 1);
        assert!(text.contains("lat_bucket{cmd=\"ping\",le=\"1.0\"} 1.0"));
        assert!(text.contains("lat_count{cmd=\"wns\"} 2.0"));
    }

    #[test]
    fn labeled_gauge_and_counter_families() {
        let mut w = PromWriter::new();
        w.gauge_family("g", "per-session gauge");
        w.sample_labels("g", &[("session", "a")], 1.5);
        w.sample_labels("g", &[("session", "b")], -2.0);
        w.counter_family("c_total", "per-session counter");
        w.sample_labels("c_total", &[("session", "a")], 7.0);
        let text = w.finish();
        validate(&text).expect("conformant");
        assert_eq!(text.matches("# TYPE g gauge").count(), 1);
        assert!(text.contains("g{session=\"a\"} 1.5"));
        assert!(text.contains("g{session=\"b\"} -2.0"));
        assert!(text.contains("c_total{session=\"a\"} 7.0"));
    }

    #[test]
    fn overflow_bucket_folds_into_inf() {
        let mut w = PromWriter::new();
        w.histogram_family("h", "overflow");
        // Registry snapshots can end in the +∞ overflow bucket.
        w.histogram_series_labels("h", &[], &[(4.0, 1), (f64::INFINITY, 2)], 3, 100.0);
        let text = w.finish();
        validate(&text).expect("conformant");
        assert!(text.contains("h_bucket{le=\"4.0\"} 1.0"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3.0"));
        // No literal "inf" bucket label besides +Inf.
        assert_eq!(text.matches("le=\"inf\"").count(), 0);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for (bad, why) in [
            ("metric_a 1", "no trailing newline"),
            ("metric_a 1\n", "sample without TYPE"),
            ("# TYPE m counter\nm one\n", "non-numeric value"),
            ("# TYPE 3bad counter\n3bad 1\n", "bad name"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1.0\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
                "decreasing cumulative",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1.0\"} 1\nh_sum 1\nh_count 1\n",
                "missing +Inf",
            ),
        ] {
            assert!(validate(bad).is_err(), "validator accepted: {why}");
        }
    }

    #[test]
    fn escapes_label_and_help_text() {
        let mut w = PromWriter::new();
        w.gauge("g", "line\nbreak \\ slash", 1.0);
        w.histogram_family("h", "h");
        w.histogram_series_labels("h", &[("cmd", "a\"b")], &[(1.0, 1)], 1, 1.0);
        let text = w.finish();
        validate(&text).expect("conformant");
        assert!(text.contains("# HELP g line\\nbreak \\\\ slash"));
        assert!(text.contains("cmd=\"a\\\"b\""));
    }
}
