//! Point-in-time views of a [`Registry`](crate::Registry) and their
//! rendering in the Prometheus text exposition format.
//!
//! A [`MetricsSnapshot`] is plain data — cloneable, inspectable in tests,
//! embeddable in bench artifacts — decoupled from the live atomics it was
//! read from. The Prometheus rendering is what the network front door's
//! metrics request serves verbatim.

use crate::histogram::HistogramSnapshot;
use std::fmt::Write as _;

/// The unit of a metric's raw recorded values, driving exposition
/// scaling: nanosecond histograms render as seconds (the Prometheus base
/// unit); counts and bytes render unscaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless events (requests, attaches, evictions).
    Count,
    /// Durations recorded as whole nanoseconds; rendered as seconds.
    Nanoseconds,
    /// Sizes in bytes; rendered unscaled.
    Bytes,
}

impl Unit {
    /// Divisor from raw recorded units into rendered units.
    pub fn scale(self) -> f64 {
        match self {
            Unit::Nanoseconds => 1e9,
            Unit::Count | Unit::Bytes => 1.0,
        }
    }
}

/// What kind of instrument a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous level.
    Gauge,
    /// Log-linear distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample's captured value.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A full histogram state.
    Histogram(HistogramSnapshot),
}

/// One labeled series within a family, as captured at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Label pairs, sorted by label name (empty for unlabeled series).
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SampleValue,
}

/// One metric family: a name plus every labeled series registered under
/// it, sharing a kind, a help string, and a unit.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricFamily {
    /// Metric name (already in final exposition form, e.g.
    /// `rtr_serve_latency_seconds`).
    pub name: String,
    /// One-line description for `# HELP`.
    pub help: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Raw-value unit (drives rendering scale).
    pub unit: Unit,
    /// The captured series, sorted by label set.
    pub samples: Vec<Sample>,
}

/// A point-in-time capture of every metric in a registry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<MetricFamily>,
}

/// Format a float for exposition: plain decimal, up to 9 significant
/// decimals, trailing zeros trimmed — `0.00125`, never `1.25e-3`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    let s = format!("{v:.9}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_owned()
    } else {
        s.to_owned()
    }
}

/// Escape a label value or help string for the Prometheus text: backslash,
/// double quote, and newline.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect::<Vec<_>>()
        .join(",")
}

impl MetricsSnapshot {
    /// Look up a counter's value by family name and exact label set
    /// (order-insensitive). `None` when absent or not a counter.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Look up a gauge's value. `None` when absent or not a gauge.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.find(name, labels)? {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Look up a histogram sample. `None` when absent or not a histogram.
    pub fn histogram_value(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        match self.find(name, labels)? {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum a counter family across all its label sets (0 when the family
    /// is absent or empty).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.samples)
            .map(|s| match &s.value {
                SampleValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Sum every histogram sample of a family into one merged snapshot.
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::empty();
        for family in self.families.iter().filter(|f| f.name == name) {
            for sample in &family.samples {
                if let SampleValue::Histogram(h) = &sample.value {
                    total.merge(h);
                }
            }
        }
        total
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        want.sort();
        let family = self.families.iter().find(|f| f.name == name)?;
        family
            .samples
            .iter()
            .find(|s| s.labels == want)
            .map(|s| &s.value)
    }

    /// Render as [Prometheus text exposition format]: `# HELP` / `# TYPE`
    /// per family, one line per series, histograms as cumulative
    /// `_bucket{le=...}` series (non-empty buckets plus `+Inf`) with
    /// `_sum` and `_count`. Nanosecond histograms are scaled to seconds.
    ///
    /// [Prometheus text exposition format]:
    ///     https://prometheus.io/docs/instrumenting/exposition_formats/
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.name());
            for sample in &family.samples {
                let labels = render_labels(&sample.labels);
                match &sample.value {
                    SampleValue::Counter(v) => {
                        let wrap = if labels.is_empty() {
                            String::new()
                        } else {
                            format!("{{{labels}}}")
                        };
                        let _ = writeln!(out, "{}{wrap} {v}", family.name);
                    }
                    SampleValue::Gauge(v) => {
                        let wrap = if labels.is_empty() {
                            String::new()
                        } else {
                            format!("{{{labels}}}")
                        };
                        let _ = writeln!(out, "{}{wrap} {v}", family.name);
                    }
                    SampleValue::Histogram(h) => {
                        h.render_prometheus(&mut out, &family.name, &labels, family.unit.scale());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn formats_floats_plainly() {
        assert_eq!(fmt_f64(0.00125), "0.00125");
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "0");
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_series() {
        let r = Registry::new();
        r.counter("test_requests_total", "Requests served.").add(7);
        r.gauge("test_depth", "Queue depth.").set(-2);
        let h = r.histogram_with(
            "test_latency_seconds",
            &[("measure", "rtr")],
            "Latency.",
            Unit::Nanoseconds,
            1,
        );
        h.record(1_000_000); // 1 ms
        h.record(2_000_000);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# HELP test_requests_total Requests served."));
        assert!(text.contains("# TYPE test_requests_total counter"));
        assert!(text.contains("test_requests_total 7"));
        assert!(text.contains("# TYPE test_depth gauge"));
        assert!(text.contains("test_depth -2"));
        assert!(text.contains("# TYPE test_latency_seconds histogram"));
        assert!(text.contains("test_latency_seconds_bucket{measure=\"rtr\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_latency_seconds_count{measure=\"rtr\"} 2"));
        // The sum is 3 ms, scaled to seconds.
        assert!(text.contains("test_latency_seconds_sum{measure=\"rtr\"} 0.003"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_monotone() {
        let r = Registry::new();
        let h = r.histogram_with("t_hist", &[], "h", Unit::Count, 1);
        for v in [1u64, 1, 50, 5_000, 5_000, 5_000] {
            h.record(v);
        }
        let text = r.snapshot().to_prometheus();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("t_hist_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative counts must be monotone: {line}");
            last = v;
            bucket_lines += 1;
        }
        assert!(bucket_lines >= 4, "3 distinct buckets + +Inf");
        assert_eq!(last, 6, "+Inf bucket holds every sample");
    }

    #[test]
    fn lookup_helpers_find_samples() {
        let r = Registry::new();
        r.counter_with("l_total", &[("worker", "0")], "c").add(4);
        r.counter_with("l_total", &[("worker", "1")], "c").add(5);
        r.gauge("l_depth", "g").set(11);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("l_total", &[("worker", "1")]), Some(5));
        assert_eq!(snap.counter_total("l_total"), 9);
        assert_eq!(snap.gauge_value("l_depth", &[]), Some(11));
        assert_eq!(snap.counter_value("missing", &[]), None);
    }
}
