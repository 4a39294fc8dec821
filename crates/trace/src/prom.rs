//! Prometheus text exposition (format version 0.0.4): a builder for
//! rendering counters, gauges, and histograms, and a line-format
//! validator for round-trip checks in CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Builds one exposition document: `# HELP` / `# TYPE` headers followed
/// by sample lines, in the order families are added.
#[derive(Debug, Default)]
pub struct Exposition {
    buf: String,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

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

fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else if v.is_nan() {
        "NaN".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn zip_labels<'a, V: AsRef<str>>(names: &[&'a str], values: &'a [V]) -> Vec<(&'a str, &'a str)> {
    let values = values.iter().map(AsRef::as_ref);
    names.iter().copied().zip(values).collect()
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        debug_assert!(valid_name(name), "bad metric name {name}");
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Starts a counter family.
    pub fn counter<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.header(name, help, "counter");
        Family { doc: self, name }
    }

    /// Starts a gauge family.
    pub fn gauge<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.header(name, help, "gauge");
        Family { doc: self, name }
    }

    /// Adds one sample line to the most recently started family.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(
            self.buf,
            "{name}{} {}",
            render_labels(labels),
            fmt_value(value)
        );
    }

    /// Starts a histogram family and renders one labeled series per row
    /// `(label values, buckets, sum, count)`: cumulative
    /// `(upper_bound, count)` buckets (an implicit `+Inf` bucket equal to
    /// `count` is appended), then `_sum` and `_count`.
    pub fn histograms<const N: usize, V: AsRef<str>, B: AsRef<[(f64, u64)]>>(
        &mut self,
        name: &str,
        help: &str,
        label_names: [&str; N],
        rows: impl IntoIterator<Item = ([V; N], B, f64, u64)>,
    ) {
        self.header(name, help, "histogram");
        for (values, buckets, sum, count) in rows {
            let labels = zip_labels(&label_names, &values);
            let bounds = buckets.as_ref().iter().map(|&(le, c)| (fmt_value(le), c));
            for (le, c) in bounds.chain([("+Inf".to_owned(), count)]) {
                let with_le = [labels.as_slice(), &[("le", le.as_str())]].concat();
                let _ = writeln!(self.buf, "{name}_bucket{} {c}", render_labels(&with_le));
            }
            let labels = render_labels(&labels);
            let _ = writeln!(self.buf, "{name}_sum{labels} {}", fmt_value(sum));
            let _ = writeln!(self.buf, "{name}_count{labels} {count}");
        }
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A counter or gauge family just started by [`Exposition::counter`] or
/// [`Exposition::gauge`]: renders its samples under the family's name.
pub struct Family<'a> {
    doc: &'a mut Exposition,
    name: &'a str,
}

impl Family<'_> {
    /// Renders one sample per row: the row's label values under
    /// `label_names`, then its value.
    pub fn rows<const N: usize, V: AsRef<str>>(
        self,
        label_names: [&str; N],
        rows: impl IntoIterator<Item = ([V; N], f64)>,
    ) {
        for (values, value) in rows {
            let labels = zip_labels(&label_names, &values);
            self.doc.sample(self.name, &labels, value);
        }
    }

    /// Renders the family's one label-less sample.
    pub fn value(self, value: f64) {
        self.doc.sample(self.name, &[], value);
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |what: &str| format!("line {lineno}: {what}: `{line}`");
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .ok_or_else(|| err("sample without value"))?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let rest = if line[name_end..].starts_with('{') {
        let mut chars = line[name_end + 1..].char_indices().peekable();
        let base = name_end + 1;
        loop {
            // Label name up to '='.
            let start = match chars.peek() {
                Some(&(i, '}')) => {
                    chars.next();
                    break &line[base + i + 1..];
                }
                Some(&(i, _)) => i,
                None => return Err(err("unterminated label set")),
            };
            let mut eq = None;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
            }
            let eq = eq.ok_or_else(|| err("label without `=`"))?;
            let lname = &line[base + start..base + eq];
            if !valid_name(lname) {
                return Err(err("invalid label name"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(err("label value must be quoted")),
            }
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        _ => return Err(err("bad escape in label value")),
                    },
                    Some((_, '"')) => break,
                    Some((_, c)) => value.push(c),
                    None => return Err(err("unterminated label value")),
                }
            }
            labels.push((lname.to_owned(), value));
            match chars.next() {
                Some((_, ',')) => {}
                Some((i, '}')) => break &line[base + i + 1..],
                _ => return Err(err("expected `,` or `}` after label")),
            }
        }
    } else {
        &line[name_end..]
    };
    let mut tokens = rest.split_ascii_whitespace();
    let value = tokens.next().ok_or_else(|| err("missing value"))?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| err("value is not a number"))?,
    };
    // An optional integer timestamp may follow; anything else is junk.
    if let Some(ts) = tokens.next() {
        if ts.parse::<i64>().is_err() {
            return Err(err("trailing junk after value"));
        }
    }
    if tokens.next().is_some() {
        return Err(err("trailing junk after timestamp"));
    }
    Ok(Sample {
        name: name.to_owned(),
        labels,
        value,
    })
}

fn base_name<'a>(name: &'a str, suffix: &str) -> Option<&'a str> {
    name.strip_suffix(suffix)
}

/// Validates a text exposition document: header grammar, sample-line
/// grammar, types declared before use, and histogram coherence (buckets
/// cumulative and non-decreasing in `le`, `+Inf` bucket equal to
/// `_count`). Returns the number of sample lines.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("HELP") => {
                    let name = parts
                        .next()
                        .ok_or(format!("line {lineno}: HELP without name"))?;
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: HELP with invalid name `{name}`"));
                    }
                }
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE without name"))?;
                    let kind = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE without kind"))?;
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: TYPE with invalid name `{name}`"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE `{kind}`"));
                    }
                    types.insert(name.to_owned(), kind.to_owned());
                }
                _ => {} // free-form comment: legal
            }
            continue;
        }
        samples.push(parse_sample(line, lineno)?);
    }

    // Histogram coherence: group bucket series by (family, labels\le).
    type SeriesKey = (String, String);
    let mut buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    for s in &samples {
        let family = |suffix: &str| -> Option<String> {
            base_name(&s.name, suffix)
                .filter(|b| types.get(*b).is_some_and(|t| t == "histogram"))
                .map(str::to_owned)
        };
        if let Some(fam) = family("_bucket") {
            let mut le = None;
            let mut rest: Vec<String> = Vec::new();
            for (k, v) in &s.labels {
                if k == "le" {
                    le = Some(match v.as_str() {
                        "+Inf" => f64::INFINITY,
                        v => v
                            .parse::<f64>()
                            .map_err(|_| format!("`{fam}`: bucket with bad le `{v}`"))?,
                    });
                } else {
                    rest.push(format!("{k}={v}"));
                }
            }
            let le = le.ok_or(format!("`{fam}`: bucket without le label"))?;
            buckets
                .entry((fam, rest.join(",")))
                .or_default()
                .push((le, s.value));
        } else if let Some(fam) = family("_count") {
            let rest: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            counts.insert((fam, rest.join(",")), s.value);
        }
    }
    for ((fam, labels), mut series) in buckets {
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le values are not NaN"));
        let mut prev = f64::NEG_INFINITY;
        for &(_, count) in &series {
            if count < prev {
                return Err(format!(
                    "`{fam}{{{labels}}}`: bucket counts decrease with le"
                ));
            }
            prev = count;
        }
        let last = series.last().expect("grouped series is non-empty");
        if !last.0.is_infinite() {
            return Err(format!("`{fam}{{{labels}}}`: missing +Inf bucket"));
        }
        if let Some(count) = counts.get(&(fam.clone(), labels.clone())) {
            if (last.1 - count).abs() > 0.0 {
                return Err(format!(
                    "`{fam}{{{labels}}}`: +Inf bucket {} != _count {count}",
                    last.1
                ));
            }
        } else {
            return Err(format!("`{fam}{{{labels}}}`: missing _count"));
        }
    }
    Ok(samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut e = Exposition::new();
        e.counter("bw_requests_total", "Requests admitted.")
            .rows(["model"], [(["mlp \"a\""], 42.0)]);
        let alive = [true, false].iter().enumerate();
        e.gauge("bw_worker_alive", "Liveness per worker.").rows(
            ["worker"],
            alive.map(|(w, &up)| ([w.to_string()], f64::from(u8::from(up)))),
        );
        let text = e.finish();
        assert_eq!(validate_exposition(&text), Ok(3));
        assert!(text.contains("bw_requests_total{model=\"mlp \\\"a\\\"\"} 42"));
        assert!(text.contains("# TYPE bw_worker_alive gauge"));
    }

    #[test]
    fn histograms_render_cumulative_and_coherent() {
        let mut e = Exposition::new();
        e.histograms(
            "bw_latency_seconds",
            "End-to-end latency.",
            ["model"],
            [(["m"], [(0.001, 3), (0.01, 7), (0.1, 9)], 0.05, 9)],
        );
        let text = e.finish();
        assert_eq!(validate_exposition(&text), Ok(6));
        assert!(text.contains("bw_latency_seconds_bucket{model=\"m\",le=\"+Inf\"} 9"));
        assert!(text.contains("bw_latency_seconds_count{model=\"m\"} 9"));
    }

    #[test]
    fn validator_rejects_incoherent_histograms() {
        let decreasing = "# TYPE h histogram\n\
                          h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                          h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(decreasing).is_err());
        let bad_inf = "# TYPE h histogram\n\
                       h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n";
        assert!(validate_exposition(bad_inf).is_err());
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n";
        assert!(validate_exposition(no_inf).is_err());
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "1bad_name 3",
            "m{label} 3",
            "m{l=\"v\"",
            "m{l=\"v\"} not_a_number",
            "m 1 2 3",
            "# TYPE m rainbow",
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted {bad:?}");
        }
        // Free-form comments and blank lines are fine.
        assert_eq!(validate_exposition("# a comment\n\nm 3\n"), Ok(1));
    }
}
