//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load).
//!
//! Spans become *complete* events (`"ph":"X"`) with microsecond
//! timestamps derived from simulated cycles at the device clock. Rows are
//! organized the way a deep dive reads best: `pid` is the device ordinal
//! and `tid` is the span lane (pipeline, MVM stream, MFU stream, stalls),
//! so Perfetto shows one process per NPU with parallel tracks for
//! resource activity and exposed stalls. Thread-name metadata events
//! label the lanes.

use bw_core::SpanRecord;

use crate::json::Writer;

/// One Chrome trace event (the subset of the format this crate emits).
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Category string.
    pub cat: String,
    /// Phase: `"X"` for complete spans, `"M"` for metadata.
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub dur_us: Option<f64>,
    /// Process id (device ordinal).
    pub pid: u64,
    /// Thread id (span lane).
    pub tid: u64,
    /// Extra `args` fields, rendered as a JSON object of numbers or
    /// strings.
    pub args: Vec<(String, ArgValue)>,
}

/// An `args` entry value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// An integer argument.
    Int(u64),
    /// A string argument.
    Str(String),
}

/// Display names for the lanes assigned by [`SpanKind::lane`] — the
/// mapping itself lives in `bw-core` so every exporter and emitter
/// shares one source of truth.
const LANES: [(u64, &str); 9] = [
    (0, "run"),
    (1, "chains"),
    (2, "mvm stream"),
    (3, "mfu stream"),
    (4, "stalls"),
    (5, "network"),
    (6, "fleet"),
    (7, "slo"),
    (8, "batch"),
];

/// Converts span records into Chrome events. `clock_hz` converts cycles
/// to wall time; `base_ts_us` offsets every timestamp (use 0 for a
/// single run, or a request's admission time when composing a serving
/// timeline). Metadata events naming each device's lanes are included.
pub fn spans_to_chrome(spans: &[SpanRecord], clock_hz: f64, base_ts_us: f64) -> Vec<ChromeEvent> {
    let us_per_cycle = if clock_hz > 0.0 { 1e6 / clock_hz } else { 1.0 };
    let mut out = Vec::with_capacity(spans.len());
    let mut devices: Vec<u64> = Vec::new();
    for s in spans {
        let pid = u64::from(s.device);
        if !devices.contains(&pid) {
            devices.push(pid);
        }
        out.push(ChromeEvent {
            name: s.kind.label().to_owned(),
            cat: "npu".to_owned(),
            ph: 'X',
            ts_us: base_ts_us + s.start_cycle as f64 * us_per_cycle,
            dur_us: Some(s.cycles() as f64 * us_per_cycle),
            pid,
            tid: s.kind.lane(),
            args: vec![
                ("trace_id".to_owned(), ArgValue::Int(s.trace_id)),
                ("chain".to_owned(), ArgValue::Int(s.chain)),
                ("start_cycle".to_owned(), ArgValue::Int(s.start_cycle)),
                ("end_cycle".to_owned(), ArgValue::Int(s.end_cycle)),
            ],
        });
    }
    for pid in devices {
        for (tid, name) in LANES {
            out.push(ChromeEvent {
                name: "thread_name".to_owned(),
                cat: "__metadata".to_owned(),
                ph: 'M',
                ts_us: 0.0,
                dur_us: None,
                pid,
                tid,
                args: vec![("name".to_owned(), ArgValue::Str(name.to_owned()))],
            });
        }
    }
    out
}

/// Writes a microsecond quantity without float noise: whole values as
/// integers, the rest to nanosecond resolution.
fn write_us(w: &mut Writer, v: f64) {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        w.int(v as i64);
    } else {
        w.fixed(v, 3);
    }
}

/// Renders events as a Chrome trace JSON document
/// (`{"traceEvents": [...]}`) loadable by Perfetto.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    let mut w = Writer::with_capacity(64 + 160 * events.len());
    w.begin_object().key("displayTimeUnit").string("ms");
    w.key("traceEvents").begin_array();
    for e in events {
        w.begin_object().key("name").string(&e.name);
        w.key("cat").string(&e.cat);
        w.key("ph").string(e.ph.encode_utf8(&mut [0; 4]));
        w.key("ts");
        write_us(&mut w, e.ts_us);
        w.key("pid").uint(e.pid).key("tid").uint(e.tid);
        if let Some(dur) = e.dur_us {
            w.key("dur");
            write_us(&mut w, dur);
        }
        w.key("args").begin_object();
        for (k, v) in &e.args {
            w.key(k);
            match v {
                ArgValue::Int(n) => w.uint(*n),
                ArgValue::Str(s) => w.string(s),
            };
        }
        w.end_object().end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Validates a Chrome trace JSON document: it must parse, carry a
/// `traceEvents` array, and every event must have the mandatory fields
/// with sane values. Returns the number of *complete* (`"ph":"X"`)
/// spans.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = crate::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing `traceEvents`")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        for field in ["name", "pid", "tid"] {
            if e.get(field).is_none() {
                return Err(format!("event {i}: missing `{field}`"));
            }
        }
        if ph == "X" {
            let ts = e
                .get("ts")
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("event {i}: complete event without numeric `ts`"))?;
            let dur = e
                .get("dur")
                .and_then(|v| v.as_num())
                .ok_or_else(|| format!("event {i}: complete event without numeric `dur`"))?;
            if !ts.is_finite() || !dur.is_finite() || dur < 0.0 {
                return Err(format!("event {i}: non-finite or negative ts/dur"));
            }
            complete += 1;
        }
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_core::{ChainKind, SpanKind};

    fn span(kind: SpanKind, device: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 42,
            device,
            kind,
            chain: 3,
            start_cycle: start,
            end_cycle: end,
        }
    }

    #[test]
    fn spans_render_and_validate() {
        let spans = vec![
            span(SpanKind::Run, 0, 0, 100),
            span(SpanKind::Chain(ChainKind::Mvm), 0, 10, 40),
            span(SpanKind::MvmStream, 0, 10, 30),
            span(SpanKind::DepStall, 1, 5, 10),
        ];
        let events = spans_to_chrome(&spans, 250e6, 0.0);
        let json = chrome_trace_json(&events);
        let complete = validate_chrome_trace(&json).unwrap();
        assert_eq!(complete, 4);
        // 250 MHz -> 4 ns/cycle: the run span is 0.4 µs.
        assert!(json.contains("\"dur\":0.400"), "{json}");
        // Two devices seen -> two sets of lane labels.
        assert_eq!(events.len(), 4 + 2 * LANES.len());
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        let no_dur = r#"{"traceEvents":[{"name":"x","cat":"c","ph":"X","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(no_dur).is_err());
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }

    #[test]
    fn lane_labels_cover_every_assigned_lane() {
        // The label table must name exactly the lanes `SpanKind::lane`
        // can assign; a new span kind that grows the lane space without
        // a label here would render on an anonymous track.
        let assigned: std::collections::BTreeSet<u64> = [
            SpanKind::Run,
            SpanKind::Chain(ChainKind::Mvm),
            SpanKind::MvmStream,
            SpanKind::MfuStream,
            SpanKind::DepStall,
            SpanKind::ResourceStall,
            SpanKind::NetTransfer,
            SpanKind::FleetOp,
            SpanKind::SloAlert,
            SpanKind::BatchColumn,
        ]
        .iter()
        .map(|k| k.lane())
        .collect();
        let labeled: std::collections::BTreeSet<u64> = LANES.iter().map(|&(tid, _)| tid).collect();
        assert_eq!(assigned, labeled);
    }

    #[test]
    fn base_offset_shifts_timestamps() {
        let spans = vec![span(SpanKind::Run, 0, 0, 10)];
        let events = spans_to_chrome(&spans, 1e6, 500.0);
        assert_eq!(events[0].ts_us, 500.0);
        assert_eq!(events[0].dur_us, Some(10.0));
    }
}
