//! The file sink: a versioned JSON-lines trace format, plus a reader
//! and structural validator used by `tools/trace_check` and the
//! determinism tests.
//!
//! # Schema (version 1)
//!
//! One JSON object per line; every object carries a `type`:
//!
//! ```text
//! {"type":"meta","schema_version":1,"generator":"oasis-telemetry"}
//! {"type":"span","id":7,"parent":3,"name":"fl.round.decode","tid":1,"start_ns":123,"dur_ns":456}
//! {"type":"counter","name":"wire.bytes_encoded","value":81920}
//! {"type":"gauge","name":"pool.queue_depth","last":0,"max":7}
//! {"type":"hist","name":"pool.task_wait_us","count":64,"sum":1024,"max":99,"p50":12,"p99":96}
//! ```
//!
//! The `meta` line comes first; span lines are sorted by
//! `(start_ns, id)` so parents precede children; metric lines follow
//! the spans. Unknown `type`s are reserved for future schema versions
//! and rejected by [`validate_trace`] at version 1.

use crate::{MetricsSnapshot, SpanRecord};
use serde::Value;
use std::collections::HashMap;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Mutex;

/// Version stamped into (and required of) every trace file.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn line(value: &Value, out: &mut String) {
    out.push_str(&serde_json::to_string(value).expect("Value serialization is infallible"));
    out.push('\n');
}

/// Renders spans + metrics as schema-version-1 JSONL text.
pub fn render_trace(spans: &[SpanRecord], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    line(
        &obj(vec![
            ("type", Value::Str("meta".into())),
            ("schema_version", Value::U64(TRACE_SCHEMA_VERSION)),
            ("generator", Value::Str("oasis-telemetry".into())),
        ]),
        &mut out,
    );
    for s in spans {
        line(
            &obj(vec![
                ("type", Value::Str("span".into())),
                ("id", Value::U64(s.id)),
                ("parent", Value::U64(s.parent)),
                ("name", Value::Str(s.name.into())),
                ("tid", Value::U64(s.tid)),
                ("start_ns", Value::U64(s.start_ns)),
                ("dur_ns", Value::U64(s.dur_ns)),
            ]),
            &mut out,
        );
    }
    for c in &metrics.counters {
        line(
            &obj(vec![
                ("type", Value::Str("counter".into())),
                ("name", Value::Str(c.name.clone())),
                ("value", Value::U64(c.value)),
            ]),
            &mut out,
        );
    }
    for g in &metrics.gauges {
        line(
            &obj(vec![
                ("type", Value::Str("gauge".into())),
                ("name", Value::Str(g.name.clone())),
                ("last", Value::I64(g.last)),
                ("max", Value::I64(g.max)),
            ]),
            &mut out,
        );
    }
    for h in &metrics.histograms {
        line(
            &obj(vec![
                ("type", Value::Str("hist".into())),
                ("name", Value::Str(h.name.clone())),
                ("count", Value::U64(h.count)),
                ("sum", Value::U64(h.sum)),
                ("max", Value::U64(h.max)),
                ("p50", Value::U64(h.p50)),
                ("p99", Value::U64(h.p99)),
            ]),
            &mut out,
        );
    }
    out
}

/// Writes a schema-version-1 trace file. Spans should come from
/// [`crate::take_spans`] (already sorted); metrics from
/// [`crate::metrics_snapshot`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_trace(
    path: &Path,
    spans: &[SpanRecord],
    metrics: &MetricsSnapshot,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_trace(spans, metrics))
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A parsed trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Declared schema version from the `meta` line.
    pub schema_version: u64,
    /// Span records in file order.
    pub spans: Vec<SpanRecord>,
    /// Metric lines, re-assembled into a snapshot.
    pub metrics: MetricsSnapshot,
}

/// Span names read from a file are interned here so [`TraceData`] can
/// reuse [`SpanRecord`] (whose name is `&'static str`). Bounded by
/// the number of *distinct* span names, which is small by design.
fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES.lock().expect("name interner poisoned");
    if let Some(existing) = names.iter().find(|n| **n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.push(leaked);
    leaked
}

fn field<'v>(fields: &'v Value, key: &str, line_no: usize) -> Result<&'v Value, String> {
    fields
        .get(key)
        .ok_or_else(|| format!("line {line_no}: missing field `{key}`"))
}

fn u64_field(fields: &Value, key: &str, line_no: usize) -> Result<u64, String> {
    field(fields, key, line_no)?
        .as_u64()
        .ok_or_else(|| format!("line {line_no}: field `{key}` is not a non-negative integer"))
}

fn i64_field(fields: &Value, key: &str, line_no: usize) -> Result<i64, String> {
    field(fields, key, line_no)?
        .as_i64()
        .ok_or_else(|| format!("line {line_no}: field `{key}` is not an integer"))
}

fn str_field(fields: &Value, key: &str, line_no: usize) -> Result<String, String> {
    Ok(field(fields, key, line_no)?
        .as_str()
        .ok_or_else(|| format!("line {line_no}: field `{key}` is not a string"))?
        .to_string())
}

/// Parses JSONL trace text. Structural problems (bad JSON, missing
/// fields, no leading `meta` line) are errors; semantic checks live
/// in [`validate_trace`].
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn read_trace_str(text: &str) -> Result<TraceData, String> {
    let mut meta_version: Option<u64> = None;
    let mut spans = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(raw)
            .map_err(|e| format!("line {line_no}: not valid JSON: {e}"))?;
        let kind = str_field(&value, "type", line_no)?;
        match kind.as_str() {
            "meta" => {
                if meta_version.is_some() {
                    return Err(format!("line {line_no}: duplicate meta line"));
                }
                if line_no != 1 {
                    return Err(format!("line {line_no}: meta line must come first"));
                }
                meta_version = Some(u64_field(&value, "schema_version", line_no)?);
            }
            "span" => spans.push(SpanRecord {
                id: u64_field(&value, "id", line_no)?,
                parent: u64_field(&value, "parent", line_no)?,
                name: intern(&str_field(&value, "name", line_no)?),
                tid: u64_field(&value, "tid", line_no)?,
                start_ns: u64_field(&value, "start_ns", line_no)?,
                dur_ns: u64_field(&value, "dur_ns", line_no)?,
            }),
            "counter" => metrics.counters.push(crate::CounterSnapshot {
                name: str_field(&value, "name", line_no)?,
                value: u64_field(&value, "value", line_no)?,
            }),
            "gauge" => metrics.gauges.push(crate::GaugeSnapshot {
                name: str_field(&value, "name", line_no)?,
                last: i64_field(&value, "last", line_no)?,
                max: i64_field(&value, "max", line_no)?,
            }),
            "hist" => metrics.histograms.push(crate::HistSnapshot {
                name: str_field(&value, "name", line_no)?,
                count: u64_field(&value, "count", line_no)?,
                sum: u64_field(&value, "sum", line_no)?,
                max: u64_field(&value, "max", line_no)?,
                p50: u64_field(&value, "p50", line_no)?,
                p99: u64_field(&value, "p99", line_no)?,
            }),
            other => return Err(format!("line {line_no}: unknown record type `{other}`")),
        }
    }
    let schema_version = meta_version.ok_or("trace has no meta line")?;
    Ok(TraceData {
        schema_version,
        spans,
        metrics,
    })
}

/// Reads and parses a trace file; see [`read_trace_str`].
///
/// # Errors
///
/// Returns a message for I/O failures and for the first offending
/// line.
pub fn read_trace(path: &Path) -> Result<TraceData, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    read_trace_str(&text)
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Semantic checks on a parsed trace: supported schema version,
/// unique nonzero span ids, span ends that fit in a `u64`, spans
/// sorted by `(start_ns, id)` (monotone starts), and — for every
/// non-root span — a parent that exists, lives on the same thread,
/// and fully contains the child's interval. This is the gate behind `tools/trace_check` and the
/// telemetry determinism tests.
///
/// # Errors
///
/// Returns a message naming the first violated property.
pub fn validate_trace(trace: &TraceData) -> Result<(), String> {
    if trace.schema_version != TRACE_SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {} (expected {TRACE_SCHEMA_VERSION})",
            trace.schema_version
        ));
    }
    let mut ids = HashSet::with_capacity(trace.spans.len());
    let mut prev_key: Option<(u64, u64)> = None;
    for s in &trace.spans {
        if s.id == 0 {
            return Err("span id 0 is reserved for \"no parent\"".into());
        }
        if !ids.insert(s.id) {
            return Err(format!("duplicate span id {}", s.id));
        }
        if s.start_ns.checked_add(s.dur_ns).is_none() {
            return Err(format!("span {} ends past the end of the u64 clock", s.id));
        }
        let key = (s.start_ns, s.id);
        if let Some(prev) = prev_key {
            if key < prev {
                return Err(format!(
                    "span {} out of order: starts are not monotone in file order",
                    s.id
                ));
            }
        }
        prev_key = Some(key);
    }
    let by_id: HashMap<u64, &SpanRecord> = trace.spans.iter().map(|s| (s.id, s)).collect();
    for s in &trace.spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} references missing parent {}", s.id, s.parent))?;
        if p.tid != s.tid {
            return Err(format!(
                "span {} (tid {}) has parent {} on another thread (tid {})",
                s.id, s.tid, p.id, p.tid
            ));
        }
        let (ps, pe) = (p.start_ns, p.start_ns + p.dur_ns);
        let (cs, ce) = (s.start_ns, s.start_ns + s.dur_ns);
        if cs < ps || ce > pe {
            return Err(format!(
                "span {} [{cs}, {ce}) escapes parent {} [{ps}, {pe})",
                s.id, p.id
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSnapshot, GaugeSnapshot, HistSnapshot};

    fn rec(id: u64, parent: u64, tid: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "t.op",
            tid,
            start_ns: start,
            dur_ns: dur,
        }
    }

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "t.bytes".into(),
                value: 42,
            }],
            gauges: vec![GaugeSnapshot {
                name: "t.depth".into(),
                last: -1,
                max: 9,
            }],
            histograms: vec![HistSnapshot {
                name: "t.lat".into(),
                count: 3,
                sum: 30,
                max: 20,
                p50: 10,
                p99: 20,
            }],
        }
    }

    #[test]
    fn render_read_round_trip_preserves_everything() {
        let spans = vec![rec(1, 0, 1, 0, 100), rec(2, 1, 1, 10, 50)];
        let text = render_trace(&spans, &snapshot());
        let trace = read_trace_str(&text).unwrap();
        assert_eq!(trace.schema_version, TRACE_SCHEMA_VERSION);
        assert_eq!(trace.spans, spans);
        assert_eq!(trace.metrics, snapshot());
        validate_trace(&trace).unwrap();
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("oasis_telemetry_trace_test");
        let path = dir.join("trace.jsonl");
        write_trace(&path, &[rec(1, 0, 1, 0, 5)], &MetricsSnapshot::default()).unwrap();
        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.spans.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_meta_and_bad_json_are_rejected() {
        assert!(read_trace_str("").is_err());
        assert!(read_trace_str("{\"type\":\"span\"}").is_err());
        assert!(read_trace_str("not json\n").is_err());
        let late_meta = "{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n\
                         {\"type\":\"meta\",\"schema_version\":1,\"generator\":\"g\"}\n";
        assert!(read_trace_str(late_meta).is_err());
    }

    #[test]
    fn validation_catches_each_violation() {
        let meta_only = read_trace_str(&render_trace(&[], &MetricsSnapshot::default())).unwrap();
        validate_trace(&meta_only).unwrap();

        let mut t = meta_only.clone();
        t.schema_version = 99;
        assert!(validate_trace(&t).unwrap_err().contains("schema_version"));

        let dup = TraceData {
            schema_version: 1,
            spans: vec![rec(1, 0, 1, 0, 10), rec(1, 0, 1, 5, 10)],
            metrics: MetricsSnapshot::default(),
        };
        assert!(validate_trace(&dup).unwrap_err().contains("duplicate"));

        let unsorted = TraceData {
            spans: vec![rec(2, 0, 1, 10, 10), rec(1, 0, 1, 0, 10)],
            ..dup.clone()
        };
        assert!(validate_trace(&unsorted).unwrap_err().contains("monotone"));

        let endless = TraceData {
            spans: vec![rec(1, 0, 1, 0, 10), rec(2, 1, 1, 5, u64::MAX)],
            ..dup.clone()
        };
        assert!(validate_trace(&endless).unwrap_err().contains("u64 clock"));

        let orphan = TraceData {
            spans: vec![rec(2, 7, 1, 0, 10)],
            ..dup.clone()
        };
        assert!(validate_trace(&orphan)
            .unwrap_err()
            .contains("missing parent"));

        let cross_thread = TraceData {
            spans: vec![rec(1, 0, 1, 0, 100), rec(2, 1, 2, 10, 10)],
            ..dup.clone()
        };
        assert!(validate_trace(&cross_thread)
            .unwrap_err()
            .contains("another thread"));

        let escapes = TraceData {
            spans: vec![rec(1, 0, 1, 0, 10), rec(2, 1, 1, 5, 50)],
            ..dup
        };
        assert!(validate_trace(&escapes).unwrap_err().contains("escapes"));
    }
}
