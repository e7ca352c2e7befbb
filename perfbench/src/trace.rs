//! Spans recorded by the benchmark around its calls into each layer,
//! kept in memory and written out when the run ends: a Chrome
//! trace-event file (Perfetto opens it offline) and a self-time table.
//!
//! Spans come from the benchmark's own code only; nothing inside the
//! program under test is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: String,
    /// The layer the span's own time is charged to.
    pub layer: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    /// Logical track (thread) the span is drawn on.
    pub track: u32,
    pub attrs: Vec<(&'static str, f64)>,
}

/// An in-memory span sink. A disabled tracer records nothing, so the
/// scored runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the epoch of an instant.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent span is closed.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span with a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        track: u32,
        attrs: Vec<(&'static str, f64)>,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            name: name.to_string(),
            layer,
            start: self.at(start),
            end: self.at(end),
            parent,
            track,
            attrs,
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }
}

/// Chrome trace-event JSON for a set of spans.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let mut args = format!("\"id\": {}", sp.id);
        if let Some(p) = sp.parent {
            let _ = write!(args, ", \"parent\": {p}");
        }
        for (k, v) in &sp.attrs {
            if v.is_finite() {
                let _ = write!(args, ", \"{k}\": {v}");
            }
        }
        let _ = writeln!(
            s,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}{}",
            sp.name,
            sp.layer,
            sp.track,
            sp.start * 1e6,
            (sp.end - sp.start).max(0.0) * 1e6,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    s
}

/// Per-layer `(spans, total seconds, self seconds)`. A span's self time
/// is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for sp in spans {
        if let Some(p) = sp.parent {
            children.entry(p).or_default().push((sp.start, sp.end));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for sp in spans {
        let dur = (sp.end - sp.start).max(0.0);
        let covered = children
            .get(&sp.id)
            .map(|c| covered(c, sp.start, sp.end))
            .unwrap_or(0.0);
        let e = out.entry(sp.layer).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += (dur - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// The self-time table as text.
pub fn self_time_table(spans: &[Span]) -> String {
    let rows = self_times(spans);
    let all_self: f64 = rows.values().map(|r| r.2).sum();
    let mut s = format!(
        "{:<10} {:>8} {:>12} {:>12} {:>7}\n",
        "layer", "spans", "total ms", "self ms", "self %"
    );
    for (layer, (n, total, own)) in &rows {
        let _ = writeln!(
            s,
            "{layer:<10} {n:>8} {:>12.3} {:>12.3} {:>6.1}%",
            total * 1e3,
            own * 1e3,
            100.0 * own / all_self.max(1e-12)
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, layer: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: layer.to_string(),
            layer,
            start,
            end,
            parent,
            track: 0,
            attrs: vec![("x", 1.0)],
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(1, "core", 0.0, 10.0, None),
            span(2, "pde", 1.0, 4.0, Some(1)),
            span(3, "pde", 3.0, 6.0, Some(1)),
            span(4, "mc", 8.0, 12.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t["core"].2 - 3.0).abs() < 1e-12); // 10 − [1,6] − [8,10]
        assert!((t["pde"].2 - 6.0).abs() < 1e-12);
        assert_eq!(t["pde"].0, 2);
    }

    #[test]
    fn chrome_json_is_valid_json() {
        let spans = vec![
            span(1, "core", 0.0, 1.0, None),
            span(2, "pde", 0.1, 0.2, Some(1)),
        ];
        let doc = crate::json::Json::parse(&chrome_json(&spans)).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
