//! The traced pass's span recorder.
//!
//! The benchmark records one span around every call it makes into a
//! layer. Nested layers are separated from outside: after the parent
//! call (`execute`, `beam`, `serve_scenario`, …) the op's cells and
//! requests are replayed layer by layer on twin objects, and each replay
//! is recorded as a child of the span it stands in for. A child
//! therefore follows its parent in time but covers work the parent
//! contains, and a span's self time is its duration minus its children's.
//! Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::host::now_ns;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer (crate) the call enters.
    pub layer: &'static str,
    /// The workload operation this span belongs to.
    pub op_id: u32,
    /// Span id of the parent, 0 for a root.
    pub parent: u32,
    /// Start, host nanoseconds.
    pub start_ns: u64,
    /// End, host nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store. Span ids are 1-based positions.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Open a span; returns its id. The clock is read last, so the
    /// bookkeeping is not charged to the span.
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op_id: u32,
        parent: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            layer,
            op_id,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        let id = self.spans.len() as u32;
        self.spans[id as usize - 1].start_ns = now_ns();
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.dur_ns()
    }

    /// All spans, id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// its direct children's, floored at zero, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.dur_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *by_layer.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        by_layer
    }

    /// Share of root-span time covered by the roots' direct children.
    /// The replays are faithful when this stays at or below 1: the
    /// per-layer self times then add up to the parent spans.
    pub fn children_share(&self) -> f64 {
        let mut roots = 0u64;
        let mut children = 0u64;
        for s in &self.spans {
            if s.parent == 0 {
                roots += s.dur_ns();
            } else if self.spans[s.parent as usize - 1].parent == 0 {
                children += s.dur_ns();
            }
        }
        if roots == 0 {
            0.0
        } else {
            children as f64 / roots as f64
        }
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"op_id\": {}, \"parent\": ",
                i + 1,
                s.name,
                s.layer,
                s.op_id
            );
            if s.parent == 0 {
                line.push_str("null");
            } else {
                let _ = write!(line, "{}", s.parent);
            }
            let _ = writeln!(
                line,
                ", \"start_ns\": {}, \"end_ns\": {}}}",
                s.start_ns, s.end_ns
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn fixed(spans: &[(&'static str, &'static str, u32, u64, u64)]) -> Tracer {
        Tracer {
            spans: spans
                .iter()
                .map(|&(name, layer, parent, start_ns, end_ns)| Span {
                    name,
                    layer,
                    op_id: 7,
                    parent,
                    start_ns,
                    end_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = fixed(&[
            ("execute", "query", 0, 0, 100),
            ("translate", "core", 1, 100, 130),
            ("service_batch", "lvm", 1, 130, 190),
            ("service_batch", "disksim", 3, 190, 240),
        ]);
        let by = t.self_ns_by_layer();
        assert_eq!(by["query"], 10);
        assert_eq!(by["core"], 30);
        assert_eq!(by["lvm"], 10);
        assert_eq!(by["disksim"], 50);
        assert_eq!(
            by.values().sum::<u64>(),
            100,
            "self times add up to the root"
        );
        assert!((t.children_share() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest_and_lines_parse_back() {
        let mut t = Tracer::new();
        let root = t.begin("execute", "query", 3, 0);
        let child = t.begin("translate", "core", 3, root);
        assert!(t.end(child) <= t.end(root));
        let dir =
            std::env::temp_dir().join(format!("multimap-benchmark-trace-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(
            lines[1].get("parent").and_then(json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            lines[1].get("layer").and_then(json::Value::as_str),
            Some("core")
        );
        assert_eq!(
            lines[0].get("op_id").and_then(json::Value::as_f64),
            Some(3.0)
        );
    }
}
