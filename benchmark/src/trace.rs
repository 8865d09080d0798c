//! In-memory span recorder for the traced pass.
//!
//! Spans are taken from the benchmark's side of the boundary — around
//! every call into a layer's public function — kept in memory and
//! written out when the run ends. A disabled [`Tracer`] records nothing
//! and costs one branch per call, so the untraced passes (the only ones
//! end-to-end numbers come from) run the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One recorded interval. `parent` is the span that was open when this
/// one started (`None` for a unit's outer span); `unit` is the index of
/// the script unit the span belongs to, shared by all its spans.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Index into the recorder's span list.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// `layer.module.function`, or `unit.<kind>` for a unit's outer span.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Script unit this span belongs to.
    pub unit: u32,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// The recorder. [`Tracer::off`] is inert.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<u32>,
    unit: u32,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: None,
            stack: Vec::new(),
            unit: 0,
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Tracer {
            spans: Some(Vec::new()),
            ..Tracer::off()
        }
    }

    /// Sets the script unit subsequent spans are attributed to.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit as u32;
    }

    /// Opens a span named `name` under the currently open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        let Some(spans) = &mut self.spans else {
            return Open(None);
        };
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            unit: self.unit,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` (and, defensively, anything left open
    /// inside it).
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let (Some(id), Some(spans)) = (open.0, &mut self.spans) else {
            return;
        };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// The recorded spans (empty when off).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct SpanTotal {
    /// Spans of that name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − the part of it child spans cover).
    pub self_ns: u64,
}

/// Aggregates spans by name; self time is a span's duration minus its
/// direct children's (children never overlap: the harness is one thread).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let a = t.enter("unit.round");
        t.exit(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.set_unit(7);
        let outer = t.enter("unit.event");
        let a = t.enter("overlay.network.leave");
        t.exit(a);
        let b = t.enter("core.engine.on_leave");
        t.exit(b);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7 && s.end_ns >= s.start_ns));

        let tot = totals(spans);
        let outer = tot["unit.event"];
        let kids = tot["overlay.network.leave"].total_ns + tot["core.engine.on_leave"].total_ns;
        assert_eq!(outer.self_ns, outer.total_ns - kids);
        assert_eq!(outer.count, 1);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::on();
        let outer = t.enter("unit.query");
        let _leaked = t.enter("overlay.search.run_query_into");
        t.exit(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let next = t.enter("unit.query");
        t.exit(next);
        assert_eq!(t.spans()[2].parent, None);
    }
}
