//! Outside-in layer spans: one span around each call into a layer's
//! public functions, kept in memory and written out after the last pass.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is an index into the same span list;
/// `cell` indexes the trace file's `cells` label table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub cell: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span list of a traced run.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Makes room for `additional` spans, so that pushes inside timed
    /// regions do not reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open span and returns its index.
    pub fn open(&mut self, name: &'static str, cell: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, cell: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, cell);
        let out = f();
        self.close(id);
        out
    }

    /// The trace document: `cells` labels and every span.
    pub fn to_json(&self, workload: &str, cells: &[String]) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"cells\":[");
        for (i, c) in cells.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{c}\"");
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span of `spans`: its duration minus the part of
/// its interval that its direct children cover. Parent indices are
/// relative to `base`, the index of `spans[0]` in the full list; a
/// parent outside the slice is ignored.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let parent = s.parent.and_then(|p| (p as usize).checked_sub(base));
        if let Some(p) = parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_direct_parent() {
        // 0: [0,100) ── 1: [10,60) ── 2: [20,30)
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans, 0), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_children_add_up_and_overlap_counts_once() {
        // Parent [0,100) with siblings [10,30), [30,50) and an
        // overlapping pair [60,80), [70,90): covered 40 + 30.
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(30, 50, Some(0)),
            span(60, 80, Some(0)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_base_offsets_apply() {
        // The slice starts at global index 7; the child overruns.
        let spans = [span(100, 200, None), span(150, 260, Some(7))];
        assert_eq!(self_times(&spans, 7), vec![50, 110]);
        // A parent before the slice is ignored.
        let orphan = [span(0, 10, Some(3))];
        assert_eq!(self_times(&orphan, 7), vec![10]);
    }

    #[test]
    fn log_records_parents_and_emits_one_object_per_span() {
        let mut log = SpanLog::new();
        let outer = log.open("core.cell", 2);
        let inner = log.time("sim.run", 2, || 7);
        log.close(outer);
        assert_eq!(inner, 7);
        let spans = log.since(0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = log.to_json(
            "w",
            &["a@1".to_string(), "b@2".to_string(), "c@4".to_string()],
        );
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(doc["spans"].as_array().map(Vec::len), Some(2));
        assert_eq!(doc["spans"][1]["name"].as_str(), Some("sim.run"));
        assert_eq!(doc["cells"][2].as_str(), Some("c@4"));
    }
}
