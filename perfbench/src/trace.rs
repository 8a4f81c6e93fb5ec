//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions: name, start, end and the span that caused it. Spans
//! stay in memory and are written out as JSON lines when the run ends.
//! A span's self time is its duration minus the part its child spans
//! cover, so a pass span's self time is the wall time no layer accounts
//! for.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One closed or open span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start time, nanoseconds on the `bestk_obs` clock.
    pub start: u64,
    /// End time; equal to `start` while the span is open.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans. Spans close in LIFO order.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Opens a span under the innermost open one, reading the clock now.
    pub fn enter(&mut self, name: &'static str) -> usize {
        self.enter_at(name, bestk_obs::now_nanos())
    }

    /// Closes span `id` (the innermost open one), reading the clock now.
    pub fn exit(&mut self, id: usize) {
        self.exit_at(id, bestk_obs::now_nanos());
    }

    fn enter_at(&mut self, name: &'static str, now: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    fn exit_at(&mut self, id: usize, now: u64) {
        if self.open.last() == Some(&id) {
            self.open.pop();
            self.spans[id].end = now;
        }
    }

    /// Duration of span `id`.
    pub fn nanos(&self, id: usize) -> u64 {
        self.spans.get(id).map_or(0, Span::nanos)
    }

    /// Self time of span `id`: its duration minus its children's.
    pub fn self_nanos(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::nanos)
            .sum();
        self.nanos(id).saturating_sub(children)
    }

    /// Total self time per span name among the descendants of `root`
    /// (the root itself included).
    pub fn self_by_name(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for id in root..self.spans.len() {
            if self.descends_from(id, root) {
                *out.entry(self.spans[id].name).or_insert(0) += self.self_nanos(id);
            }
        }
        out
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans.get(id).and_then(|s| s.parent) {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Writes one JSON object per span: `id`, `name`, `parent`, `start`,
    /// `end` (nanoseconds).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        let pass = t.enter_at("pass", 0);
        let load = t.enter_at("load", 10);
        t.exit_at(load, 40);
        let peel = t.enter_at("peel", 40);
        let inner = t.enter_at("inner", 50);
        t.exit_at(inner, 60);
        t.exit_at(peel, 90);
        t.exit_at(pass, 100);
        assert_eq!(t.nanos(pass), 100);
        assert_eq!(t.self_nanos(pass), 100 - 30 - 50);
        assert_eq!(t.self_nanos(peel), 40);
        let by = t.self_by_name(pass);
        assert_eq!(by.values().sum::<u64>(), 100, "self times tile the root");
        assert_eq!(by["inner"], 10);
        assert_eq!(t.spans[inner].parent, Some(peel));
    }

    #[test]
    fn self_by_name_ignores_spans_outside_the_root() {
        let mut t = Tracer::default();
        let a = t.enter_at("pass", 0);
        t.exit_at(a, 10);
        let b = t.enter_at("pass", 10);
        let c = t.enter_at("load", 12);
        t.exit_at(c, 15);
        t.exit_at(b, 20);
        assert_eq!(t.self_by_name(a).get("load"), None);
        assert_eq!(t.self_by_name(b)["load"], 3);
    }
}
