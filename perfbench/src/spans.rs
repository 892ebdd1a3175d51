//! Wall-clock spans recorded around the benchmark's calls into the
//! library's layers.
//!
//! Spans live in memory and are written out when the run ends. Each span
//! knows its parent, so a layer's self time is its duration minus the part
//! its children cover. A disabled recorder (untraced runs, and every rank
//! but rank 0) records nothing, so timed runs carry no tracing cost.

use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder of one rank.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.done.len();
        self.done.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.done[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.done
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Per-name table of span count, total and self time, in order of
    /// first appearance and indented by depth. Self time is a span's
    /// duration minus that of its direct children.
    pub fn table(&self) -> Vec<String> {
        let mut child_time = vec![0.0; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = self.done[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        // (name, depth, count, total, self)
        let mut rows: Vec<(&'static str, usize, usize, f64, f64)> = Vec::new();
        for (i, s) in self.done.iter().enumerate() {
            let dur = s.end - s.start;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.2 += 1;
                    r.3 += dur;
                    r.4 += dur - child_time[i];
                }
                None => rows.push((s.name, depth(i), 1, dur, dur - child_time[i])),
            }
        }
        let mut lines = vec![format!(
            "  {:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        )];
        for (name, depth, count, total, own) in rows {
            let label = format!("{}{name}", "  ".repeat(depth));
            lines.push(format!(
                "  {label:<28} {count:>7} {total:>12.6} {own:>12.6}"
            ));
        }
        lines
    }
}
