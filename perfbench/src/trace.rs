//! The benchmark's own trace: spans recorded around calls into each
//! crate's public functions (the program itself carries no
//! instrumentation), plus the per-layer metrics a traced run reports.
//!
//! A disabled trace records nothing, so untraced runs pay only for the
//! `Instant` reads they take anyway.

use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Instant,
    secs: f64,
}

pub struct Trace {
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            secs: f64::NAN,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(s) = self.spans.get_mut(id) {
            s.secs = s.start.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every closed span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && !s.secs.is_nan())
            .map(|s| s.secs)
            .collect()
    }

    pub fn median(&self, name: &str) -> f64 {
        crate::util::median(&self.durations(name))
    }

    /// Median share of each `name` span that its child spans leave
    /// uncovered (its self time over its duration).
    pub fn uncovered_ratio(&self, name: &str) -> f64 {
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.secs > 0.0)
            .map(|(id, s)| {
                let covered: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id) && !c.secs.is_nan())
                    .map(|c| c.secs)
                    .sum();
                (s.secs - covered) / s.secs
            })
            .collect();
        crate::util::median(&shares)
    }
}
