//! Spans recorded around calls into each layer, from the harness's own
//! code: the program itself carries no tracing. Spans go into a
//! preallocated vector and are written out as NDJSON when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

/// One timed call: `{name, start, end, parent, request_id}`, times in
/// nanoseconds from the recorder's creation.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `reward.build`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The replayed request (or churn round) this span belongs to.
    pub request_id: u64,
}

/// Span recorder. Spans nest by call structure: a span opened inside
/// another's closure becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ms: its duration minus the time its
    /// children cover. Parallel to [`Self::spans`].
    pub fn self_ms(&self) -> Vec<f64> {
        let mut ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start) as i128)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                ns[p as usize] -= (s.end - s.start) as i128;
            }
        }
        ns.into_iter().map(|v| v.max(0) as f64 / 1e6).collect()
    }

    /// Self times (ms) of the spans named `name`, one per span.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ms)| ms)
            .collect()
    }

    /// Whole durations (ms, children included) of the spans named
    /// `name`.
    pub fn total_ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Sum of self times (ms) of every span of `request_id` except
    /// those named `root`: the time the layers account for.
    pub fn layer_ms(&self, request_id: u64, root: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_ms())
            .filter(|(s, _)| s.request_id == request_id && s.name != root)
            .map(|(_, ms)| ms)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            out.push_str(&serde_json::to_string(s).map_err(|e| e.to_string())?);
            out.push('\n');
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(out.as_bytes())
            .and_then(|_| f.sync_all())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::with_capacity(8);
        t.span("request", 7, |t| {
            t.span("a", 7, |_| spin(5));
            t.span("b", 7, |t| t.span("c", 7, |_| spin(5)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request_id == 7 && s.end >= s.start));
        let own = t.self_ms();
        assert!(own[3] >= 5.0);
        assert!(own[2] < own[3], "b's self time excludes c");
        let covered = t.layer_ms(7, "request");
        let total = (spans[0].end - spans[0].start) as f64 / 1e6;
        assert!(covered <= total && covered >= 10.0);
    }
}
