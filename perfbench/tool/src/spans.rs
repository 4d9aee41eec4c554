//! In-memory span recorder for the traced run.
//!
//! A span is opened and closed around one call into a layer's public
//! entry point. Spans nest through an explicit stack: the span open when
//! another opens is its parent. Nothing is written until the run ends;
//! self time is a span's duration minus the time its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Request or unit id the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals: span count, summed duration and summed self time,
/// in seconds.
#[derive(Default)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close in stack order");
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.begin(name, id);
        let r = f();
        self.end(idx);
        r
    }

    fn dur(&self, i: usize) -> u64 {
        self.spans[i].end - self.spans[i].start
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur(i) as f64 / 1e6)
            .collect()
    }

    /// Self time of every span, in nanoseconds.
    fn self_nanos(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                child[p] += self.dur(i);
            }
        }
        (0..self.spans.len())
            .map(|i| self.dur(i).saturating_sub(child[i]))
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let own = self.self_nanos();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += self.dur(i) as f64 / 1e9;
            t.self_s += own[i] as f64 / 1e9;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start, s.end
            );
        }
        out
    }
}

/// The highest percentile at or below `p` that has at
/// least ten samples beyond it (nearest rank). Returns the value, the
/// percentile actually used, and the sample count.
pub fn tail(samples: &[f64], p: f64) -> (f64, f64, usize) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let want = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let k = if n > 10 {
        want.min(n - 11)
    } else {
        (n - 1) / 2
    };
    (v[k], (k + 1) as f64 / n as f64, n)
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
