//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from this benchmark's own code, around calls
//! into the program's public functions. Each span has a name, a start, an
//! end, a parent (the innermost open span on the same thread) and a
//! request id shared by every span of one request. Recording is off
//! unless [`enable`] was called, so untraced runs pay one atomic load per
//! span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request id; 0 for spans outside any request.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// An open span; closes when dropped.
pub struct Guard {
    index: Option<usize>,
}

/// Open a span named `name` for request `req`.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let start_ns = now_ns();
    let mut spans = recorder().spans.lock().expect("span list lock poisoned");
    spans.push(Span {
        name,
        req,
        start_ns,
        end_ns: start_ns,
        parent,
    });
    let index = spans.len() - 1;
    drop(spans);
    OPEN.with(|o| o.borrow_mut().push(index));
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end = now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&i| i == index) {
                o.remove(pos);
            }
        });
        if let Ok(mut spans) = recorder().spans.lock() {
            spans[index].end_ns = end;
        }
    }
}

/// Time `f` inside a span and return its result and duration in
/// microseconds (the duration is measured whether or not tracing is on).
pub fn timed<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = span(name, req);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span list lock poisoned")
        .clone()
}

/// Every span recorded so far, leaving none behind.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span list lock poisoned"))
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it covered by
/// its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Summed duration (µs) per request id of the spans named in `names`.
pub fn per_request_us(spans: &[Span], names: &[&str]) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *out.entry(s.req).or_insert(0.0) += s.dur_ns() as f64 / 1e3;
    }
    out
}

/// One JSON line per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{self_ns}}}\n",
            s.name,
            s.req,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            req: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[sp(5, 25, None)]), vec![20]);
    }

    #[test]
    fn nested_children_are_subtracted_per_level() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = [sp(0, 100, None), sp(10, 60, Some(0)), sp(20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // two parallel children 10..50 and 30..70 cover 10..70
        let spans = [sp(0, 100, None), sp(10, 50, Some(0)), sp(30, 70, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn children_overrunning_the_parent_are_clipped() {
        let spans = [sp(10, 50, None), sp(0, 20, Some(0)), sp(40, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn disjoint_and_contained_intervals() {
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40), (12, 18)]), 20);
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 10, &[(20, 30)]), 0);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        enable();
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        let spans = take();
        let outer = spans.iter().position(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(inner.req, 7);
        assert!(inner.start_ns >= spans[outer].start_ns);
        assert!(inner.end_ns <= spans[outer].end_ns);
    }
}
