//! The benchmark's own tracer: spans around its calls into each layer.
//!
//! Spans live in memory and are written once, when the benchmark ends.
//! Each has a name, start, end and parent; the spans of one cell or
//! request share a group id. A layer's self time is its span time minus
//! the part of that interval its children cover. When tracing is off,
//! [`enter`] returns `None` and costs one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rvp_json::Json;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last: (id, group).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root.
    pub parent: u64,
    /// Shared by every span of one cell or request.
    pub group: u64,
    pub name: &'static str,
    pub label: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1000.0
    }
}

/// Turns recording on or off for the spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    span: Span,
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.span.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.span.end_us = now_us();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == self.span.id) {
                s.remove(pos);
            }
        });
        if let Ok(mut done) = DONE.lock() {
            done.push(self.span.clone());
        }
    }
}

fn open(name: &'static str, label: String, parent: Option<(u64, u64)>, new_group: bool) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, inherited) = parent.unwrap_or((0, 0));
    let group = if new_group || inherited == 0 { id } else { inherited };
    STACK.with(|s| s.borrow_mut().push((id, group)));
    Guard { span: Span { id, parent, group, name, label, start_us: now_us(), end_us: 0 } }
}

fn top() -> Option<(u64, u64)> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(name: &'static str, label: impl Into<String>) -> Option<Guard> {
    enabled().then(|| open(name, label.into(), top(), false))
}

/// Opens the first span of a cell or request (a new group) under
/// `parent`, which may live on another thread (0 for a root).
pub fn enter_group(name: &'static str, label: impl Into<String>, parent: u64) -> Option<Guard> {
    enabled().then(|| open(name, label.into(), Some((parent, 0)), true))
}

/// Removes and returns every completed span.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *DONE.lock().expect("span store poisoned"))
}

/// Self time per span name: total span time minus the union of the
/// intervals its children cover, in milliseconds, with span counts.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let mut kids = children.get(&s.id).cloned().unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_us;
        for (a, b) in kids {
            let (a, b) = (a.max(cursor), b.min(s.end_us));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = (s.end_us - s.start_us).saturating_sub(covered);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own as f64 / 1000.0;
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().map(|s| {
        Json::obj([
            ("id", Json::from(s.id)),
            ("parent", s.parent.into()),
            ("group", s.group.into()),
            ("name", s.name.into()),
            ("label", s.label.as_str().into()),
            ("start_us", s.start_us.into()),
            ("end_us", s.end_us.into()),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_us: u64, end_us: u64) -> Span {
        Span { id, parent, group: 1, name, label: String::new(), start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover 10..40 of the root's 0..100.
        let spans = [
            span(1, 0, "root", 0, 100_000),
            span(2, 1, "kid", 10_000, 30_000),
            span(3, 1, "kid", 20_000, 40_000),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], (1, 70.0));
        assert_eq!(by_name["kid"], (2, 40.0));
    }
}
