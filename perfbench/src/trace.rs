//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. A span carries a name, start and end (nanoseconds
//! from the recorder's origin), the span that caused it, the request
//! it belongs to, and the thread that recorded it. Spans live in memory
//! until the run ends, when [`write_tsv`] dumps them.
//!
//! When tracing is off every entry point is a relaxed atomic load and
//! nothing else, so the untraced run pays nothing measurable.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Largest share of the measured wall time the span tree may double
/// count or leave uncovered before the self-time audit fails.
pub const AUDIT_SLACK: f64 = 0.03;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Program builds are only counted inside the measured region.
static COUNTING: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static BUILT: AtomicU64 = AtomicU64::new(0);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static IMAGES: Mutex<Option<HashSet<u64>>> = Mutex::new(None);

thread_local! {
    /// Open spans of this thread, innermost last: (id, request).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// When this thread's current item first built a program.
    static FIRST_BUILD: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `genomics.parse`.
    pub name: &'static str,
    /// Start, ns from the origin.
    pub start: u64,
    /// End, ns from the origin.
    pub end: u64,
    /// Request the span belongs to (0 outside request-scoped work).
    pub req: u64,
    /// Recording thread (dense per-process numbering).
    pub thread: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

fn ns(t: Instant) -> u64 {
    let origin = *ORIGIN.get_or_init(Instant::now);
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Turns tracing on for the rest of the process and installs the
/// process-global program-build observer. Call once, before any work.
pub fn enable() {
    ORIGIN.get_or_init(Instant::now);
    *IMAGES.lock().unwrap_or_else(|e| e.into_inner()) = Some(HashSet::new());
    ENABLED.store(true, Ordering::SeqCst);
    quetzal::isa::set_build_observer(|program| {
        FIRST_BUILD.with(|first| {
            if first.get().is_none() {
                first.set(Some(Instant::now()));
            }
        });
        if COUNTING.load(Ordering::Relaxed) {
            BUILT.fetch_add(1, Ordering::Relaxed);
            let mut h = std::collections::hash_map::DefaultHasher::new();
            program.instructions().hash(&mut h);
            if let Some(set) = IMAGES.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
                set.insert(h.finish());
            }
        }
    });
}

/// Whether this is the traced run.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts or stops counting program builds (the measured region).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Programs built, and distinct instruction streams among them, while
/// counting was on.
pub fn build_counts() -> (u64, u64) {
    let distinct = IMAGES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map_or(0, |s| s.len() as u64);
    (BUILT.load(Ordering::Relaxed), distinct)
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

/// Opens a span named `name` under the thread's innermost open span.
/// `req` tags a new request; 0 inherits the parent's request.
pub fn enter(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.last().copied();
        let req = if req == 0 {
            top.map_or(0, |t| t.1)
        } else {
            req
        };
        s.push((id, req));
        (top.map(|t| t.0), req)
    });
    Guard {
        open: Some((id, parent, name, req, ns(Instant::now()))),
    }
}

impl Guard {
    /// Records a finished child span `[start, end]` under this span.
    pub fn child(&self, name: &'static str, start: Instant, end: Instant) {
        if let Some((id, _, _, req, _)) = self.open {
            push(Span {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent: Some(id),
                name,
                start: ns(start),
                end: ns(end),
                req,
                thread: THREAD.with(|t| *t),
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, req, start)) = self.open.take() {
            let end = ns(Instant::now());
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|e| e.0 == id) {
                    s.truncate(pos);
                }
            });
            push(Span {
                id,
                parent,
                name,
                start,
                end,
                req,
                thread: THREAD.with(|t| *t),
            });
        }
    }
}

fn push(span: Span) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Marks the start of one work item on this thread: the next program
/// build the item triggers ends its preparation phase.
pub fn item_started() {
    FIRST_BUILD.with(|f| f.set(None));
}

/// When the current item first built a program (`None` if it built
/// none, or tracing is off).
pub fn first_build() -> Option<Instant> {
    FIRST_BUILD.with(Cell::get)
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Self time of every span: its duration minus the part of it its
/// children cover (children clipped to the span, overlaps counted
/// once), in ns.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// The self-time audit: self times must add up to `wall_s`, the wall
/// time the workload measured (summed over its concurrent loops).
/// Returns the relative gap; a gap above [`AUDIT_SLACK`] means spans
/// escaped their parents, overlapped, or left measured time uncovered.
pub fn audit_gap(spans: &[Span], wall_s: f64) -> f64 {
    let total: u64 = self_times(spans).iter().sum();
    if wall_s <= 0.0 {
        return f64::INFINITY;
    }
    (total as f64 * 1e-9 - wall_s).abs() / wall_s
}

/// Writes the spans as tab-separated lines
/// (`id parent name start_ns end_ns req thread`), after a `#` header
/// line carrying `header`.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_tsv(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# {header}")?;
    writeln!(w, "# id\tparent\tname\tstart_ns\tend_ns\treq\tthread")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.start,
            s.end,
            s.req,
            s.thread
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start,
            end,
            req: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
        assert!(audit_gap(&spans, 100e-9) < 1e-9);
    }

    #[test]
    fn audit_catches_overlapping_and_escaping_children() {
        // Two children covering the same interval: counted once in the
        // parent's self time, twice in the children's.
        let overlapping = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(1), 0, 50),
        ];
        assert!(audit_gap(&overlapping, 100e-9) > AUDIT_SLACK);
        // A child running past its parent.
        let escaping = [span(1, None, 0, 100), span(2, Some(1), 90, 200)];
        assert!(audit_gap(&escaping, 100e-9) > AUDIT_SLACK);
        // Measured time the spans never covered.
        assert!(audit_gap(&[span(1, None, 0, 50)], 100e-9) > AUDIT_SLACK);
    }
}
