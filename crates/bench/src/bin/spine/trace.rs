//! In-memory span recorder for the traced run.
//!
//! Spans nest `workload → round → op → device`: the first three are opened
//! by the benchmark around its own calls into the engine, device spans are
//! emitted by the bench-owned device wrappers with the calling thread's
//! innermost open span as parent. A device call made on a thread that has
//! no open span (an engine worker thread) gets parent 0 and is accounted
//! as *unattributed*. Spans inside the engine are out of scope here.
//!
//! Recording is off by default; a disabled tracer costs one relaxed load
//! per call site, so the same repository can serve an untraced and a
//! traced phase and their difference is the tracing overhead.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

pub const LAYER_OP: &str = "op";
pub const LAYER_DISK: &str = "disk";
pub const LAYER_LOG: &str = "log";
/// Grouping spans (`workload`, `round`): structure only, no accounting.
pub const LAYER_BENCH: &str = "bench";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    pub name: &'static str,
    /// Second half of an op name (`<api>.<class>`); empty otherwise.
    pub class: &'static str,
    pub layer: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_no() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub struct Tracer {
    enabled: AtomicBool,
    /// Every round flips `enabled`: see [`Tracer::round`].
    alternating: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    /// Where finished spans go; see [`Tracer::recording`].
    finished: Sender<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose spans nobody collects (tests, probes' own stores).
    pub fn new() -> Tracer {
        Tracer::recording().0
    }

    /// A tracer and the receiving end of its finished spans: threads hand
    /// spans over through a channel, and the one thread that reports
    /// drains it with [`drain`].
    pub fn recording() -> (Tracer, Receiver<Span>) {
        let (finished, spans) = channel();
        let tracer = Tracer {
            enabled: AtomicBool::new(false),
            alternating: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            finished,
        };
        (tracer, spans)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// In alternating mode every other round is recorded: a traced run
    /// does each piece of work twice, back to back, once without and once
    /// with spans, so the two kinds of round see the same machine and the
    /// same data, and their difference is the tracing overhead.
    pub fn set_alternating(&self, on: bool) {
        self.alternating.store(on, Ordering::Relaxed);
    }

    pub fn alternating(&self) -> bool {
        self.alternating.load(Ordering::Relaxed)
    }

    /// Opens a `round` span, after flipping recording when alternating.
    pub fn round(&self) -> Guard<'_> {
        if self.alternating() {
            self.enabled.fetch_xor(true, Ordering::Relaxed);
        }
        self.enter("round", "", LAYER_BENCH)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span on this thread; it closes when the guard drops.
    pub fn enter(&self, name: &'static str, class: &'static str, layer: &'static str) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let open = Span {
            id,
            parent,
            name,
            class,
            layer,
            thread: thread_no(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        Guard {
            tracer: self,
            open: Some(open),
        }
    }

    /// Makes `parent` the enclosing span of everything this thread opens
    /// until the guard drops (for load threads spawned by a workload).
    pub fn adopt(&self, parent: u64) -> Adopted {
        let pushed = parent != 0;
        if pushed {
            STACK.with(|s| s.borrow_mut().push(parent));
        }
        Adopted { pushed }
    }

    /// Id of this thread's innermost open span (0 if none).
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Times `f` as a leaf span under this thread's innermost open span.
    pub fn leaf<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current(),
            name,
            class: "",
            layer,
            thread: thread_no(),
            start_ns,
            end_ns,
        };
        self.finish(span);
        out
    }

    /// Hands a finished span over; lost if nobody holds the receiver.
    fn finish(&self, span: Span) {
        let _unheard = self.finished.send(span);
    }
}

/// Removes and returns everything recorded so far.
pub fn drain(spans: &Receiver<Span>) -> Vec<Span> {
    spans.try_iter().collect()
}

pub struct Guard<'t> {
    tracer: &'t Tracer,
    open: Option<Span>,
}

#[cfg(test)]
impl Guard<'_> {
    pub fn id(&self) -> u64 {
        self.open.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = self.tracer.now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            self.tracer.finish(span);
        }
    }
}

pub struct Adopted {
    pushed: bool,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        if self.pushed {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Where the time of the traced ops went. The four shares sum to 1 over
/// `total_ns` = op time + unattributed device time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    pub ops: u64,
    pub total_ns: u64,
    /// Device time inside ops, by device.
    pub disk_ns: u64,
    pub log_ns: u64,
    /// Op time not covered by any child span.
    pub op_self_ns: u64,
    /// Device time on threads with no open bench span.
    pub unattributed_ns: u64,
    /// All device time, attributed or not.
    pub disk_busy_ns: u64,
    pub log_busy_ns: u64,
}

impl Breakdown {
    pub fn share(&self, part: u64) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            part as f64 / self.total_ns as f64
        }
    }
}

/// Accounts every op span's duration to its device children or to itself.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut b = Breakdown::default();
    for s in spans {
        match s.layer {
            LAYER_DISK => b.disk_busy_ns += s.duration_ns(),
            LAYER_LOG => b.log_busy_ns += s.duration_ns(),
            _ => continue,
        }
        if s.parent == 0 {
            b.unattributed_ns += s.duration_ns();
        } else {
            children.entry(s.parent).or_default().push(s);
        }
    }
    for op in spans.iter().filter(|s| s.layer == LAYER_OP) {
        b.ops += 1;
        let kids = children.get(&op.id).map_or(&[][..], Vec::as_slice);
        let of = |layer: &str| -> Vec<(u64, u64)> {
            kids.iter()
                .filter(|k| k.layer == layer)
                .map(|k| (k.start_ns, k.end_ns))
                .collect()
        };
        let (mut disk, mut log) = (of(LAYER_DISK), of(LAYER_LOG));
        let mut all: Vec<(u64, u64)> = disk.iter().chain(log.iter()).copied().collect();
        let covered = covered_ns(op.start_ns, op.end_ns, &mut all);
        let disk_ns = covered_ns(op.start_ns, op.end_ns, &mut disk);
        // Where disk and log children overlap, the overlap counts as disk.
        let log_ns = covered_ns(op.start_ns, op.end_ns, &mut log).min(covered - disk_ns);
        b.disk_ns += disk_ns;
        b.log_ns += log_ns;
        b.op_self_ns += op.duration_ns() - disk_ns - log_ns;
    }
    // A device span whose parent is a grouping span (a call made between
    // ops, e.g. `clear_buffer`) belongs to no op: unattributed.
    let op_ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.layer == LAYER_OP)
        .map(|s| s.id)
        .collect();
    for (parent, kids) in &children {
        if !op_ids.contains(parent) {
            b.unattributed_ns += kids.iter().map(|k| k.duration_ns()).sum::<u64>();
        }
    }
    b.total_ns = b.disk_ns + b.log_ns + b.op_self_ns + b.unattributed_ns;
    b
}

/// One JSON object per span, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 112);
    for s in spans {
        let dot = if s.class.is_empty() { "" } else { "." };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}{dot}{}\",\"layer\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.class, s.layer, s.thread, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            class: "",
            layer,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_clips_and_merges_overlaps() {
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        assert_eq!(covered_ns(0, 100, &mut [(10, 20), (30, 40)]), 20);
        // Overlapping and nested children count once.
        assert_eq!(covered_ns(0, 100, &mut [(10, 50), (40, 60), (45, 55)]), 50);
        // Clipped to the parent's interval on both sides.
        assert_eq!(covered_ns(20, 50, &mut [(0, 30), (45, 90)]), 15);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, LAYER_OP, 0, 100),
            span(2, 1, LAYER_DISK, 10, 50),
            span(3, 1, LAYER_DISK, 40, 60),
            span(4, 1, LAYER_LOG, 55, 70),
            span(5, 0, LAYER_DISK, 0, 25),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.ops, 1);
        assert_eq!(b.disk_ns, 50);
        // 55..60 is shared with the disk span and counts as disk.
        assert_eq!(b.log_ns, 10);
        assert_eq!(b.op_self_ns, 40);
        assert_eq!(b.unattributed_ns, 25);
        assert_eq!(b.total_ns, 125);
        let sum = b.share(b.disk_ns)
            + b.share(b.log_ns)
            + b.share(b.op_self_ns)
            + b.share(b.unattributed_ns);
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(b.disk_busy_ns, 40 + 20 + 25);
        assert_eq!(b.log_busy_ns, 15);
    }

    #[test]
    fn device_calls_between_ops_are_unattributed() {
        let spans = vec![
            span(1, 0, LAYER_BENCH, 0, 100),
            span(2, 1, LAYER_OP, 0, 40),
            span(3, 1, LAYER_DISK, 50, 80),
        ];
        let b = breakdown(&spans);
        assert_eq!((b.op_self_ns, b.unattributed_ns, b.total_ns), (40, 30, 70));
    }

    #[test]
    fn guards_nest_and_leaves_find_their_parent() {
        let (t, finished) = Tracer::recording();
        t.leaf("off", LAYER_DISK, || ());
        assert!(
            drain(&finished).is_empty(),
            "disabled tracer records nothing"
        );
        t.set_enabled(true);
        let round = t.enter("round", "", LAYER_BENCH);
        let round_id = round.id();
        {
            let op = t.enter("get_xml", "export", LAYER_OP);
            let op_id = op.id();
            t.leaf("disk.read", LAYER_DISK, || ());
            drop(op);
            let spans = drain(&finished);
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].parent, op_id, "leaf under the open op");
            assert_eq!(spans[1].parent, round_id, "op under the round");
        }
        // Another thread has no open span unless it adopts one.
        std::thread::scope(|s| {
            s.spawn(|| t.leaf("disk.read", LAYER_DISK, || ()));
            s.spawn(|| {
                let _a = t.adopt(round_id);
                t.leaf("disk.write", LAYER_DISK, || ());
            });
        });
        drop(round);
        let spans = drain(&finished);
        let parent_of = |name: &str| spans.iter().find(|s| s.name == name).unwrap().parent;
        assert_eq!(parent_of("disk.read"), 0);
        assert_eq!(parent_of("disk.write"), round_id);
        let line = to_jsonl(&spans[..1]);
        assert!(line.starts_with("{\"id\":") && line.ends_with("}\n"));
    }
}
