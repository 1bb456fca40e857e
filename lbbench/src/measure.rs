//! Host-side measurement: a counting global allocator, process memory
//! from procfs, the host clock, per-call timing with its own overhead
//! subtracted, and the benchmark's own span recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
// simlint: allow(d1) — the benchmark times the program from outside; every host-clock read goes through Stopwatch
use std::time::Instant;

/// A host-clock stopwatch, the benchmark's only clock. The simulation
/// never sees it: it times calls into the program from outside.
#[derive(Debug, Clone, Copy)]
// simlint: allow(d1) — host clock of the benchmark, never read by simulation code
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        // simlint: allow(d1) — host clock of the benchmark, never read by simulation code
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since the start.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two process-wide counters. A `realloc`
/// counts as one allocation of its new size, as the repository's
/// `perfbench` counts it, so the two tools report comparable numbers.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics that publish no other data, so
// `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cumulative `(allocation calls, allocated bytes)` of this process.
pub fn allocs() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let digits: String = line[field.len()..]
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`). Every run is its
/// own process, so this is the peak of one workload.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Accumulated per-call timings of one replayed stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageTime {
    /// Calls timed.
    pub calls: u64,
    /// Summed elapsed time of those calls, timer overhead included.
    pub total_ns: u64,
}

impl StageTime {
    /// Times one call of `f`.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Stopwatch::start();
        let out = std::hint::black_box(f());
        self.total_ns += t.ns();
        self.calls += 1;
        out
    }

    /// Mean cost of one call in ns, less `overhead_ns` (the cost of an
    /// empty timed call), never below zero.
    pub fn per_call_ns(&self, overhead_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.total_ns as f64 / self.calls as f64 - overhead_ns).max(0.0)
    }
}

/// The cost of timing an empty call, in ns: the median over batches of
/// the mean of many empty [`StageTime::time`] calls.
pub fn timer_overhead_ns() -> f64 {
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let mut s = StageTime::default();
            for _ in 0..2000 {
                s.time(|| ());
            }
            s.total_ns as f64 / s.calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// One span the benchmark records around its own calls into the
/// program: name, start, end (ns since the recorder was made) and the
/// span that encloses it.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Position in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// What was called.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Stopwatch,
    spans: Vec<BenchSpan>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.ns()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length.
    pub fn end(&mut self, id: usize) -> u64 {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn within<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// All spans, in the order they were opened.
    #[cfg(test)]
    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// Span `id`'s length minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                s.id,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let outer = spans.begin("outer");
        let inner = spans.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.end(inner);
        spans.end(outer);
        let s = spans.spans();
        assert_eq!(s[inner].parent, Some(outer));
        let outer_len = s[outer].end_ns - s[outer].start_ns;
        let inner_len = s[inner].end_ns - s[inner].start_ns;
        assert_eq!(spans.self_ns(outer), outer_len - inner_len);
        assert_eq!(spans.to_ndjson().lines().count(), 2);
    }

    #[test]
    fn allocation_counter_sees_a_vec() {
        let (c0, b0) = allocs();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        let (c1, b1) = allocs();
        drop(v);
        assert!(c1 > c0);
        assert!(b1 - b0 >= 4096);
    }
}
