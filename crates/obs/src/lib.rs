//! # `obs` — zero-dependency structured observability
//!
//! Hand-rolled tracing for the DLS workspace (the build environment has no
//! registry access, so the `tracing` crate is unavailable): spans and
//! events with key/value fields, counters and histograms, pluggable sinks,
//! and deterministic per-run [phase timelines](timeline::PhaseTimeline).
//!
//! ## Design
//!
//! * **Disabled is the default and costs one relaxed atomic load.** Until
//!   a sink is [`install`]ed, every instrumentation macro bails out before
//!   constructing fields; experiment reports are bit-identical with and
//!   without a sink because instrumentation only *reads* protocol state.
//! * **Records, not strings.** Instrumented code emits typed
//!   [`Record`]s; the sink decides the encoding ([`NoopSink`] discards,
//!   [`MemorySink`] buffers and aggregates, [`JsonlSink`] serializes via
//!   `minijson` — one JSON object per line).
//! * **Two clocks.** Every record carries wall-clock microseconds since
//!   process start *and*, where the caller knows it, the simulation's
//!   virtual time. Deterministic artifacts (timelines) carry only virtual
//!   time.
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(obs::MemorySink::new());
//! obs::install(sink.clone());
//! {
//!     let _span = obs::span("solver.linear");
//!     obs::count!("solver.calls");
//!     obs::event!("solver.done", "m" => 5usize);
//! }
//! obs::uninstall();
//! assert_eq!(sink.counter_total("solver.calls"), 1.0);
//! ```
//!
//! Set `DLS_TRACE=trace.jsonl` and call [`init_from_env`] (the experiment
//! binaries do) to stream a run's records to a JSONL file for `dls-trace`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod record;
pub mod sink;
pub mod timeline;

pub use clock::RunClock;
pub use metrics::{percentile, Histogram, Summary};
pub use record::{Field, FieldValue, OptionalField, Record, RecordKind};
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink};
pub use timeline::{PhaseSpan, PhaseTimeline, TimelineKind};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// True if a sink is installed. The fast path every instrumentation site
/// checks first — a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install a sink, enabling instrumentation process-wide. Replaces (and
/// flushes) any previous sink.
pub fn install(sink: Arc<dyn Sink>) {
    let mut slot = SINK.write().unwrap();
    if let Some(old) = slot.take() {
        old.flush();
    }
    *slot = Some(sink);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove the current sink (flushing it), disabling instrumentation.
/// Returns the sink that was installed, if any.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    let mut slot = SINK.write().unwrap();
    ENABLED.store(false, Ordering::SeqCst);
    let old = slot.take();
    if let Some(s) = &old {
        s.flush();
    }
    old
}

/// Flush the installed sink's buffers (JSONL files).
pub fn flush() {
    if let Some(s) = SINK.read().unwrap().as_ref() {
        s.flush();
    }
}

/// If the `DLS_TRACE` environment variable is set, install a [`JsonlSink`]
/// writing to that path and return the path. Call once from a binary's
/// `main`; library code never does this implicitly.
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("DLS_TRACE").ok()?;
    if path.is_empty() {
        return None;
    }
    match JsonlSink::create(&path) {
        Ok(sink) => {
            install(Arc::new(sink));
            Some(path)
        }
        Err(e) => {
            eprintln!("obs: cannot open DLS_TRACE={path}: {e}");
            None
        }
    }
}

/// Allocate a process-unique trace id (monotone, starts at 1). Used by
/// the serving router to tag a request's whole cross-hop journey; ids are
/// unique within a process, which is all the fleet inspector needs to
/// join router- and shard-side records (one router injects per fleet).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Microseconds of wall time since the first record of the process.
fn wall_micros() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Deliver a record to the installed sink (drops it if none).
#[doc(hidden)]
pub fn __emit(record: Record) {
    if let Some(s) = SINK.read().unwrap().as_ref() {
        s.record(&record);
    }
}

fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An RAII span: records `SpanStart` on creation and `SpanEnd` on drop.
/// Inert (id 0) when instrumentation is disabled.
#[must_use = "a span ends when dropped; bind it to a variable"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    end_vtime: f64,
}

impl SpanGuard {
    /// The span id (0 when instrumentation was disabled at creation).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Anchor the span's end to a virtual-clock instant.
    pub fn end_at(&mut self, vtime: f64) {
        self.end_vtime = vtime;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        __emit(Record {
            kind: RecordKind::SpanEnd,
            name: self.name,
            span: self.id,
            parent: 0,
            vtime: self.end_vtime,
            wall_micros: wall_micros(),
            value: 0.0,
            fields: Vec::new(),
        });
    }
}

/// Open a span with fields, anchored at virtual time `vtime` (NaN when the
/// virtual clock is not meaningful at this site). Prefer the [`span!`]
/// macro, which skips field construction when disabled.
pub fn span_with(name: &'static str, vtime: f64, fields: Vec<Field>) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            name,
            end_vtime: f64::NAN,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_span();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    __emit(Record {
        kind: RecordKind::SpanStart,
        name,
        span: id,
        parent,
        vtime,
        wall_micros: wall_micros(),
        value: 0.0,
        fields,
    });
    SpanGuard {
        id,
        name,
        end_vtime: f64::NAN,
    }
}

/// Open a plain span (no fields, no virtual time).
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, f64::NAN, Vec::new())
}

/// Record a point event. Prefer the [`event!`] macro in hot paths.
pub fn event_with(name: &'static str, vtime: f64, fields: Vec<Field>) {
    if !enabled() {
        return;
    }
    __emit(Record {
        kind: RecordKind::Event,
        name,
        span: current_span(),
        parent: 0,
        vtime,
        wall_micros: wall_micros(),
        value: 0.0,
        fields,
    });
}

/// Increment a counter by `delta` with fields. Prefer the [`count!`] macro.
pub fn counter_with(name: &'static str, delta: f64, fields: Vec<Field>) {
    if !enabled() {
        return;
    }
    __emit(Record {
        kind: RecordKind::Counter,
        name,
        span: current_span(),
        parent: 0,
        vtime: f64::NAN,
        wall_micros: wall_micros(),
        value: delta,
        fields,
    });
}

/// Record a histogram sample with fields. Prefer the [`hist!`] macro.
pub fn histogram_with(name: &'static str, value: f64, fields: Vec<Field>) {
    if !enabled() {
        return;
    }
    __emit(Record {
        kind: RecordKind::Histogram,
        name,
        span: current_span(),
        parent: 0,
        vtime: f64::NAN,
        wall_micros: wall_micros(),
        value,
        fields,
    });
}

/// The field list of one record, in the order written. A field whose
/// value is an `Option` is left out when it is `None`.
#[doc(hidden)]
#[macro_export]
macro_rules! __fields {
    () => {
        ::std::vec::Vec::new()
    };
    ($($k:literal => $v:expr),+) => {{
        let mut fields: ::std::vec::Vec<$crate::Field> =
            ::std::vec::Vec::with_capacity(<[&str]>::len(&[$($k),+]));
        $(
            if let ::std::option::Option::Some(v) = $crate::OptionalField::into_field($v) {
                fields.push(($k, v));
            }
        )+
        fields
    }};
}

/// Open a span: `obs::span!("name")`, `obs::span!("name", vt = t)`, with
/// trailing `"key" => value` fields (an `Option` value is left out when
/// `None`). Fields are not constructed when instrumentation is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $crate::span!($name, vt = f64::NAN $(, $k => $v)*)
    };
    ($name:expr, vt = $vt:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_with($name, $vt, $crate::__fields!($($k => $v),*))
        } else {
            $crate::span_with($name, f64::NAN, Vec::new())
        }
    };
}

/// Record an event: `obs::event!("name", "key" => value, ...)`; optional
/// `vt = <virtual time>` first. Fields are not constructed when disabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $crate::event!($name, vt = f64::NAN $(, $k => $v)*)
    };
    ($name:expr, vt = $vt:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event_with($name, $vt, $crate::__fields!($($k => $v),*));
        }
    };
}

/// Increment a counter: `obs::count!("name")`, `obs::count!("name", by = 3.0)`,
/// with trailing `"key" => value` fields.
#[macro_export]
macro_rules! count {
    ($name:expr $(, $k:literal => $v:expr)* $(,)?) => {
        $crate::count!($name, by = 1.0 $(, $k => $v)*)
    };
    ($name:expr, by = $delta:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::counter_with($name, $delta, $crate::__fields!($($k => $v),*));
        }
    };
}

/// Record a histogram sample: `obs::hist!("name", value, "key" => v, ...)`.
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr $(, $k:literal => $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::histogram_with($name, $value, $crate::__fields!($($k => $v),*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The recorder is process-global; serialize tests that install sinks.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_macros_are_inert() {
        let _g = LOCK.lock().unwrap();
        assert!(!enabled());
        // None of these should panic or record anything.
        count!("c");
        event!("e", "k" => 1.0);
        hist!("h", 2.0);
        let _s = span!("s");
    }

    #[test]
    fn memory_sink_captures_span_tree_and_metrics() {
        let _g = LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        {
            let outer = span!("outer", "m" => 4usize);
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            {
                let inner = span!("inner", vt = 1.5);
                count!("msgs", by = 2.0, "phase" => 1u8);
                hist!("lat", 0.25);
                event!("tick", vt = 2.0, "node" => 3usize);
                drop(inner);
            }
            let records = sink.records();
            let inner_start = records
                .iter()
                .find(|r| r.kind == RecordKind::SpanStart && r.name == "inner")
                .unwrap();
            assert_eq!(inner_start.parent, outer_id);
            assert_eq!(inner_start.vtime, 1.5);
        }
        uninstall();
        assert!(!enabled());
        assert_eq!(sink.counter_total("msgs"), 2.0);
        assert_eq!(sink.histogram("lat"), vec![0.25]);
        // outer + inner starts and ends, counter, hist, event
        assert_eq!(sink.len(), 7);
        // Events inherit the enclosing span.
        let ev = sink
            .records()
            .into_iter()
            .find(|r| r.kind == RecordKind::Event)
            .unwrap();
        assert_ne!(ev.span, 0);
    }

    #[test]
    fn option_fields_render_as_the_plain_field_or_not_at_all() {
        let _g = LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let (some, none) = (Some(7u64), None::<u64>);
        {
            let _a = span!("s", "trace" => some, "op" => "solve");
            let _b = span!("s", "trace" => 7u64, "op" => "solve");
            let _c = span!("s", "trace" => none, "op" => "solve");
            let _d = span!("s", "op" => "solve");
        }
        event!("e", "slot" => 1usize, "trace" => some);
        event!("e", "slot" => 1usize, "trace" => 7u64);
        event!("e", "slot" => 1usize, "trace" => none);
        event!("e", "slot" => 1usize);
        count!("c", "trace" => some);
        count!("c", "trace" => 7u64);
        count!("c", "trace" => none);
        count!("c");
        hist!("h", 0.5, "trace" => some);
        hist!("h", 0.5, "trace" => 7u64);
        hist!("h", 0.5, "trace" => none);
        hist!("h", 0.5);
        uninstall();
        let fields: Vec<(RecordKind, Vec<Field>)> = sink
            .records()
            .into_iter()
            .filter(|r| r.kind != RecordKind::SpanEnd)
            .map(|r| (r.kind, r.fields))
            .collect();
        assert_eq!(fields.len(), 16);
        for quad in fields.chunks(4) {
            assert_eq!(quad[0], quad[1], "Some(v) renders as v");
            assert_eq!(quad[2], quad[3], "None leaves the field out");
            assert_ne!(quad[0], quad[2]);
        }
    }

    #[test]
    fn uninstall_returns_the_sink() {
        let _g = LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        count!("x");
        let back = uninstall().expect("sink was installed");
        assert_eq!(Arc::strong_count(&sink), 2); // ours + returned
        drop(back);
        assert!(uninstall().is_none());
    }

    #[test]
    fn span_guard_is_inert_when_disabled() {
        let _g = LOCK.lock().unwrap();
        let s = span("quiet");
        assert_eq!(s.id(), 0);
        drop(s); // must not emit or panic
    }
}
