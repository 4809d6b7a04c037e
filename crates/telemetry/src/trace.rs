//! Bounded in-memory span buffer and its Chrome `trace_event` export.
//!
//! Every recorded span becomes one complete duration event (`ph:"X"`)
//! with microsecond timestamps relative to the sink's epoch. The JSON
//! document loads directly in Perfetto or `chrome://tracing`;
//! overlapping events on the same thread track nest automatically.

use crate::Stage;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-wide dense thread ids: Chrome traces want small integer
/// `tid`s, and `std::thread::ThreadId` has no stable integer form.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u32 {
    TID.with(|t| *t)
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    Stage(Stage),
    /// Whole-frame window; the payload is the frame index.
    Frame(u64),
}

#[derive(Debug, Clone, Copy)]
struct RawEvent {
    kind: EventKind,
    start_ns: u64,
    dur_ns: u64,
    tid: u32,
}

#[derive(Debug)]
pub(crate) struct TraceBuffer {
    events: Mutex<Vec<RawEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceBuffer {
    pub(crate) fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            // Grow lazily: short runs should not pay a 65k-slot table.
            events: Mutex::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, kind: EventKind, start_ns: u64, dur_ns: u64) {
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tid = current_tid();
        let mut events = self.events.lock().expect("trace buffer poisoned");
        if events.len() >= self.capacity {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(RawEvent {
            kind,
            start_ns,
            dur_ns,
            tid,
        });
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Serializes the buffer as a Chrome `trace_event` JSON document.
    pub(crate) fn chrome_json(&self, frames: u64) -> String {
        let events = self.events.lock().expect("trace buffer poisoned");
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"eslam\"}}",
        );
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"thread-{tid}\"}}}}"
            );
        }
        for event in events.iter() {
            let ts = event.start_ns as f64 / 1e3;
            let dur = event.dur_ns as f64 / 1e3;
            match event.kind {
                EventKind::Stage(stage) => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\
                         \"cat\":\"eslam\",\"ts\":{ts:.3},\"dur\":{dur:.3}}}",
                        event.tid,
                        stage.name()
                    );
                }
                EventKind::Frame(index) => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"frame\",\
                         \"cat\":\"eslam\",\"ts\":{ts:.3},\"dur\":{dur:.3},\
                         \"args\":{{\"frame\":{index}}}}}",
                        event.tid
                    );
                }
            }
        }
        let dropped = self.dropped();
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\
             \"otherData\":{{\"frames\":{frames},\"droppedEvents\":{dropped}}}}}"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_caps_and_counts_drops() {
        let buf = TraceBuffer::new(2);
        for i in 0..5 {
            buf.push(EventKind::Stage(Stage::Matching), i * 1000, 500);
        }
        assert_eq!(buf.dropped(), 3);
        let json = buf.chrome_json(0);
        assert_eq!(json.matches("\"matching\"").count(), 2, "{json}");
        assert!(json.contains("\"droppedEvents\":3"), "{json}");
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        let buf = TraceBuffer::new(16);
        buf.push(EventKind::Frame(7), 0, 2_000_000);
        buf.push(EventKind::Stage(Stage::Extraction), 100_000, 900_000);
        let json = buf.chrome_json(1);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with('}'), "{json}");
        // Balanced braces and brackets (no serde available to parse).
        let braces = json.matches('{').count() as i64 - json.matches('}').count() as i64;
        let brackets = json.matches('[').count() as i64 - json.matches(']').count() as i64;
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
        assert!(json.contains("\"name\":\"frame\""), "{json}");
        assert!(json.contains("\"args\":{\"frame\":7}"), "{json}");
        // µs conversion: 100_000 ns start → ts 100.000.
        assert!(json.contains("\"ts\":100.000"), "{json}");
        assert!(json.contains("\"name\":\"process_name\""), "{json}");
        assert!(json.contains("\"name\":\"thread_name\""), "{json}");
    }

    #[test]
    fn threads_get_distinct_small_tids() {
        let buf = std::sync::Arc::new(TraceBuffer::new(16));
        let b = buf.clone();
        buf.push(EventKind::Stage(Stage::Matching), 0, 1);
        std::thread::spawn(move || {
            b.push(EventKind::Stage(Stage::ExtractBand), 10, 1);
        })
        .join()
        .unwrap();
        let events = buf.events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_ne!(events[0].tid, events[1].tid);
    }
}
