//! Pluggable trace sinks: in-memory ring buffer and JSONL file writer.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use crate::event::TraceRecord;

/// Receives every emitted [`TraceRecord`], in emission order.
///
/// A sink is only ever called on the thread that installed it (the bus
/// is thread-local); it is `Send` so it can be built on one thread and
/// handed to the thread that drives the run.
pub trait TraceSink: Send {
    /// Handles one record.
    fn record(&mut self, record: &TraceRecord);

    /// Persists any buffered output. Called on detach and by
    /// [`crate::flush`]; default is a no-op.
    fn flush(&mut self) {}
}

/// A bounded in-memory sink keeping the most recent records.
///
/// Cloning shares the underlying buffer, so keep a clone to read the
/// records after installing the original into the bus.
#[derive(Clone)]
pub struct RingBufferSink {
    buf: Arc<Mutex<VecDeque<TraceRecord>>>,
    capacity: usize,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` records (oldest evicted first).
    pub fn with_capacity(capacity: usize) -> Self {
        RingBufferSink {
            buf: Arc::new(Mutex::new(VecDeque::with_capacity(capacity.min(1024)))),
            capacity: capacity.max(1),
        }
    }

    /// Snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, record: &TraceRecord) {
        let mut buf = self.buf.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(record.clone());
    }
}

/// Streams records as one JSON object per line.
///
/// The byte stream is deterministic: field order is fixed by the event
/// serializer and floats use shortest-roundtrip formatting, so a
/// fixed-seed run yields a byte-identical file at any thread width.
pub struct JsonlSink {
    out: BufWriter<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer (e.g. `Vec<u8>` in tests).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: BufWriter::new(out),
        }
    }

    /// Creates (truncates) `path` and streams the trace into it.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, record: &TraceRecord) {
        // An I/O error mid-trace (disk full) must not abort the
        // simulation; the validate pass catches the truncated file.
        let line = serde_json::to_string(record);
        if let Ok(line) = line {
            let _ = self.out.write_all(line.as_bytes());
            let _ = self.out.write_all(b"\n");
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn rec(t: f64, device: u64) -> TraceRecord {
        TraceRecord {
            t,
            event: TraceEvent::Timeout { device },
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = RingBufferSink::with_capacity(2);
        let mut sink = ring.clone();
        assert!(ring.records().is_empty());
        for i in 0..3 {
            sink.record(&rec(i as f64, i));
        }
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].event, TraceEvent::Timeout { device: 1 });
        assert_eq!(records[1].event, TraceEvent::Timeout { device: 2 });
    }

    /// Shared byte buffer standing in for a file.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let shared = SharedBuf::default();
        let mut sink = JsonlSink::new(Box::new(shared.clone()));
        sink.record(&rec(0.5, 3));
        sink.record(&rec(1.5, 4));
        sink.flush();
        let bytes = shared.0.lock().unwrap_or_else(PoisonError::into_inner);
        let text = String::from_utf8(bytes.clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"t":0.5,"type":"Timeout","device":3}"#);
        let back: TraceRecord = serde_json::from_str(lines[1]).expect("parse");
        assert_eq!(back, rec(1.5, 4));
    }

    #[test]
    fn drop_flushes_buffered_output() {
        static FLUSHES: AtomicUsize = AtomicUsize::new(0);
        struct CountingWriter;
        impl Write for CountingWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                FLUSHES.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
        let before = FLUSHES.load(Ordering::Relaxed);
        {
            let mut sink = JsonlSink::new(Box::new(CountingWriter));
            sink.record(&rec(0.0, 0));
        }
        assert!(FLUSHES.load(Ordering::Relaxed) > before);
    }
}
