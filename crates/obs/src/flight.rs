//! The flight recorder: a bounded, allocation-reusing ring buffer of
//! recent spans and events, kept per component.
//!
//! Unlike the full [`crate::Trace`], which grows without bound and is
//! therefore only enabled for traced scenario variants, the flight
//! recorder is cheap enough to leave on in untraced runs: each push
//! reuses a pre-allocated slot (strings are cleared and refilled, never
//! reallocated once grown), so steady-state recording does not touch
//! the allocator. Its contents are snapshotted into the `sor-durable`
//! checkpoint stream and dumped as a deterministic post-mortem when the
//! sim kills the server, so every recovered run can explain what the
//! server was doing when it died.
//!
//! Entries are bucketed by *component*: the leading dotted segment of
//! the span/event name (`server.rank` → `server`); names without a dot
//! land in `other`.

use std::collections::BTreeMap;

use crate::bytes::{
    count_fits, get_str, get_u32, get_u64, get_u8, put_str, put_u32, put_u64, put_u8,
};

/// What a ring slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened (the name is the span name).
    Span,
    /// A point event (the detail is the event detail).
    Event,
}

impl FlightKind {
    fn to_byte(self) -> u8 {
        match self {
            FlightKind::Span => 0,
            FlightKind::Event => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FlightKind::Span),
            1 => Some(FlightKind::Event),
            _ => None,
        }
    }
}

/// One recorded slot.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Simulated time of the span start / event.
    pub time: f64,
    /// Span or event.
    pub kind: FlightKind,
    /// Span/event name (the allocation is reused across overwrites).
    pub name: String,
    /// Event detail (empty for spans).
    pub detail: String,
}

/// A fixed-capacity ring of [`FlightEntry`] slots for one component.
#[derive(Debug, Clone, PartialEq)]
struct Ring {
    entries: Vec<FlightEntry>,
    /// Index of the slot the next push will (over)write.
    next: usize,
    /// Total pushes ever, including overwritten ones.
    pushed: u64,
}

impl Ring {
    fn new() -> Self {
        Ring { entries: Vec::new(), next: 0, pushed: 0 }
    }

    fn push(&mut self, capacity: usize, time: f64, kind: FlightKind, name: &str, detail: &str) {
        if capacity == 0 {
            return;
        }
        if self.entries.len() < capacity {
            self.entries.push(FlightEntry {
                time,
                kind,
                name: name.to_string(),
                detail: detail.to_string(),
            });
            self.next = self.entries.len() % capacity;
        } else {
            let slot = &mut self.entries[self.next];
            slot.time = time;
            slot.kind = kind;
            slot.name.clear();
            slot.name.push_str(name);
            slot.detail.clear();
            slot.detail.push_str(detail);
            self.next = (self.next + 1) % capacity;
        }
        self.pushed += 1;
    }

    /// Entries oldest → newest.
    fn ordered(&self) -> impl Iterator<Item = &FlightEntry> {
        // Until the ring wraps, slot 0 is the oldest; afterwards the
        // next overwrite target is.
        let split = if (self.pushed as usize) > self.entries.len() {
            self.next % self.entries.len().max(1)
        } else {
            0
        };
        self.entries[split..].iter().chain(self.entries[..split].iter())
    }
}

/// The per-component flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    rings: BTreeMap<String, Ring>,
}

/// Default slots kept per component.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// The leading dotted segment of a metric/span name.
fn component_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((head, _)) if !head.is_empty() => head,
        _ => "other",
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping up to `capacity` recent entries per component.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { capacity, rings: BTreeMap::new() }
    }

    /// Per-component ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a span start.
    pub fn record_span(&mut self, name: &str, at: f64) {
        self.record(FlightKind::Span, name, at, "");
    }

    /// Records a point event.
    pub fn record_event(&mut self, name: &str, at: f64, detail: &str) {
        self.record(FlightKind::Event, name, at, detail);
    }

    fn record(&mut self, kind: FlightKind, name: &str, at: f64, detail: &str) {
        let comp = component_of(name);
        let ring = match self.rings.get_mut(comp) {
            Some(r) => r,
            None => self.rings.entry(comp.to_string()).or_insert_with(Ring::new),
        };
        ring.push(self.capacity, at, kind, name, detail);
    }

    /// Total entries ever pushed (including overwritten), all components.
    pub fn total_pushed(&self) -> u64 {
        self.rings.values().map(|r| r.pushed).sum()
    }

    /// Live (retained) entry count across all components.
    pub fn len(&self) -> usize {
        self.rings.values().map(|r| r.entries.len()).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained entries of one component, oldest → newest.
    pub fn component_entries(&self, component: &str) -> Vec<&FlightEntry> {
        self.rings.get(component).map(|r| r.ordered().collect()).unwrap_or_default()
    }

    /// Recorded component names, sorted.
    pub fn components(&self) -> Vec<&str> {
        self.rings.keys().map(String::as_str).collect()
    }

    /// Renders the deterministic post-mortem report: components in
    /// name order, entries oldest → newest.
    pub fn render(&self) -> String {
        let mut out = format!("== flight recorder (cap {} per component) ==\n", self.capacity);
        for (comp, ring) in &self.rings {
            out.push_str(&format!(
                "-- {comp} ({} recorded, {} retained) --\n",
                ring.pushed,
                ring.entries.len()
            ));
            for e in ring.ordered() {
                match e.kind {
                    FlightKind::Span => {
                        out.push_str(&format!("  [{:.3}] span  {}\n", e.time, e.name))
                    }
                    FlightKind::Event => {
                        out.push_str(&format!("  [{:.3}] event {} {}\n", e.time, e.name, e.detail))
                    }
                }
            }
        }
        out
    }

    /// Serializes the recorder into a self-contained byte blob (for the
    /// durable checkpoint stream). Little-endian, length-prefixed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.capacity as u32);
        put_u32(&mut out, self.rings.len() as u32);
        for (comp, ring) in &self.rings {
            put_str(&mut out, comp);
            put_u64(&mut out, ring.pushed);
            put_u32(&mut out, ring.entries.len() as u32);
            for e in ring.ordered() {
                put_u64(&mut out, e.time.to_bits());
                put_u8(&mut out, e.kind.to_byte());
                put_str(&mut out, &e.name);
                put_str(&mut out, &e.detail);
            }
        }
        out
    }

    /// Deserializes a blob written by [`FlightRecorder::to_bytes`].
    /// Returns `None` on any structural inconsistency, including a ring
    /// count the remaining bytes cannot hold.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let capacity = get_u32(bytes, &mut pos)? as usize;
        let n_rings = get_u32(bytes, &mut pos)? as usize;
        let mut rings = BTreeMap::new();
        for _ in 0..n_rings {
            let comp = get_str(bytes, &mut pos)?;
            let pushed = get_u64(bytes, &mut pos)?;
            let n = get_u32(bytes, &mut pos)? as usize;
            // An entry is at least a time, a kind byte and two string
            // length prefixes.
            if n > capacity || !count_fits(bytes, pos, n, 8 + 1 + 4 + 4) {
                return None;
            }
            let mut ring = Ring::new();
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let time = f64::from_bits(get_u64(bytes, &mut pos)?);
                let kind = FlightKind::from_byte(get_u8(bytes, &mut pos)?)?;
                let name = get_str(bytes, &mut pos)?;
                let detail = get_str(bytes, &mut pos)?;
                entries.push(FlightEntry { time, kind, name, detail });
            }
            // Entries were written oldest → newest, so the restored ring
            // starts "unrotated": the next overwrite hits the oldest.
            ring.entries = entries;
            ring.pushed = pushed;
            ring.next = if ring.entries.len() < capacity { ring.entries.len() } else { 0 };
            rings.insert(comp, ring);
        }
        if pos != bytes.len() {
            return None;
        }
        Some(FlightRecorder { capacity, rings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_entries_per_component() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record_span(&format!("server.op{i}"), i as f64);
        }
        fr.record_event("phone.sweep", 9.0, "n=2");
        let server: Vec<&str> =
            fr.component_entries("server").iter().map(|e| e.name.as_str()).collect();
        assert_eq!(server, vec!["server.op2", "server.op3", "server.op4"]);
        assert_eq!(fr.component_entries("phone").len(), 1);
        assert_eq!(fr.components(), vec!["phone", "server"]);
        assert_eq!(fr.total_pushed(), 6);
        assert_eq!(fr.len(), 4);
    }

    #[test]
    fn names_without_dots_land_in_other() {
        let mut fr = FlightRecorder::new(4);
        fr.record_span("plain", 0.0);
        fr.record_span(".leading", 1.0);
        assert_eq!(fr.components(), vec!["other"]);
        assert_eq!(fr.component_entries("other").len(), 2);
    }

    #[test]
    fn overwrites_reuse_allocations() {
        let mut fr = FlightRecorder::new(2);
        fr.record_event("net.drop", 0.0, "endpoint=phone1");
        fr.record_event("net.drop", 1.0, "endpoint=phone2");
        let cap_before: Vec<usize> =
            fr.rings["net"].entries.iter().map(|e| e.detail.capacity()).collect();
        // These overwrites fit in the existing string capacity.
        fr.record_event("net.drop", 2.0, "e=3");
        fr.record_event("net.drop", 3.0, "e=4");
        let cap_after: Vec<usize> =
            fr.rings["net"].entries.iter().map(|e| e.detail.capacity()).collect();
        assert_eq!(cap_before, cap_after);
        let times: Vec<f64> = fr.component_entries("net").iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 3.0]);
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let mut fr = FlightRecorder::new(8);
        fr.record_span("server.rank", 5.0);
        fr.record_event("net.drop", 1.0, "x");
        fr.record_span("server.commit", 6.0);
        let r = fr.render();
        assert_eq!(r, fr.render());
        let net = r.find("-- net ").unwrap();
        let server = r.find("-- server ").unwrap();
        assert!(net < server, "{r}");
        assert!(r.find("server.rank").unwrap() < r.find("server.commit").unwrap(), "{r}");
    }

    #[test]
    fn bytes_roundtrip_including_wrapped_rings() {
        let mut fr = FlightRecorder::new(2);
        for i in 0..5 {
            fr.record_span(&format!("a.s{i}"), i as f64);
        }
        fr.record_event("b.e", 10.0, "detail");
        let bytes = fr.to_bytes();
        let back = FlightRecorder::from_bytes(&bytes).unwrap();
        assert_eq!(back.render(), fr.render());
        assert_eq!(back.total_pushed(), fr.total_pushed());
        // Re-serialization of the restored recorder is stable.
        assert_eq!(
            back.to_bytes(),
            FlightRecorder::from_bytes(&back.to_bytes()).unwrap().to_bytes()
        );
    }

    #[test]
    fn forged_ring_count_is_rejected_not_allocated() {
        // capacity = n = u32::MAX for one ring with no entries: the count
        // passes `n <= capacity` but the blob ends right after it.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, 1);
        put_str(&mut bytes, "server");
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, u32::MAX);
        assert!(FlightRecorder::from_bytes(&bytes).is_none());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(FlightRecorder::from_bytes(&[]).is_none());
        assert!(FlightRecorder::from_bytes(&[1, 2, 3]).is_none());
        let mut good = FlightRecorder::new(2);
        good.record_span("a.b", 1.0);
        let mut bytes = good.to_bytes();
        bytes.push(0);
        assert!(FlightRecorder::from_bytes(&bytes).is_none(), "trailing byte accepted");
        let bytes = good.to_bytes();
        assert!(FlightRecorder::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut fr = FlightRecorder::new(0);
        fr.record_span("a.b", 1.0);
        assert!(fr.is_empty());
        assert_eq!(fr.total_pushed(), 0);
    }
}
