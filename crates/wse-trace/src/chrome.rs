//! Chrome `trace_event` JSON exporter.
//!
//! Produces the JSON Object Format understood by `chrome://tracing` and
//! Perfetto (<https://ui.perfetto.dev>): one "process" per shard, one
//! "thread" per PE row inside that shard, complete (`"X"`) events for task
//! executions and instant (`"i"`) events for wavelet/router/DSD
//! observations. Timestamps are fabric cycles reported in the `ts`
//! microsecond field (1 cycle ⇒ 1 µs on the timeline).
//!
//! The emitter is hand-rolled (this workspace builds offline with no JSON
//! dependency); everything written is ASCII from fixed tables and numbers,
//! so no string escaping is required. A small [`validate`] parser is
//! provided for tests and smoke checks.

use crate::event::{link_name, TraceEventKind, TraceOp, TraceRegion, LINK_CONTROL_BIT};
use crate::trace::Trace;

/// Synthetic `tid` used for engine/host meta events (the meta "process" is
/// `pid = num_shards`).
const META_TID: usize = 0;

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Self {
        Self {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
        self.out.push('\n');
    }

    fn metadata(&mut self, name: &str, pid: usize, tid: usize, value: &str) {
        self.sep();
        self.out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{value}\"}}}}"
        ));
    }

    fn complete(&mut self, name: &str, ts: u64, dur: u64, pid: usize, tid: usize, args: &str) {
        self.sep();
        self.out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    }

    fn instant(&mut self, name: &str, ts: u64, pid: usize, tid: usize, args: &str) {
        self.sep();
        self.out.push_str(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    }

    fn finish(mut self, trace: &Trace) -> String {
        self.out.push_str("\n],\n\"displayTimeUnit\":\"ms\",\n");
        self.out.push_str(&format!(
            "\"otherData\":{{\"fabric\":\"{}x{}\",\"shards\":{},\"final_time\":{},\"dropped_events\":{}}}}}\n",
            trace.cols, trace.rows, trace.num_shards, trace.final_time, trace.dropped
        ));
        self.out
    }
}

fn link_args(b: u16) -> String {
    let control = (b & LINK_CONTROL_BIT) != 0;
    format!(
        "\"link\":\"{}\",\"control\":{}",
        link_name((b & 0xff) as u8),
        control
    )
}

/// Render a trace as Chrome `trace_event` JSON.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut em = Emitter::new();
    // Process/thread naming: pid = shard, tid = PE row within the fabric.
    for shard in 0..trace.num_shards {
        em.metadata("process_name", shard, 0, &format!("shard {shard}"));
    }
    em.metadata("process_name", trace.num_shards, META_TID, "engine/host");
    for row in 0..trace.rows {
        // A row may span several shards; name the tid in every shard that
        // owns at least one PE of that row.
        let mut named: Vec<usize> = Vec::new();
        for col in 0..trace.cols {
            let pe = row * trace.cols + col;
            let shard = *trace.shard_of.get(pe).unwrap_or(&0) as usize;
            if !named.contains(&shard) {
                named.push(shard);
                em.metadata("thread_name", shard, row, &format!("PE row {row}"));
            }
        }
    }

    for ev in &trace.events {
        let pe = ev.pe as usize;
        let (col, row) = (pe % trace.cols, pe / trace.cols);
        let pid = *trace.shard_of.get(pe).unwrap_or(&0) as usize;
        let tid = row;
        let loc = format!("\"pe\":\"({col},{row})\",\"seq\":{}", ev.seq);
        match ev.kind {
            TraceEventKind::TaskEnd => {
                let dur = u64::from(ev.payload);
                let start = ev.time.saturating_sub(dur);
                em.complete(
                    &format!("task c{}", ev.a),
                    start,
                    dur,
                    pid,
                    tid,
                    &format!("{loc},\"color\":{},\"cost_cycles\":{dur}", ev.a),
                );
            }
            // TaskStart is implied by the TaskEnd complete event; skip it to
            // keep the JSON compact (it remains in the raw trace).
            TraceEventKind::TaskStart => {}
            TraceEventKind::DsdOp => {
                let op = TraceOp::from_code(ev.a).map_or("dsd?", TraceOp::name);
                em.instant(
                    op,
                    ev.time,
                    pid,
                    tid,
                    &format!("{loc},\"len\":{}", ev.payload),
                );
            }
            TraceEventKind::WaveletSend
            | TraceEventKind::WaveletRecv
            | TraceEventKind::FlowStall
            | TraceEventKind::EdgeDrop => {
                em.instant(
                    ev.kind.name(),
                    ev.time,
                    pid,
                    tid,
                    &format!("{loc},\"color\":{},{}", ev.a, link_args(ev.b)),
                );
            }
            TraceEventKind::RouterSwitch => {
                em.instant(
                    "router_switch",
                    ev.time,
                    pid,
                    tid,
                    &format!("{loc},\"color\":{},\"position\":{}", ev.a, ev.b),
                );
            }
            TraceEventKind::Error => {
                em.instant(
                    "error",
                    ev.time,
                    pid,
                    tid,
                    &format!("{loc},\"class\":{},\"detail\":{}", ev.a, ev.payload),
                );
            }
            TraceEventKind::Fault => {
                em.instant(
                    "fault",
                    ev.time,
                    pid,
                    tid,
                    &format!(
                        "{loc},\"fault_class\":{},{},\"detail\":{}",
                        ev.a,
                        link_args(ev.b),
                        ev.payload
                    ),
                );
            }
            TraceEventKind::RegionStart | TraceEventKind::RegionEnd => {
                let region = TraceRegion::from_code(ev.a).map_or("region?", TraceRegion::name);
                em.instant(
                    if ev.kind == TraceEventKind::RegionStart {
                        "region_start"
                    } else {
                        "region_end"
                    },
                    ev.time,
                    pid,
                    tid,
                    &format!("{loc},\"region\":\"{region}\""),
                );
            }
            TraceEventKind::Barrier | TraceEventKind::HostPhase => {
                // Meta kinds never appear in the per-PE stream; ignore
                // defensively if they do.
            }
        }
    }

    for ev in &trace.meta {
        let pid = trace.num_shards;
        match ev.kind {
            TraceEventKind::Barrier => em.instant(
                "superstep_barrier",
                ev.time,
                pid,
                META_TID,
                &format!("\"superstep\":{}", ev.payload),
            ),
            TraceEventKind::HostPhase => em.instant(
                if ev.a == 0 {
                    "host_inject"
                } else {
                    "host_collect"
                },
                ev.time,
                pid,
                META_TID,
                &format!("\"application\":{}", ev.payload),
            ),
            _ => em.instant(
                ev.kind.name(),
                ev.time,
                pid,
                META_TID,
                &format!("\"class\":{},\"detail\":{}", ev.a, ev.payload),
            ),
        }
    }

    em.finish(trace)
}

/// Minimal JSON well-formedness check of any one document.
///
/// This is not a general JSON parser — just enough structure validation
/// (balanced syntax, string/number/bool tokens) for tests to assert that a
/// hand-rolled exporter emits parseable output without a JSON dependency.
pub fn check_json(json: &str) -> Result<(), String> {
    walk(json).map(|_| ())
}

/// [`check_json`] for a Chrome trace: also requires a `traceEvents` array
/// and returns its number of elements.
pub fn validate(json: &str) -> Result<usize, String> {
    walk(json)?.ok_or_else(|| "no traceEvents array found".to_string())
}

/// Walks one JSON document, returning the element count of the last
/// `traceEvents` array seen, if any.
fn walk(json: &str) -> Result<Option<usize>, String> {
    let mut p = Parser {
        bytes: json.as_bytes(),
        pos: 0,
        trace_events: None,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(p.trace_events)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    trace_events: Option<usize>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<usize, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| 0),
            Some(b't') => self.literal("true").map(|_| 0),
            Some(b'f') => self.literal("false").map(|_| 0),
            Some(b'n') => self.literal("null").map(|_| 0),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(|_| 0),
            other => Err(format!(
                "unexpected {:?} at offset {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<usize, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(0);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let count = self.value()?;
            if key == "traceEvents" {
                self.trace_events = Some(count);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(0);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<usize, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        let mut n = 0usize;
        loop {
            self.value()?;
            n += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(n);
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at offset {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            Err(format!("empty number at offset {start}"))
        } else {
            Ok(())
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EventRing;

    fn tiny_trace() -> Trace {
        let mut r0 = EventRing::new(0, 64);
        let mut r1 = EventRing::new(1, 64);
        let mut host = EventRing::new(crate::HOST_PE, 64);
        r0.record_at(0, TraceEventKind::TaskStart, 16, 0, 0x1234);
        r0.record_at(10, TraceEventKind::TaskEnd, 16, 0, 10);
        r0.record_at(3, TraceEventKind::DsdOp, TraceOp::Fma.code(), 0, 8);
        r0.record_at(4, TraceEventKind::WaveletSend, 2, 1, 0xdead);
        r1.record_at(
            5,
            TraceEventKind::WaveletRecv,
            2,
            4 | LINK_CONTROL_BIT,
            0xbeef,
        );
        r1.record_at(6, TraceEventKind::RouterSwitch, 2, 1, 0);
        r1.record_at(7, TraceEventKind::FlowStall, 2, 3, 0);
        r1.record_at(8, TraceEventKind::EdgeDrop, 2, 1, 0);
        r1.record_at(9, TraceEventKind::Error, 1, 0, 7);
        host.record_at(0, TraceEventKind::HostPhase, 0, 0, 0);
        host.record_at(2, TraceEventKind::Barrier, 0, 0, 1);
        Trace::from_rings(2, 1, 2, vec![0, 1], 10, &[&r0, &r1], &host)
    }

    #[test]
    fn exported_json_validates_and_is_nonempty() {
        let json = chrome_trace_json(&tiny_trace());
        let n = validate(&json).expect("exporter emits well-formed JSON");
        // metadata + per-PE events (TaskStart is folded into the complete
        // event) + meta events.
        assert!(n > 10, "expected >10 trace events, got {n}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("superstep_barrier"));
        assert!(json.contains("fmacs"));
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate("{\"traceEvents\":[").is_err());
        assert!(validate("{\"traceEvents\":[]} trailing").is_err());
        assert!(validate("[1,2,3]").is_err()); // no traceEvents key
        assert_eq!(validate("{\"traceEvents\":[1,2,3]}"), Ok(3));
    }
}
