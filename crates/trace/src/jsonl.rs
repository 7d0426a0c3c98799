//! JSON-Lines sink: one JSON object per event, newline-delimited.
//!
//! Field order is fixed per variant, so identical runs produce
//! byte-identical output (the determinism tests diff two runs).

use std::io::Write;

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// Serializes one event as a single-line JSON object.
///
/// Every object starts `{"kind":"...","cycle":N,...}` followed by the
/// variant's fields in declaration order.
pub fn event_to_json(ev: &TraceEvent) -> String {
    use TraceEvent::*;
    let mut s = format!("{{\"kind\":\"{}\",\"cycle\":{}", ev.kind(), ev.cycle());
    match *ev {
        TaskPredict { task, history, chosen, ntargets, .. } => {
            s.push_str(&format!(
                ",\"task\":{task},\"history\":{history},\"chosen\":{chosen},\"ntargets\":{ntargets}"
            ));
        }
        TaskAssign { order, unit, entry, by_prediction, .. } => {
            s.push_str(&format!(
                ",\"order\":{order},\"unit\":{unit},\"entry\":{entry},\"by_prediction\":{by_prediction}"
            ));
        }
        TaskValidate { entry, actual_next, correct, .. } => {
            s.push_str(&format!(",\"entry\":{entry},\"actual_next\":"));
            match actual_next {
                Some(n) => s.push_str(&n.to_string()),
                None => s.push_str("null"),
            }
            s.push_str(&format!(",\"correct\":{correct}"));
        }
        TaskRetire { order, unit, entry, instructions, .. } => {
            s.push_str(&format!(
                ",\"order\":{order},\"unit\":{unit},\"entry\":{entry},\"instructions\":{instructions}"
            ));
        }
        TaskSquash { order, unit, entry, cause, .. } => {
            s.push_str(&format!(
                ",\"order\":{order},\"unit\":{unit},\"entry\":{entry},\"cause\":\"{}\"",
                cause.as_str()
            ));
        }
        SquashWave { cause, depth, redirect, .. } => {
            s.push_str(&format!(
                ",\"cause\":\"{}\",\"depth\":{depth},\"redirect\":",
                cause.as_str()
            ));
            match redirect {
                Some(r) => s.push_str(&r.to_string()),
                None => s.push_str("null"),
            }
        }
        DescriptorFetch { entry, hit, .. } => {
            s.push_str(&format!(",\"entry\":{entry},\"hit\":{hit}"));
        }
        RingSend { unit, reg, order, .. } => {
            s.push_str(&format!(",\"unit\":{unit},\"reg\":{reg},\"order\":{order}"));
        }
        RingHop { from, to, reg, hops, .. } => {
            s.push_str(&format!(",\"from\":{from},\"to\":{to},\"reg\":{reg},\"hops\":{hops}"));
        }
        RingDeliver { unit, reg, hops, propagate, .. } => {
            s.push_str(&format!(
                ",\"unit\":{unit},\"reg\":{reg},\"hops\":{hops},\"propagate\":{propagate}"
            ));
        }
        RingDie { unit, reg, hops, .. } => {
            s.push_str(&format!(",\"unit\":{unit},\"reg\":{reg},\"hops\":{hops}"));
        }
        UnitIssue { unit, .. } => {
            s.push_str(&format!(",\"unit\":{unit}"));
        }
        UnitStall { unit, reason, .. } => {
            s.push_str(&format!(",\"unit\":{unit},\"reason\":\"{}\"", reason.as_str()));
        }
        UnitRedirect { unit, to_pc, .. } => {
            s.push_str(&format!(",\"unit\":{unit},\"to_pc\":{to_pc}"));
        }
        ArbLoad { unit, addr, size, forwarded, .. } => {
            s.push_str(&format!(
                ",\"unit\":{unit},\"addr\":{addr},\"size\":{size},\"forwarded\":{forwarded}"
            ));
        }
        ArbStore { unit, addr, size, violated, .. } => {
            s.push_str(&format!(
                ",\"unit\":{unit},\"addr\":{addr},\"size\":{size},\"violated\":{violated}"
            ));
        }
        ArbViolation { store_unit, violated_unit, addr, .. } => {
            s.push_str(&format!(
                ",\"store_unit\":{store_unit},\"violated_unit\":{violated_unit},\"addr\":{addr}"
            ));
        }
        ArbFullStall { unit, addr, is_store, .. } => {
            s.push_str(&format!(",\"unit\":{unit},\"addr\":{addr},\"is_store\":{is_store}"));
        }
        ArbOccupancy { entries, .. } => {
            s.push_str(&format!(",\"entries\":{entries}"));
        }
        DCacheAccess { bank, addr, hit, .. } => {
            s.push_str(&format!(",\"bank\":{bank},\"addr\":{addr},\"hit\":{hit}"));
        }
        ICacheFetch { unit, pc, hit, .. } => {
            s.push_str(&format!(",\"unit\":{unit},\"pc\":{pc},\"hit\":{hit}"));
        }
        BusRequest { words, waited, done, .. } => {
            s.push_str(&format!(",\"words\":{words},\"waited\":{waited},\"done\":{done}"));
        }
    }
    s.push('}');
    s
}

/// Streams events as JSON Lines to any [`Write`] target.
pub struct JsonLinesSink<W: Write> {
    writer: W,
    /// I/O errors are sticky: the first one is kept, later writes skip.
    error: Option<std::io::Error>,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps `writer` (consider `BufWriter` for files).
    pub fn new(writer: W) -> Self {
        Self { writer, error: None }
    }

    /// The first I/O error encountered, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer (and any sticky error).
    pub fn into_inner(mut self) -> (W, Option<std::io::Error>) {
        let _ = self.writer.flush();
        (self.writer, self.error)
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event_to_json(ev);
        if let Err(e) =
            self.writer.write_all(line.as_bytes()).and_then(|()| self.writer.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    fn finish(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SquashKind;

    #[test]
    fn lines_are_self_describing_objects() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.event(&TraceEvent::TaskAssign {
            cycle: 1,
            order: 0,
            unit: 3,
            entry: 256,
            by_prediction: false,
        });
        sink.event(&TraceEvent::SquashWave {
            cycle: 5,
            cause: SquashKind::Memory,
            depth: 2,
            redirect: None,
        });
        sink.finish();
        let (buf, err) = sink.into_inner();
        assert!(err.is_none());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"kind\":\"task_assign\",\"cycle\":1,\"order\":0,\"unit\":3,\"entry\":256,\"by_prediction\":false}\n\
             {\"kind\":\"squash_wave\",\"cycle\":5,\"cause\":\"memory\",\"depth\":2,\"redirect\":null}\n"
        );
    }
}
