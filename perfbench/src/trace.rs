//! The traced run's span recorder.
//!
//! Spans are kept in memory, one lane per thread, and summarised when
//! the iteration ends. Every span is a call from the benchmark into one
//! layer's public function; spans never nest, so a span's self time is
//! its duration, and the time a lane spends outside every span is
//! *unattributed* — orchestration glue, or a worker with nothing to do.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer metric the span is booked to (without the `_s` suffix).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
}

/// Everything one thread recorded.
#[derive(Debug, Default)]
pub struct Lane {
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
    /// Work counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// When the thread started and stopped working, if it was a worker
    /// spawned inside the iteration (`None` for a thread that lives
    /// through the whole iteration).
    pub alive: Option<(u64, u64)>,
}

thread_local! {
    static LANE: RefCell<Lane> = RefCell::default();
}

/// Open a span whose name is only known when it ends. Spans must not
/// nest; [`summarize`] rejects a lane whose spans overlap.
pub fn begin() -> u64 {
    now_ns()
}

/// Close the span opened at `start`; returns its duration in ns.
pub fn end(start: u64, name: &'static str) -> u64 {
    let end = now_ns();
    LANE.with(|l| l.borrow_mut().spans.push(Span { name, start, end }));
    end - start
}

/// Time `f` as one call into the layer `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = begin();
    let out = f();
    end(start, name);
    out
}

/// Add `n` to this thread's counter `name`.
pub fn count(name: &'static str, n: u64) {
    LANE.with(|l| *l.borrow_mut().counters.entry(name).or_default() += n);
}

/// Take this thread's recording. `born` is when a worker thread started
/// (`None` for the thread that runs the whole iteration).
pub fn take_lane(born: Option<u64>) -> Lane {
    let mut lane = LANE.with(|l| std::mem::take(&mut *l.borrow_mut()));
    lane.alive = born.map(|b| (b, now_ns()));
    lane
}

/// One traced iteration, summarised.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Wall time of the iteration, ns.
    pub wall_ns: u64,
    /// Self time per layer, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans per layer.
    pub calls: BTreeMap<&'static str, u64>,
    /// Work counters, summed over lanes.
    pub counters: BTreeMap<&'static str, u64>,
    /// Lane time outside every span, ns (includes `idle_ns`).
    pub unattributed_ns: u64,
    /// The part of `unattributed_ns` in which a worker slot had no
    /// running thread (before spawn, after the job queue drained).
    pub idle_ns: u64,
}

impl Summary {
    /// Sum of all self times, ns.
    pub fn self_total_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

/// Summarise the lanes of one iteration that ran from `start` to `end`
/// on `lanes` worker slots. Fails if a span lies outside the window or
/// overlaps another on its lane — then self times would not add up.
pub fn summarize(
    recorded: Vec<Lane>,
    start: u64,
    end: u64,
    lanes: usize,
) -> Result<Summary, String> {
    if recorded.len() > lanes {
        return Err(format!("{} lanes recorded for {lanes} worker slots", recorded.len()));
    }
    let window = end - start;
    let mut s = Summary { wall_ns: window, ..Summary::default() };
    // Worker slots whose thread recorded nothing were idle throughout.
    let missing = (lanes - recorded.len()) as u64;
    s.unattributed_ns += missing * window;
    s.idle_ns += missing * window;
    for mut lane in recorded {
        lane.spans.sort_by_key(|sp| sp.start);
        let mut cursor = start;
        let mut gaps = 0;
        for sp in &lane.spans {
            if sp.start < cursor || sp.end > end || sp.end < sp.start {
                return Err(format!(
                    "span {} [{}, {}] overlaps its lane or leaves the window [{start}, {end}]",
                    sp.name, sp.start, sp.end
                ));
            }
            gaps += sp.start - cursor;
            cursor = sp.end;
            *s.self_ns.entry(sp.name).or_default() += sp.end - sp.start;
            *s.calls.entry(sp.name).or_default() += 1;
        }
        gaps += end - cursor;
        s.unattributed_ns += gaps;
        if let Some((born, died)) = lane.alive {
            let alive = died.min(end).saturating_sub(born.max(start));
            s.idle_ns += window - alive;
        }
        for (name, n) in lane.counters {
            *s.counters.entry(name).or_default() += n;
        }
    }
    // The accounting identity the per-layer table rests on: self times
    // plus the unattributed remainder cover every worker slot for the
    // whole iteration.
    if s.self_total_ns() + s.unattributed_ns != window * lanes as u64 {
        return Err(format!(
            "self {} ns + unattributed {} ns != wall {window} ns x {lanes} lanes",
            s.self_total_ns(),
            s.unattributed_ns
        ));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(spans: &[(&'static str, u64, u64)], alive: Option<(u64, u64)>) -> Lane {
        Lane {
            spans: spans.iter().map(|&(name, start, end)| Span { name, start, end }).collect(),
            counters: BTreeMap::from([("n", 2)]),
            alive,
        }
    }

    #[test]
    fn self_times_and_remainder_cover_every_lane() {
        let main = lane(&[("a", 10, 30), ("b", 40, 90)], None);
        let worker = lane(&[("a", 20, 50)], Some((15, 60)));
        let s = summarize(vec![main, worker], 0, 100, 3).unwrap();
        assert_eq!(s.self_ns[&"a"], 50);
        assert_eq!(s.self_ns[&"b"], 50);
        assert_eq!(s.calls[&"a"], 2);
        assert_eq!(s.counters[&"n"], 4);
        // main: 30 uncovered; worker: 70 uncovered of which 55 idle;
        // the third slot never ran: 100 idle.
        assert_eq!(s.unattributed_ns, 30 + 70 + 100);
        assert_eq!(s.idle_ns, 55 + 100);
        assert_eq!(s.self_total_ns() + s.unattributed_ns, 300);
    }

    #[test]
    fn overlapping_or_escaping_spans_are_rejected() {
        let overlap = lane(&[("a", 10, 30), ("b", 20, 40)], None);
        assert!(summarize(vec![overlap], 0, 100, 1).is_err());
        let late = lane(&[("a", 90, 110)], None);
        assert!(summarize(vec![late], 0, 100, 1).is_err());
        assert!(summarize(vec![Lane::default(), Lane::default()], 0, 1, 1).is_err());
    }

    #[test]
    fn recorder_keeps_spans_and_counters_per_thread() {
        let _ = take_lane(None);
        let v = span("x", || 5);
        count("c", 3);
        let l = take_lane(None);
        assert_eq!(v, 5);
        assert_eq!((l.spans.len(), l.spans[0].name), (1, "x"));
        assert_eq!(l.counters[&"c"], 3);
    }
}
