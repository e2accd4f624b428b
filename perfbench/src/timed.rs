//! The traced run's transport probe.
//!
//! [`Tracer::wrap`] puts a [`Timed`] shell around every endpoint handed
//! to an engine. The shell times each `Transport` call the engine makes
//! into the transport layer (`tcp`, `tdtcp`) and counts it. Counts and
//! nanoseconds accumulate in the shell itself — one endpoint, one
//! owner, no shared atomics — and are merged into the tracer's total
//! once, when the engine drops the endpoint at the end of its run.
//!
//! Untimed accessors (`stats`, `is_done`, `is_established`,
//! `conn_error`, `variant`, `cwnd_report`) are forwarded as they are;
//! their cost stays in the engine's share. Every call is forwarded, so
//! a traced run simulates exactly what an untraced one does.

use std::cell::Cell;
use std::sync::{Arc, Mutex};

use simcore::SimTime;
use tcp::{ConnError, ConnStats, Segment, Transport};
use wire::TdnId;

use crate::host::clock;

/// The timed `Transport` calls, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `on_segment`: a segment delivered to the endpoint.
    OnSegment,
    /// `poll_send`: the engine asking for the next segment.
    PollSend,
    /// `next_timer`: the engine reading the earliest deadline.
    NextTimer,
    /// `on_timer`: a deadline fired.
    OnTimer,
    /// `on_tdn_notification`: a ToR TDN-change notification.
    Notify,
}

impl Call {
    /// Every timed call.
    pub const ALL: [Call; 5] = [
        Call::OnSegment,
        Call::PollSend,
        Call::NextTimer,
        Call::OnTimer,
        Call::Notify,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Call::OnSegment => "on_segment",
            Call::PollSend => "poll_send",
            Call::NextTimer => "next_timer",
            Call::OnTimer => "on_timer",
            Call::Notify => "notify",
        }
    }
}

/// Transport-call totals of one traced run (or of one endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTotals {
    /// Calls, indexed like [`Call::ALL`].
    pub calls: [u64; 5],
    /// Host nanoseconds inside the calls, indexed like [`Call::ALL`].
    pub ns: [u64; 5],
    /// `poll_send` calls that returned a segment.
    pub poll_hits: u64,
}

impl CallTotals {
    /// Calls of every kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    fn add(&mut self, other: &CallTotals) {
        for i in 0..Call::ALL.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.poll_hits += other.poll_hits;
    }
}

/// Hands out endpoint shells and collects their totals. A tracer made
/// with [`Tracer::off`] wraps nothing.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<CallTotals>>>,
}

impl Tracer {
    /// No probe: endpoints reach the engine unwrapped.
    pub fn off() -> Tracer {
        Tracer { sink: None }
    }

    /// Time every transport call.
    pub fn on() -> Tracer {
        Tracer {
            sink: Some(Arc::default()),
        }
    }

    /// Wrap one endpoint for a serial engine.
    pub fn wrap(&self, t: Box<dyn Transport>) -> Box<dyn Transport> {
        match &self.sink {
            Some(sink) => Box::new(Timed::new(t, sink.clone())),
            None => t,
        }
    }

    /// Wrap one endpoint for the sharded engine.
    pub fn wrap_send(&self, t: Box<dyn Transport + Send>) -> Box<dyn Transport + Send> {
        match &self.sink {
            Some(sink) => Box::new(Timed::new(t, sink.clone())),
            None => t,
        }
    }

    /// Totals merged from every endpoint dropped so far (engines drop
    /// their endpoints before `run` returns). `None` when off.
    pub fn totals(&self) -> Option<CallTotals> {
        self.sink
            .as_ref()
            .map(|s| *s.lock().expect("a traced endpoint panicked while merging"))
    }
}

/// One endpoint's call counter; `Cell`s because `next_timer` takes
/// `&self`.
#[derive(Default)]
struct Slot {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

/// Run `f` as one timed call counted in `slot`.
#[inline(always)]
fn time<R>(slot: &Slot, f: impl FnOnce() -> R) -> R {
    let t0 = clock();
    let r = f();
    slot.ns.set(slot.ns.get() + t0.elapsed().as_nanos() as u64);
    slot.calls.set(slot.calls.get() + 1);
    r
}

/// Host nanoseconds that timing one call adds to its reading: the mean
/// reading of an empty timed call, as the median of several batches.
/// The report subtracts it from every call's time; the clock read that
/// falls outside the interval stays in the engine's share.
pub fn probe_floor_ns() -> f64 {
    const BATCH: u64 = 100_000;
    const BATCHES: usize = 7;
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let slot = Slot::default();
            for _ in 0..BATCH {
                time(&slot, || std::hint::black_box(()));
            }
            slot.ns.get() as f64 / BATCH as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// One endpoint's shell.
pub struct Timed<T: ?Sized> {
    slots: [Slot; 5],
    poll_hits: u64,
    sink: Arc<Mutex<CallTotals>>,
    inner: Box<T>,
}

impl<T: ?Sized> Timed<T> {
    fn new(inner: Box<T>, sink: Arc<Mutex<CallTotals>>) -> Timed<T> {
        Timed {
            slots: Default::default(),
            poll_hits: 0,
            sink,
            inner,
        }
    }
}

impl<T: ?Sized> Drop for Timed<T> {
    fn drop(&mut self) {
        let mine = CallTotals {
            calls: std::array::from_fn(|i| self.slots[i].calls.get()),
            ns: std::array::from_fn(|i| self.slots[i].ns.get()),
            poll_hits: self.poll_hits,
        };
        // A poisoned sink means a run already panicked; the totals are
        // moot then, and Drop must not panic again.
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(&mine);
        }
    }
}

impl<T: Transport + ?Sized> Transport for Timed<T> {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        time(&self.slots[Call::OnSegment as usize], || {
            self.inner.on_segment(now, seg)
        });
    }

    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        let seg = time(&self.slots[Call::PollSend as usize], || {
            self.inner.poll_send(now)
        });
        self.poll_hits += u64::from(seg.is_some());
        seg
    }

    fn next_timer(&self) -> Option<SimTime> {
        time(&self.slots[Call::NextTimer as usize], || {
            self.inner.next_timer()
        })
    }

    fn on_timer(&mut self, now: SimTime) {
        time(&self.slots[Call::OnTimer as usize], || {
            self.inner.on_timer(now)
        });
    }

    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        time(&self.slots[Call::Notify as usize], || {
            self.inner.on_tdn_notification(now, tdn, gen)
        });
    }

    fn on_circuit_prepare(&mut self, now: SimTime) {
        self.inner.on_circuit_prepare(now);
    }

    fn stats(&self) -> &ConnStats {
        self.inner.stats()
    }

    fn is_established(&self) -> bool {
        self.inner.is_established()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn conn_error(&self) -> Option<ConnError> {
        self.inner.conn_error()
    }

    fn variant(&self) -> &'static str {
        self.inner.variant()
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.inner.cwnd_report()
    }
}
