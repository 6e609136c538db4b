//! The built-in recorders of the engine's event stream.
//!
//! The phase pipeline announces everything observable as a [`SlotEvent`];
//! two recorders fold the stream into the classic [`SimReport`] exactly:
//!
//! * [`MetricsObserver`] — counters, latency statistics, per-link success
//!   counts, fault and battery accounting;
//! * [`TraceObserver`] — the bounded ring buffer of [`TraceEvent`]s
//!   (a strict projection of the richer [`SlotEvent`] stream).
//!
//! Events are small `Copy` values and both recorders are concrete fields
//! of the engine, so recording is a direct call that adds no steady-state
//! allocations to the step loop (the allocation audit in `ttdc-bench`'s
//! `alloc_audit` test covers this) and no path restriction: every path,
//! the time-skipping engine included, announces the same events.

use crate::metrics::SimReport;
use crate::trace::{Trace, TraceEvent};

/// One observable engine event, announced by the phase that caused it.
///
/// A superset of [`TraceEvent`]: it additionally reports end-to-end
/// deliveries, stale-packet drops, saturated-mode link successes, and the
/// queue loss attached to a crash — bookkeeping the trace never recorded
/// but the metrics need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SlotEvent {
    /// `node` generated a packet for `final_dst`. `routed` is `false` when
    /// the packet was dead on arrival (no neighbour / no route to the
    /// sink, `final_dst` may be `usize::MAX`) and was counted as
    /// undeliverable instead of queued.
    PacketGenerated {
        /// Originating node.
        node: usize,
        /// End-to-end destination (`usize::MAX` if none could be chosen).
        final_dst: usize,
        /// Whether the packet was actually enqueued.
        routed: bool,
    },
    /// `node` dropped a queued packet whose next hop left radio range with
    /// no replacement route.
    StaleDropped {
        /// The node holding the stale packet.
        node: usize,
    },
    /// `node` transmitted toward `next_hop` (`usize::MAX` in saturated
    /// broadcast mode).
    Transmitted {
        /// Sender.
        node: usize,
        /// Intended next hop.
        next_hop: usize,
    },
    /// Listener `at` observed a collision (≥ 2 transmitting neighbours,
    /// none captured).
    Collision {
        /// The listening node that heard garbage.
        at: usize,
    },
    /// Injected link loss erased an otherwise-decoded reception
    /// `from → to`.
    LinkDropped {
        /// Sender whose packet faded.
        from: usize,
        /// Listener that failed to decode it.
        to: usize,
    },
    /// Saturated mode: a guaranteed reception `from → to` succeeded.
    LinkSuccess {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
    },
    /// A hop `from → to` handed a queued packet over.
    HopDelivered {
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
    },
    /// A packet reached its final destination `node` after `latency`
    /// slots in the network.
    Delivered {
        /// The destination node.
        node: usize,
        /// Slots between generation and delivery.
        latency: u64,
    },
    /// `node` dropped a packet after exhausting its ARQ retry budget.
    RetryExhausted {
        /// The node holding the abandoned packet.
        node: usize,
    },
    /// `node` transiently crashed (fault injection, not battery death),
    /// losing `queue_lost` queued packets.
    NodeCrashed {
        /// The node that went down.
        node: usize,
        /// Queued packets lost in the crash (0 with persistent queues).
        queue_lost: u64,
    },
    /// `node` rebooted after a transient crash.
    NodeRecovered {
        /// The node that came back up.
        node: usize,
    },
    /// `node` ran out of battery (permanent, unlike a crash).
    NodeDied {
        /// The exhausted node.
        node: usize,
    },
}

/// The built-in metrics accumulator: folds the event stream into a
/// [`SimReport`] exactly as the pre-pipeline engine did inline.
///
/// The engine owns the energy ledger (battery death is physics the energy
/// phase must see mid-loop), the slot counter, and the queue backlog;
/// [`Simulator::report`](crate::Simulator::report) grafts those onto this
/// observer's snapshot.
#[derive(Clone, Debug)]
pub(crate) struct MetricsObserver {
    report: SimReport,
}

impl MetricsObserver {
    /// A fresh accumulator with every counter at zero.
    pub(crate) fn new() -> MetricsObserver {
        MetricsObserver {
            report: SimReport::new(0),
        }
    }

    /// The counters accumulated so far. The `slots`, `backlog`, `energy`,
    /// and `trace` fields are *not* maintained here — they belong to the
    /// engine and the trace observer.
    pub(crate) fn snapshot(&self) -> &SimReport {
        &self.report
    }

    /// Folds one engine event in `slot` into the counters.
    pub(crate) fn on_event(&mut self, slot: u64, event: &SlotEvent) {
        let r = &mut self.report;
        match *event {
            SlotEvent::PacketGenerated { routed, .. } => {
                r.generated += 1;
                if !routed {
                    r.undeliverable += 1;
                }
            }
            SlotEvent::StaleDropped { .. } => r.undeliverable += 1,
            SlotEvent::Transmitted { .. } => {}
            SlotEvent::Collision { .. } => r.collisions += 1,
            SlotEvent::LinkDropped { .. } => r.link_drops += 1,
            SlotEvent::LinkSuccess { from, to } => {
                *r.link_success.entry((from, to)).or_insert(0) += 1;
            }
            SlotEvent::HopDelivered { .. } => r.hop_deliveries += 1,
            SlotEvent::Delivered { latency, .. } => {
                r.delivered += 1;
                r.latency.push(latency as f64);
                r.latency_hist.record(latency);
            }
            SlotEvent::RetryExhausted { .. } => r.retry_exhausted += 1,
            SlotEvent::NodeCrashed { queue_lost, .. } => {
                r.crashes += 1;
                r.crash_dropped += queue_lost;
                r.undeliverable += queue_lost;
            }
            SlotEvent::NodeRecovered { .. } => r.recoveries += 1,
            SlotEvent::NodeDied { .. } => {
                r.deaths += 1;
                r.first_death_slot.get_or_insert(slot);
            }
        }
    }
}

/// The built-in trace recorder: projects the event stream onto the classic
/// [`TraceEvent`] ring buffer. Events with no trace representation
/// (deliveries, stale drops, saturated link successes, unrouted
/// generations) are skipped, matching the pre-pipeline trace contents
/// exactly.
#[derive(Clone, Debug)]
pub(crate) struct TraceObserver {
    trace: Trace,
}

impl TraceObserver {
    /// A recorder keeping at most `capacity` events (0 disables tracing).
    pub(crate) fn new(capacity: usize) -> TraceObserver {
        TraceObserver {
            trace: Trace::new(capacity),
        }
    }

    /// The retained trace.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Records the trace projection of one engine event in `slot`, if any.
    pub(crate) fn on_event(&mut self, slot: u64, event: &SlotEvent) {
        if !self.trace.enabled() {
            return;
        }
        let mapped = match *event {
            SlotEvent::PacketGenerated {
                node,
                final_dst,
                routed: true,
            } => Some(TraceEvent::Generated { node, final_dst }),
            SlotEvent::Transmitted { node, next_hop } => {
                Some(TraceEvent::Transmitted { node, next_hop })
            }
            SlotEvent::Collision { at } => Some(TraceEvent::Collision { at }),
            SlotEvent::LinkDropped { from, to } => Some(TraceEvent::LinkDropped { from, to }),
            SlotEvent::HopDelivered { from, to } => Some(TraceEvent::HopDelivered { from, to }),
            SlotEvent::RetryExhausted { node } => Some(TraceEvent::RetryExhausted { node }),
            SlotEvent::NodeCrashed { node, .. } => Some(TraceEvent::NodeCrashed { node }),
            SlotEvent::NodeRecovered { node } => Some(TraceEvent::NodeRecovered { node }),
            SlotEvent::NodeDied { node } => Some(TraceEvent::NodeDied { node }),
            SlotEvent::PacketGenerated { routed: false, .. }
            | SlotEvent::StaleDropped { .. }
            | SlotEvent::LinkSuccess { .. }
            | SlotEvent::Delivered { .. } => None,
        };
        if let Some(ev) = mapped {
            self.trace.record(slot, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_fold_matches_event_semantics() {
        let mut m = MetricsObserver::new();
        m.on_event(
            0,
            &SlotEvent::PacketGenerated {
                node: 1,
                final_dst: 2,
                routed: true,
            },
        );
        m.on_event(
            0,
            &SlotEvent::PacketGenerated {
                node: 3,
                final_dst: usize::MAX,
                routed: false,
            },
        );
        m.on_event(1, &SlotEvent::StaleDropped { node: 1 });
        m.on_event(1, &SlotEvent::Collision { at: 2 });
        m.on_event(2, &SlotEvent::HopDelivered { from: 1, to: 2 });
        m.on_event(
            2,
            &SlotEvent::Delivered {
                node: 2,
                latency: 2,
            },
        );
        m.on_event(3, &SlotEvent::LinkSuccess { from: 0, to: 1 });
        m.on_event(3, &SlotEvent::LinkSuccess { from: 0, to: 1 });
        m.on_event(
            4,
            &SlotEvent::NodeCrashed {
                node: 0,
                queue_lost: 3,
            },
        );
        m.on_event(5, &SlotEvent::NodeRecovered { node: 0 });
        m.on_event(6, &SlotEvent::NodeDied { node: 1 });
        m.on_event(7, &SlotEvent::NodeDied { node: 0 });

        let r = m.snapshot();
        assert_eq!(r.generated, 2);
        assert_eq!(r.undeliverable, 1 + 1 + 3); // unrouted + stale + crash
        assert_eq!(r.collisions, 1);
        assert_eq!(r.hop_deliveries, 1);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.latency.mean(), 2.0);
        assert_eq!(r.link_success[&(0, 1)], 2);
        assert_eq!((r.crashes, r.crash_dropped, r.recoveries), (1, 3, 1));
        assert_eq!(r.deaths, 2);
        assert_eq!(r.first_death_slot, Some(6));
    }

    #[test]
    fn trace_observer_projects_and_skips() {
        let mut t = TraceObserver::new(16);
        t.on_event(
            0,
            &SlotEvent::PacketGenerated {
                node: 1,
                final_dst: 2,
                routed: true,
            },
        );
        // Unrouted generations, deliveries, and link successes never hit
        // the trace — matching the pre-pipeline recorder.
        t.on_event(
            0,
            &SlotEvent::PacketGenerated {
                node: 3,
                final_dst: usize::MAX,
                routed: false,
            },
        );
        t.on_event(
            1,
            &SlotEvent::Delivered {
                node: 2,
                latency: 1,
            },
        );
        t.on_event(1, &SlotEvent::LinkSuccess { from: 0, to: 1 });
        t.on_event(1, &SlotEvent::StaleDropped { node: 2 });
        t.on_event(
            2,
            &SlotEvent::NodeCrashed {
                node: 0,
                queue_lost: 9,
            },
        );
        let events: Vec<TraceEvent> = t.trace().events().map(|&(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                TraceEvent::Generated {
                    node: 1,
                    final_dst: 2
                },
                TraceEvent::NodeCrashed { node: 0 },
            ]
        );
    }

    #[test]
    fn disabled_trace_observer_records_nothing() {
        let mut t = TraceObserver::new(0);
        t.on_event(0, &SlotEvent::Collision { at: 1 });
        assert!(t.trace().is_empty());
    }
}
