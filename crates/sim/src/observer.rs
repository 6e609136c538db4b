//! The engine's event stream and its one recorder.
//!
//! The phase pipeline announces everything observable as a [`SlotEvent`];
//! [`SimReport::record`] folds each event into the report once: its
//! counters, latency statistics, per-link success counts, fault and
//! battery accounting, and the bounded ring buffer of [`TraceEvent`]s (a
//! strict projection of the richer [`SlotEvent`] stream).
//!
//! Events are small `Copy` values and the report is a concrete field of
//! the engine, so recording is a direct call that adds no steady-state
//! allocations to the step loop (the allocation audit in `ttdc-bench`'s
//! `alloc_audit` test covers this) and no path restriction: every path,
//! the time-skipping engine included, announces the same events.

use crate::metrics::SimReport;
use crate::trace::TraceEvent;

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

impl SimReport {
    /// Folds one engine event in `slot` into the report: bumps its
    /// counters and, when tracing is on, records its [`TraceEvent`]
    /// projection. Deliveries, stale drops, saturated link successes and
    /// unrouted generations have no trace representation and only count.
    ///
    /// The engine owns the energy ledger (battery death is physics the
    /// energy phase must see mid-loop), the slot counter and the queue
    /// backlog; [`Simulator::report`](crate::Simulator::report) grafts
    /// those onto the recorded report.
    pub(crate) fn record(&mut self, slot: u64, event: &SlotEvent) {
        let traced = match *event {
            SlotEvent::PacketGenerated {
                node,
                final_dst,
                routed,
            } => {
                self.generated += 1;
                if !routed {
                    self.undeliverable += 1;
                    return;
                }
                TraceEvent::Generated { node, final_dst }
            }
            SlotEvent::StaleDropped { .. } => {
                self.undeliverable += 1;
                return;
            }
            SlotEvent::Transmitted { node, next_hop } => TraceEvent::Transmitted { node, next_hop },
            SlotEvent::Collision { at } => {
                self.collisions += 1;
                TraceEvent::Collision { at }
            }
            SlotEvent::LinkDropped { from, to } => {
                self.link_drops += 1;
                TraceEvent::LinkDropped { from, to }
            }
            SlotEvent::LinkSuccess { from, to } => {
                *self.link_success.entry((from, to)).or_insert(0) += 1;
                return;
            }
            SlotEvent::HopDelivered { from, to } => {
                self.hop_deliveries += 1;
                TraceEvent::HopDelivered { from, to }
            }
            SlotEvent::Delivered { latency, .. } => {
                self.delivered += 1;
                self.latency.push(latency as f64);
                self.latency_hist.record(latency);
                return;
            }
            SlotEvent::RetryExhausted { node } => {
                self.retry_exhausted += 1;
                TraceEvent::RetryExhausted { node }
            }
            SlotEvent::NodeCrashed { node, queue_lost } => {
                self.crashes += 1;
                self.crash_dropped += queue_lost;
                self.undeliverable += queue_lost;
                TraceEvent::NodeCrashed { node }
            }
            SlotEvent::NodeRecovered { node } => {
                self.recoveries += 1;
                TraceEvent::NodeRecovered { node }
            }
            SlotEvent::NodeDied { node } => {
                self.deaths += 1;
                self.first_death_slot.get_or_insert(slot);
                TraceEvent::NodeDied { node }
            }
        };
        self.trace.record(slot, traced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// A zeroed report whose trace keeps at most `capacity` events, as
    /// the engine makes it.
    fn recorder(capacity: usize) -> SimReport {
        let mut r = SimReport::new(0);
        r.trace = Trace::new(capacity);
        r
    }

    #[test]
    fn metrics_fold_matches_event_semantics() {
        let mut r = recorder(0);
        r.record(
            0,
            &SlotEvent::PacketGenerated {
                node: 1,
                final_dst: 2,
                routed: true,
            },
        );
        r.record(
            0,
            &SlotEvent::PacketGenerated {
                node: 3,
                final_dst: usize::MAX,
                routed: false,
            },
        );
        r.record(1, &SlotEvent::StaleDropped { node: 1 });
        r.record(1, &SlotEvent::Collision { at: 2 });
        r.record(2, &SlotEvent::HopDelivered { from: 1, to: 2 });
        r.record(
            2,
            &SlotEvent::Delivered {
                node: 2,
                latency: 2,
            },
        );
        r.record(3, &SlotEvent::LinkSuccess { from: 0, to: 1 });
        r.record(3, &SlotEvent::LinkSuccess { from: 0, to: 1 });
        r.record(
            4,
            &SlotEvent::NodeCrashed {
                node: 0,
                queue_lost: 3,
            },
        );
        r.record(5, &SlotEvent::NodeRecovered { node: 0 });
        r.record(6, &SlotEvent::NodeDied { node: 1 });
        r.record(7, &SlotEvent::NodeDied { node: 0 });

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
        let mut t = recorder(16);
        t.record(
            0,
            &SlotEvent::PacketGenerated {
                node: 1,
                final_dst: 2,
                routed: true,
            },
        );
        // Unrouted generations, deliveries, and link successes never hit
        // the trace — matching the pre-pipeline recorder.
        t.record(
            0,
            &SlotEvent::PacketGenerated {
                node: 3,
                final_dst: usize::MAX,
                routed: false,
            },
        );
        t.record(
            1,
            &SlotEvent::Delivered {
                node: 2,
                latency: 1,
            },
        );
        t.record(1, &SlotEvent::LinkSuccess { from: 0, to: 1 });
        t.record(1, &SlotEvent::StaleDropped { node: 2 });
        t.record(
            2,
            &SlotEvent::NodeCrashed {
                node: 0,
                queue_lost: 9,
            },
        );
        let events: Vec<TraceEvent> = t.trace.events().map(|&(_, e)| e).collect();
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
        let mut t = recorder(0);
        t.record(0, &SlotEvent::Collision { at: 1 });
        t.record(1, &SlotEvent::NodeDied { node: 2 });
        assert!(t.trace.is_empty());
        // The counters still move with tracing off.
        assert_eq!(t.collisions, 1);
        assert_eq!((t.deaths, t.first_death_slot), (1, Some(1)));
    }
}
