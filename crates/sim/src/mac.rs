//! The MAC interface the simulation engine drives.
//!
//! A MAC protocol, for the purposes of this simulator, answers three
//! questions per (node, slot): may it transmit, may it listen, and — for
//! contention protocols like slotted ALOHA — with what probability should
//! it actually use a transmit opportunity. Schedule-based protocols
//! (everything derived from the paper) are [`ScheduleMac`] wrappers around
//! a [`ttdc_core::Schedule`]; the contention and coordinated-sleeping
//! baselines live in `ttdc-protocols`.

use ttdc_core::Schedule;
use ttdc_util::BitSet;

/// A slotted MAC protocol: per-slot eligibility plus an optional
/// persistence probability.
pub trait MacProtocol: Send + Sync {
    /// Human-readable protocol name (used in experiment tables).
    fn name(&self) -> &str;

    /// The protocol's period in slots (1 for memoryless protocols).
    fn frame_length(&self) -> usize;

    /// May `node` transmit in `slot`?
    ///
    /// Must be a pure function of `(node, slot)`, like
    /// [`may_receive`](MacProtocol::may_receive): the engine builds its
    /// per-slot rosters from these answers outside the RNG sequence —
    /// ahead of time for a [`SlotPlan`](crate::SlotPlan), and for every
    /// node, dead and crashed ones included, in the per-slot scan.
    fn may_transmit(&self, node: usize, slot: u64) -> bool;

    /// May `node` listen in `slot`? A pure function of `(node, slot)`
    /// (see [`may_transmit`](MacProtocol::may_transmit)).
    fn may_receive(&self, node: usize, slot: u64) -> bool;

    /// Declares that [`may_transmit`] and [`may_receive`] depend on the
    /// slot **only through `slot % frame_length()`** — i.e. the protocol
    /// really is periodic with period [`frame_length`].
    ///
    /// The engine uses this to precompute a per-frame
    /// [`SlotPlan`](crate::SlotPlan) instead of scanning every node each
    /// slot (the fast roster source). Defaults to `false` because the
    /// claim cannot be checked cheaply: a protocol that hashes the
    /// *absolute* slot (e.g. an asynchronous random-wakeup baseline)
    /// reports `frame_length() == 1` without being periodic, and a plan
    /// built from it would silently simulate the wrong schedule. Only
    /// override to `true` when the modular identity genuinely holds for
    /// every `(node, slot)`.
    ///
    /// [`may_transmit`]: MacProtocol::may_transmit
    /// [`may_receive`]: MacProtocol::may_receive
    /// [`frame_length`]: MacProtocol::frame_length
    fn frame_periodic(&self) -> bool {
        false
    }

    /// Writes frame slot `i`'s transmit set into `tx` and its listen set
    /// into `rx`, over nodes `0..n` (both sets have universe `n`; their
    /// previous contents are overwritten).
    ///
    /// The contract: the result must equal the probes, i.e. `tx` holds
    /// exactly the `v < n` with `may_transmit(v, i)` and `rx` exactly those
    /// with `may_receive(v, i)`. The engine calls it only for
    /// [`frame_periodic`](MacProtocol::frame_periodic) MACs with
    /// `i < frame_length()`: once per frame slot to fill a
    /// [`SlotPlan`](crate::SlotPlan), and under clock drift once per
    /// distinct frame slot the nodes' skewed clocks perceive, in every
    /// slot that is read from skew groups.
    ///
    /// The default probes every node, O(n) virtual calls per call — on
    /// drifted runs that is O(n) per perceived frame slot per simulated
    /// slot. A MAC that can state its slot sets as bit masks should
    /// override it with word fills or copies, which makes both uses
    /// proportional to the awake nodes. Every frame-periodic MAC in this
    /// workspace does, except the naive 1-in-k strawman: its listeners
    /// are a hash of the node id, so it keeps the probe.
    fn frame_slot_masks(&self, n: usize, i: usize, tx: &mut BitSet, rx: &mut BitSet) {
        debug_assert!(tx.universe() == n && rx.universe() == n);
        tx.clear();
        rx.clear();
        let slot = i as u64;
        for v in 0..n {
            if self.may_transmit(v, slot) {
                tx.insert(v);
            }
            if self.may_receive(v, slot) {
                rx.insert(v);
            }
        }
    }

    /// Probability that a node with pending traffic actually uses a
    /// transmit opportunity (p-persistence). Defaults to 1 (fully
    /// persistent), which is what schedule-based protocols want.
    fn transmit_probability(&self, _node: usize, _slot: u64) -> f64 {
        1.0
    }
}

/// A [`Schedule`] driven periodically: slot `s` of the simulation maps to
/// schedule slot `s mod L`.
#[derive(Clone, Debug)]
pub struct ScheduleMac {
    name: String,
    schedule: Schedule,
}

impl ScheduleMac {
    /// Wraps a schedule under the given display name.
    pub fn new(name: impl Into<String>, schedule: Schedule) -> Self {
        ScheduleMac {
            name: name.into(),
            schedule,
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

impl MacProtocol for ScheduleMac {
    fn name(&self) -> &str {
        &self.name
    }

    fn frame_length(&self) -> usize {
        self.schedule.frame_length()
    }

    fn may_transmit(&self, node: usize, slot: u64) -> bool {
        let i = (slot % self.schedule.frame_length() as u64) as usize;
        self.schedule.transmitters(i).contains(node)
    }

    fn may_receive(&self, node: usize, slot: u64) -> bool {
        let i = (slot % self.schedule.frame_length() as u64) as usize;
        self.schedule.receivers(i).contains(node)
    }

    /// A wrapped schedule consults slot `s mod L` by construction.
    fn frame_periodic(&self) -> bool {
        true
    }

    /// Copies the words of `T_i` and `R_i`. When `n` differs from the
    /// schedule's node count, only the overlapping words are copied and
    /// the tail is masked, which is exactly what the probes answer (nodes
    /// outside the schedule never transmit or listen).
    fn frame_slot_masks(&self, n: usize, i: usize, tx: &mut BitSet, rx: &mut BitSet) {
        debug_assert!(tx.universe() == n && rx.universe() == n);
        tx.copy_truncated(self.schedule.transmitters(i));
        rx.copy_truncated(self.schedule.receivers(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_mac_wraps_periodically() {
        let t = vec![BitSet::from_iter(2, [0]), BitSet::from_iter(2, [1])];
        let s = Schedule::non_sleeping(2, t);
        let mac = ScheduleMac::new("rr2", s);
        assert_eq!(mac.name(), "rr2");
        assert_eq!(mac.frame_length(), 2);
        for frame in 0..3u64 {
            assert!(mac.may_transmit(0, 2 * frame));
            assert!(!mac.may_transmit(0, 2 * frame + 1));
            assert!(mac.may_receive(1, 2 * frame));
            assert!(!mac.may_receive(1, 2 * frame + 1));
        }
        assert_eq!(mac.transmit_probability(0, 0), 1.0);
        assert_eq!(mac.schedule().num_nodes(), 2);
        assert!(mac.frame_periodic(), "ScheduleMac wraps by definition");
    }
}
