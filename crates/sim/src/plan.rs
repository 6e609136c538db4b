//! Precomputed per-frame slot rosters: the fast roster source.
//!
//! The paper's whole point is that under an `(α_T, α_R)`-schedule almost
//! every node sleeps in almost every slot — yet a per-slot scan still
//! pays O(n) per slot asking every node "are you scheduled?". For a MAC
//! that is genuinely periodic ([`MacProtocol::frame_periodic`]), the
//! answer for slot `s` depends only on `s mod L`, so it can be asked once
//! per frame slot at construction time instead of once per node per
//! simulated slot. [`SlotPlan`] caches, for each of the `L` frame slots:
//!
//! * the ascending list of scheduled **transmitters** (election iterates
//!   only these),
//! * the ascending list of scheduled **listeners** (the channel phase
//!   iterates only these), plus the same set as a word-level [`BitSet`]
//!   (the schedule-aware sender probe becomes one bit test instead of a
//!   virtual `may_receive` call),
//! * the ascending **awake** union (the energy phase charges sleep for
//!   the gaps between awake nodes in bulk instead of branching per node).
//!
//! Node indices are stored as `u32` — half the cache traffic of `usize`
//! on 64-bit hosts, and the engine caps node counts far below 2³².
//!
//! Rosters are filled **lazily**, one frame slot on first visit
//! ([`SlotPlan::ensure_filled`]): duty-cycled frames grow superlinearly in
//! `n` (a TTDC frame at `n = 256` is ~50 000 slots), so filling all `L`
//! slots eagerly would cost `L·n` schedule probes up front and megabytes
//! of rosters for slots a short run never reaches. Memory and fill work
//! are bounded by the slots actually visited (at most `L`).
//!
//! The engine keeps one plan cached and *rebuilds it in place* at the
//! start of every plan-sourced [`run`](crate::Simulator::run): rebuilding
//! only resets the validity watermark and refilling a slot clears and
//! repushes into retained buffers, so repeated runs under the same MAC
//! never allocate once capacities have grown (the steady-state allocation
//! audit in `ttdc-bench`'s `alloc_audit` test covers the plan source).
//!
//! [`MacProtocol::frame_periodic`]: crate::MacProtocol::frame_periodic

use crate::mac::MacProtocol;
use ttdc_util::BitSet;

/// One frame slot's rosters (see the module docs).
#[derive(Clone, Debug)]
struct PlanSlot {
    /// Scheduled transmitters, ascending.
    tx: Vec<u32>,
    /// Scheduled listeners, ascending.
    rx: Vec<u32>,
    /// `tx ∪ rx`, ascending (the sets may overlap: contention MACs are
    /// awake for both).
    awake: Vec<u32>,
    /// `rx` as a word mask.
    rx_mask: BitSet,
}

impl PlanSlot {
    fn empty(n: usize) -> PlanSlot {
        PlanSlot {
            tx: Vec::new(),
            rx: Vec::new(),
            awake: Vec::new(),
            rx_mask: BitSet::new(n),
        }
    }

    /// Refills the rosters from the MAC's answers at frame slot `i`,
    /// reusing every buffer (no allocation once capacities have grown).
    fn refill(&mut self, mac: &dyn MacProtocol, n: usize, i: usize) {
        self.tx.clear();
        self.rx.clear();
        self.awake.clear();
        if self.rx_mask.universe() == n {
            self.rx_mask.clear();
        } else {
            self.rx_mask = BitSet::new(n);
        }
        let slot = i as u64;
        for v in 0..n {
            let t = mac.may_transmit(v, slot);
            let r = mac.may_receive(v, slot);
            if t {
                self.tx.push(v as u32);
            }
            if r {
                self.rx.push(v as u32);
                self.rx_mask.insert(v);
            }
            if t || r {
                self.awake.push(v as u32);
            }
        }
    }
}

/// Per-frame slot rosters for a periodic MAC over `n` nodes — built once
/// per `(schedule, n)` pair, consulted every simulated slot by the
/// roster-driven step (see the module docs).
#[derive(Clone, Debug)]
pub struct SlotPlan {
    frame_len: usize,
    n: usize,
    /// Roster buffers, lazily grown; only the first [`SlotPlan::valid`]
    /// entries hold answers for the current MAC.
    slots: Vec<PlanSlot>,
    /// Validity watermark: slots `0..valid` are filled. Frame slots are
    /// visited in ascending wrap-around order, so a prefix suffices.
    valid: usize,
}

impl SlotPlan {
    /// Builds an empty plan bound to `mac` over `n` nodes; rosters fill
    /// lazily as [`ensure_filled`](SlotPlan::ensure_filled) visits slots.
    ///
    /// The caller is responsible for eligibility: `mac` must report
    /// [`frame_periodic`](MacProtocol::frame_periodic) and a nonzero
    /// [`frame_length`](MacProtocol::frame_length) — asserted here,
    /// because a plan for a non-periodic MAC would silently simulate the
    /// wrong schedule.
    pub fn build(mac: &dyn MacProtocol, n: usize) -> SlotPlan {
        let mut plan = SlotPlan {
            frame_len: 0,
            n,
            slots: Vec::new(),
            valid: 0,
        };
        plan.rebuild(mac, n);
        plan
    }

    /// Rebinds the plan to `mac` in place (same contract as
    /// [`SlotPlan::build`]): resets the validity watermark so every slot
    /// refills from the new MAC on its next visit, while keeping the
    /// roster buffers. When the MAC and `n` are unchanged each refill
    /// pushes exactly the previous element counts, so no buffer grows and
    /// nothing allocates — this is what keeps repeated
    /// [`Simulator::run`](crate::Simulator::run) calls on the plan source
    /// heap-silent.
    pub fn rebuild(&mut self, mac: &dyn MacProtocol, n: usize) {
        let frame = mac.frame_length();
        assert!(
            mac.frame_periodic() && frame > 0,
            "SlotPlan requires a periodic MAC with a nonzero frame ({} reports \
             frame_periodic={}, frame_length={})",
            mac.name(),
            mac.frame_periodic(),
            frame
        );
        self.frame_len = frame;
        self.n = n;
        self.slots.truncate(frame);
        self.valid = 0;
    }

    /// Fills every frame slot up to and including `i` that is not yet
    /// valid. The engine calls this once per simulated slot; after the
    /// first wrap around the frame it is a bounds check and nothing more.
    pub fn ensure_filled(&mut self, mac: &dyn MacProtocol, i: usize) {
        debug_assert!(i < self.frame_len);
        while self.valid <= i {
            if self.slots.len() == self.valid {
                self.slots.push(PlanSlot::empty(self.n));
            }
            self.slots[self.valid].refill(mac, self.n, self.valid);
            self.valid += 1;
        }
    }

    /// The frame length `L` the plan was built for.
    #[inline]
    pub fn frame_length(&self) -> usize {
        self.frame_len
    }

    /// The node count the plan was built for.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Maps an absolute slot to its frame-slot index.
    #[inline]
    pub fn slot_index(&self, slot: u64) -> usize {
        (slot % self.frame_len as u64) as usize
    }

    /// Scheduled transmitters of frame slot `i`, ascending.
    #[inline]
    pub fn transmitters(&self, i: usize) -> &[u32] {
        debug_assert!(
            i < self.valid,
            "frame slot {i} not filled; call ensure_filled"
        );
        &self.slots[i].tx
    }

    /// Scheduled listeners of frame slot `i`, ascending.
    #[inline]
    pub fn listeners(&self, i: usize) -> &[u32] {
        debug_assert!(
            i < self.valid,
            "frame slot {i} not filled; call ensure_filled"
        );
        &self.slots[i].rx
    }

    /// Awake nodes (`transmitters ∪ listeners`) of frame slot `i`,
    /// ascending.
    #[inline]
    pub fn awake(&self, i: usize) -> &[u32] {
        debug_assert!(
            i < self.valid,
            "frame slot {i} not filled; call ensure_filled"
        );
        &self.slots[i].awake
    }

    /// Scheduled listeners of frame slot `i` as a word mask.
    #[inline]
    pub fn listener_mask(&self, i: usize) -> &BitSet {
        debug_assert!(
            i < self.valid,
            "frame slot {i} not filled; call ensure_filled"
        );
        &self.slots[i].rx_mask
    }

    /// `true` once every frame slot is filled (the time-skipping engine
    /// fills eagerly so its inverted summaries can cover the whole frame).
    #[inline]
    pub fn fully_filled(&self) -> bool {
        self.valid == self.frame_len
    }
}

/// Inverted per-frame "active slot" summaries over a fully-filled
/// [`SlotPlan`]: where the plan answers "who is awake in frame slot `i`?",
/// these answer the time-skipping engine's questions — "which frame slots
/// have any listener at all?" (every occurrence costs a bulk energy
/// flush), "which have any scheduled transmitter?" (saturated traffic
/// transmits in all of them), and "in which frame slots may node `v`
/// transmit?" (the calendar queue arms a backlogged node at its next
/// occurrence). All lists are ascending, so the next occurrence of any of
/// them from an absolute slot is one binary search plus a wrap-around.
#[derive(Clone, Debug, Default)]
pub(crate) struct ActiveSlots {
    /// Frame slots with a nonempty listener roster, ascending.
    pub(crate) rx_busy: Vec<u32>,
    /// Frame slots with a nonempty transmitter roster, ascending.
    pub(crate) tx_busy: Vec<u32>,
    /// Per node, the ascending frame slots where it may transmit.
    pub(crate) tx_slots_by_node: Vec<Vec<u32>>,
}

impl ActiveSlots {
    /// Recomputes the summaries from `plan` (which must be fully filled),
    /// reusing every buffer — rebuilding for an unchanged MAC allocates
    /// nothing once capacities have grown.
    pub(crate) fn rebuild(&mut self, plan: &SlotPlan) {
        assert!(plan.fully_filled(), "ActiveSlots needs a fully-filled plan");
        let n = plan.num_nodes();
        self.rx_busy.clear();
        self.tx_busy.clear();
        self.tx_slots_by_node.truncate(n);
        for list in &mut self.tx_slots_by_node {
            list.clear();
        }
        while self.tx_slots_by_node.len() < n {
            self.tx_slots_by_node.push(Vec::new());
        }
        for i in 0..plan.frame_length() {
            if !plan.listeners(i).is_empty() {
                self.rx_busy.push(i as u32);
            }
            let tx = plan.transmitters(i);
            if !tx.is_empty() {
                self.tx_busy.push(i as u32);
                for &v in tx {
                    self.tx_slots_by_node[v as usize].push(i as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::ScheduleMac;
    use ttdc_core::Schedule;

    fn mac3() -> ScheduleMac {
        // Frame of 2 over 5 nodes: slot 0 tx {0, 3} rx {1}; slot 1 tx {2}
        // rx {0, 4}.
        let t = vec![BitSet::from_iter(5, [0, 3]), BitSet::from_iter(5, [2])];
        let r = vec![BitSet::from_iter(5, [1]), BitSet::from_iter(5, [0, 4])];
        ScheduleMac::new("plan-test", Schedule::new(5, t, r))
    }

    #[test]
    fn rosters_match_the_mac_answers() {
        let mac = mac3();
        let mut plan = SlotPlan::build(&mac, 5);
        plan.ensure_filled(&mac, 1);
        assert_eq!(plan.frame_length(), 2);
        assert_eq!(plan.num_nodes(), 5);
        assert_eq!(plan.transmitters(0), &[0, 3]);
        assert_eq!(plan.listeners(0), &[1]);
        assert_eq!(plan.awake(0), &[0, 1, 3]);
        assert_eq!(plan.transmitters(1), &[2]);
        assert_eq!(plan.listeners(1), &[0, 4]);
        assert_eq!(plan.awake(1), &[0, 2, 4]);
        // Absolute slots wrap into the frame.
        assert_eq!(plan.slot_index(0), 0);
        assert_eq!(plan.slot_index(7), 1);
        // The listener mask agrees with the list.
        for i in 0..2 {
            let rx: Vec<u32> = plan.listener_mask(i).iter().map(|v| v as u32).collect();
            assert_eq!(rx, plan.listeners(i));
        }
    }

    #[test]
    fn rebuild_is_equivalent_to_build() {
        let mac = mac3();
        let mut fresh = SlotPlan::build(&mac, 5);
        fresh.ensure_filled(&mac, 1);
        // Start from a *fully filled* plan for a different (larger-frame,
        // smaller-n) MAC, then rebuild for `mac`: every reused buffer must
        // end up exactly as a fresh build leaves it.
        let t = (0..4).map(|i| BitSet::from_iter(3, [i % 3])).collect();
        let other = ScheduleMac::new("other", Schedule::non_sleeping(3, t));
        let mut reused = SlotPlan::build(&other, 3);
        reused.ensure_filled(&other, 3);
        reused.rebuild(&mac, 5);
        reused.ensure_filled(&mac, 1);
        assert_eq!(reused.frame_length(), fresh.frame_length());
        for i in 0..fresh.frame_length() {
            assert_eq!(reused.transmitters(i), fresh.transmitters(i));
            assert_eq!(reused.listeners(i), fresh.listeners(i));
            assert_eq!(reused.awake(i), fresh.awake(i));
            assert_eq!(reused.listener_mask(i), fresh.listener_mask(i));
        }
    }

    #[test]
    #[should_panic(expected = "periodic MAC")]
    fn non_periodic_macs_are_rejected() {
        struct Hashy;
        impl MacProtocol for Hashy {
            fn name(&self) -> &str {
                "hashy"
            }
            fn frame_length(&self) -> usize {
                1
            }
            fn may_transmit(&self, node: usize, slot: u64) -> bool {
                (node as u64 ^ slot).is_multiple_of(3)
            }
            fn may_receive(&self, _node: usize, _slot: u64) -> bool {
                true
            }
        }
        SlotPlan::build(&Hashy, 4);
    }
}
