//! Precomputed per-frame slot rosters: the fast roster source.
//!
//! The paper's whole point is that under an `(α_T, α_R)`-schedule almost
//! every node sleeps in almost every slot — yet a per-slot scan still
//! pays O(n) per slot asking every node "are you scheduled?". For a MAC
//! that is genuinely periodic ([`MacProtocol::frame_periodic`]), the
//! answer for slot `s` depends only on `s mod L`, so it can be asked once
//! per frame slot instead of once per node per simulated slot.
//! [`SlotPlan`] caches, for each of the `L` frame slots:
//!
//! * the ascending list of scheduled **transmitters** (election iterates
//!   only these),
//! * the ascending list of scheduled **listeners** (the channel phase
//!   iterates only these), plus the same set as a row of `u64` words
//!   (the schedule-aware sender probe is one bit test instead of a
//!   virtual `may_receive` call),
//! * the ascending **awake** union (the energy phase charges sleep for
//!   the gaps between awake nodes in bulk instead of branching per node).
//!
//! **Layout.** The plan is flat: each roster kind is one `Vec<u32>` of
//! node ids holding every filled slot's list back to back, indexed by a
//! per-slot offset array, and the listener words are one `Vec<u64>` of
//! `L × ⌈n/64⌉` words. Node ids and offsets are `u32` — half the cache
//! traffic of `usize` on 64-bit hosts; an offset that would not fit
//! panics, naming the MAC.
//!
//! **Fill.** A frame slot is filled from the MAC's own bit masks
//! ([`MacProtocol::frame_slot_masks`]): schedule-backed MACs copy the
//! words of `T_i` and `R_i`, and the fill walks them word by word with
//! `trailing_zeros`, deriving `awake` as `T_i | R_i`. That costs
//! O(n/64 + awake) per slot and allocates nothing per slot; MACs without
//! masks fall back to the trait's default, one probe per node.
//!
//! Rosters are filled **lazily**, one frame slot on first visit
//! ([`SlotPlan::ensure_filled`]): duty-cycled frames grow superlinearly in
//! `n` (a TTDC frame at `n = 256` is ~50 000 slots), so a short run never
//! pays for slots it does not reach. Frame slots are visited in ascending
//! wrap-around order, so the filled slots are always a prefix and filling
//! one more only appends to the flat buffers.
//!
//! The engine keeps one plan cached and *rebuilds it in place* at the
//! start of every plan-sourced [`run`](crate::Simulator::run): rebuilding
//! clears the flat buffers but keeps their capacity, and a refill under
//! the same MAC appends exactly the previous element counts, so repeated
//! runs never allocate (the steady-state allocation audit in
//! `ttdc-bench`'s `alloc_audit` test covers the plan source and the skip
//! calendar).
//!
//! [`MacProtocol::frame_periodic`]: crate::MacProtocol::frame_periodic
//! [`MacProtocol::frame_slot_masks`]: crate::MacProtocol::frame_slot_masks

use crate::mac::MacProtocol;
use ttdc_util::BitSet;

/// Per-frame slot rosters for a periodic MAC over `n` nodes — built once
/// per `(schedule, n)` pair, consulted every simulated slot by the
/// roster-driven step (see the module docs).
#[derive(Clone, Debug)]
pub struct SlotPlan {
    frame_len: usize,
    n: usize,
    /// Scheduled transmitters of every filled slot, each slot ascending.
    tx: Vec<u32>,
    /// Scheduled listeners of every filled slot, each slot ascending.
    rx: Vec<u32>,
    /// `tx ∪ rx` of every filled slot, each slot ascending (the sets may
    /// overlap: contention MACs are awake for both).
    awake: Vec<u32>,
    /// Offsets into `tx`: slot `i` is `tx[tx_off[i]..tx_off[i + 1]]`.
    /// Holds one entry more than there are filled slots.
    tx_off: Vec<u32>,
    /// Offsets into `rx`, as `tx_off`.
    rx_off: Vec<u32>,
    /// Offsets into `awake`, as `tx_off`.
    awake_off: Vec<u32>,
    /// The listener set of every filled slot as `words` `u64`s per slot.
    rx_words: Vec<u64>,
    /// Words per slot in `rx_words` (`⌈n/64⌉`).
    words: usize,
    /// Scratch masks over `n` nodes the MAC writes each slot into.
    tx_mask: BitSet,
    rx_mask: BitSet,
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
            tx: Vec::new(),
            rx: Vec::new(),
            awake: Vec::new(),
            tx_off: Vec::new(),
            rx_off: Vec::new(),
            awake_off: Vec::new(),
            rx_words: Vec::new(),
            words: 0,
            tx_mask: BitSet::new(n),
            rx_mask: BitSet::new(n),
        };
        plan.rebuild(mac, n);
        plan
    }

    /// Rebinds the plan to `mac` in place (same contract as
    /// [`SlotPlan::build`]): clears every flat buffer, keeping its
    /// capacity, so every slot refills from the new MAC on its next visit.
    /// When the MAC and `n` are unchanged each refill appends exactly the
    /// previous element counts, so no buffer grows and nothing allocates —
    /// this is what keeps repeated [`Simulator::run`](crate::Simulator::run)
    /// calls on the plan source heap-silent.
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
        if self.tx_mask.universe() != n {
            self.tx_mask = BitSet::new(n);
            self.rx_mask = BitSet::new(n);
        }
        self.n = n;
        self.words = self.rx_mask.word_count();
        for list in [&mut self.tx, &mut self.rx, &mut self.awake] {
            list.clear();
        }
        for off in [&mut self.tx_off, &mut self.rx_off, &mut self.awake_off] {
            off.clear();
            off.push(0);
        }
        self.rx_words.clear();
    }

    /// Number of filled frame slots (always a prefix `0..filled`).
    #[inline]
    fn filled(&self) -> usize {
        self.tx_off.len() - 1
    }

    /// Fills every frame slot up to and including `i` that is not yet
    /// filled. The engine calls this once per simulated slot; after the
    /// first wrap around the frame it is a bounds check and nothing more.
    pub fn ensure_filled(&mut self, mac: &dyn MacProtocol, i: usize) {
        debug_assert!(i < self.frame_len);
        while self.filled() <= i {
            self.fill_next(mac);
        }
    }

    /// Appends the rosters of the next unfilled frame slot, read from the
    /// MAC's masks word by word.
    fn fill_next(&mut self, mac: &dyn MacProtocol) {
        let i = self.filled();
        mac.frame_slot_masks(self.n, i, &mut self.tx_mask, &mut self.rx_mask);
        let (t, r) = (self.tx_mask.words(), self.rx_mask.words());
        for (w, (&tw, &rw)) in t.iter().zip(r).enumerate() {
            push_bits(&mut self.tx, w, tw);
            push_bits(&mut self.rx, w, rw);
            push_bits(&mut self.awake, w, tw | rw);
        }
        self.rx_words.extend_from_slice(r);
        self.tx_off.push(offset(self.tx.len(), mac));
        self.rx_off.push(offset(self.rx.len(), mac));
        self.awake_off.push(offset(self.awake.len(), mac));
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
        self.check_filled(i);
        &self.tx[self.tx_off[i] as usize..self.tx_off[i + 1] as usize]
    }

    /// Scheduled listeners of frame slot `i`, ascending.
    #[inline]
    pub fn listeners(&self, i: usize) -> &[u32] {
        self.check_filled(i);
        &self.rx[self.rx_off[i] as usize..self.rx_off[i + 1] as usize]
    }

    /// Awake nodes (`transmitters ∪ listeners`) of frame slot `i`,
    /// ascending.
    #[inline]
    pub fn awake(&self, i: usize) -> &[u32] {
        self.check_filled(i);
        &self.awake[self.awake_off[i] as usize..self.awake_off[i + 1] as usize]
    }

    /// Is node `v` a scheduled listener of frame slot `i`? One bit test
    /// against the slot's listener words.
    #[inline]
    pub fn listens(&self, i: usize, v: usize) -> bool {
        self.check_filled(i);
        v < self.n && self.rx_words[i * self.words + v / 64] & (1 << (v % 64)) != 0
    }

    #[inline]
    fn check_filled(&self, i: usize) {
        debug_assert!(
            i < self.filled(),
            "frame slot {i} not filled; call ensure_filled"
        );
    }

    /// `true` once every frame slot is filled (the time-skipping engine
    /// fills eagerly so its inverted summaries can cover the whole frame).
    #[inline]
    pub fn fully_filled(&self) -> bool {
        self.filled() == self.frame_len
    }
}

/// Appends the set bits of word `w` (node ids `64·w + bit`), ascending.
#[inline]
pub(crate) fn push_bits(out: &mut Vec<u32>, w: usize, mut word: u64) {
    let base = (w * 64) as u32;
    while word != 0 {
        out.push(base + word.trailing_zeros());
        word &= word - 1;
    }
}

/// A flat-buffer length as a `u32` offset; a plan too large for `u32`
/// offsets is a hard error, never a silent wrap.
#[inline]
fn offset(len: usize, mac: &dyn MacProtocol) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!(
            "SlotPlan for {} holds {len} roster entries, past u32 offsets",
            mac.name()
        )
    })
}

/// Inverted per-frame "active slot" summaries over a fully-filled
/// [`SlotPlan`]: where the plan answers "who is awake in frame slot `i`?",
/// these answer the time-skipping engine's questions — "which frame slots
/// have any scheduled transmitter?" (saturated traffic transmits in all of
/// them), "in which frame slots may node `v` transmit?" (the calendar
/// queue arms a backlogged node at its next occurrence) and "in which
/// frame slots does node `v` listen?" (the idle listening its energy debt
/// holds between the slots it is touched). All lists are ascending, so the
/// next occurrence of any of them from an absolute slot is one binary
/// search plus a wrap-around.
#[derive(Clone, Debug, Default)]
pub(crate) struct ActiveSlots {
    /// Frame length `L` of the plan the summaries were built from.
    pub(crate) frame_len: u64,
    /// Frame slots with a nonempty transmitter roster, ascending.
    pub(crate) tx_busy: Vec<u32>,
    /// Every node's transmit frame slots.
    tx: NodeSlots,
    /// Every node's listen frame slots.
    rx: NodeSlots,
}

impl ActiveSlots {
    /// Recomputes the summaries from `plan` (which must be fully filled),
    /// reusing every buffer — rebuilding for an unchanged MAC allocates
    /// nothing once capacities have grown.
    pub(crate) fn rebuild(&mut self, plan: &SlotPlan) {
        assert!(plan.fully_filled(), "ActiveSlots needs a fully-filled plan");
        let (n, frame) = (plan.num_nodes(), plan.frame_length());
        self.frame_len = frame as u64;
        self.tx_busy.clear();
        self.tx_busy
            .extend((0..frame as u32).filter(|&i| !plan.transmitters(i as usize).is_empty()));
        self.tx.rebuild(n, frame, |i| plan.transmitters(i));
        self.rx.rebuild(n, frame, |i| plan.listeners(i));
    }

    /// The ascending frame slots in which node `v` may transmit.
    #[inline]
    pub(crate) fn tx_slots_of(&self, v: usize) -> &[u32] {
        self.tx.of(v)
    }

    /// The ascending frame slots in which node `v` is scheduled to listen.
    #[inline]
    pub(crate) fn rx_slots_of(&self, v: usize) -> &[u32] {
        self.rx.of(v)
    }
}

/// One roster kind inverted per node: every node's frame slots back to
/// back, each node's ascending.
#[derive(Clone, Debug, Default)]
struct NodeSlots {
    slots: Vec<u32>,
    /// Offsets into `slots`: node `v`'s slots are
    /// `slots[off[v]..off[v + 1]]` (`n + 1` entries).
    off: Vec<u32>,
}

impl NodeSlots {
    /// A counting sort over the rosters of the `frame` slots: one pass
    /// counts each node's slots into the offsets, a prefix sum turns
    /// counts into starts, and a second pass places each slot at its
    /// node's cursor. Reuses both buffers.
    fn rebuild<'p>(&mut self, n: usize, frame: usize, roster: impl Fn(usize) -> &'p [u32]) {
        self.off.clear();
        self.off.resize(n + 1, 0);
        for i in 0..frame {
            for &v in roster(i) {
                self.off[v as usize + 1] += 1;
            }
        }
        for v in 0..n {
            self.off[v + 1] += self.off[v];
        }
        // Place each slot at its node's cursor (off[v] walks from v's
        // start to its end), then shift the ends back into starts.
        self.slots.clear();
        self.slots.resize(self.off[n] as usize, 0);
        for i in 0..frame {
            for &v in roster(i) {
                let cursor = &mut self.off[v as usize];
                self.slots[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
        self.off.copy_within(0..n, 1);
        self.off[0] = 0;
    }

    #[inline]
    fn of(&self, v: usize) -> &[u32] {
        &self.slots[self.off[v] as usize..self.off[v + 1] as usize]
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
        // The listener words agree with the list.
        for i in 0..2 {
            let rx: Vec<u32> = (0..5)
                .filter(|&v| plan.listens(i, v))
                .map(|v| v as u32)
                .collect();
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
            for v in 0..6 {
                assert_eq!(reused.listens(i, v), fresh.listens(i, v));
            }
        }
    }

    /// A MAC that only answers the probes, so plans built from it take
    /// the default [`MacProtocol::frame_slot_masks`].
    struct ProbesOnly<'a>(&'a ScheduleMac);

    impl MacProtocol for ProbesOnly<'_> {
        fn name(&self) -> &str {
            "probes-only"
        }
        fn frame_length(&self) -> usize {
            self.0.frame_length()
        }
        fn may_transmit(&self, node: usize, slot: u64) -> bool {
            self.0.may_transmit(node, slot)
        }
        fn may_receive(&self, node: usize, slot: u64) -> bool {
            self.0.may_receive(node, slot)
        }
        fn frame_periodic(&self) -> bool {
            true
        }
    }

    /// A random schedule over `n` nodes: each node transmits in a slot
    /// with probability 1/4, else listens with probability 1/3.
    fn random_mac(n: usize, frame: usize, seed: u64) -> ScheduleMac {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut t, mut r) = (Vec::new(), Vec::new());
        for _ in 0..frame {
            let (mut ti, mut ri) = (BitSet::new(n), BitSet::new(n));
            for v in 0..n {
                if rng.gen_bool(0.25) {
                    ti.insert(v);
                } else if rng.gen_bool(1.0 / 3.0) {
                    ri.insert(v);
                }
            }
            t.push(ti);
            r.push(ri);
        }
        ScheduleMac::new("random", Schedule::new(n, t, r))
    }

    /// Fills a plan from the word copy and one from the probes, over `n`
    /// simulated nodes, and checks every roster of every frame slot.
    fn assert_mask_plan_equals_probe_plan(mac: &ScheduleMac, n: usize) {
        let probes = ProbesOnly(mac);
        let mut masked = SlotPlan::build(mac, n);
        let mut probed = SlotPlan::build(&probes, n);
        let last = mac.frame_length() - 1;
        masked.ensure_filled(mac, last);
        probed.ensure_filled(&probes, last);
        for i in 0..=last {
            let ctx = format!(
                "schedule n={} sim n={n} slot {i}",
                mac.schedule().num_nodes()
            );
            assert_eq!(masked.transmitters(i), probed.transmitters(i), "{ctx}");
            assert_eq!(masked.listeners(i), probed.listeners(i), "{ctx}");
            assert_eq!(masked.awake(i), probed.awake(i), "{ctx}");
            for v in 0..n + 2 {
                assert_eq!(masked.listens(i, v), probed.listens(i, v), "{ctx} node {v}");
                if v < n {
                    assert_eq!(masked.listens(i, v), mac.may_receive(v, i as u64), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn mask_fed_plan_equals_probe_fed_plan() {
        for (seed, n) in [1usize, 63, 64, 65, 130].into_iter().enumerate() {
            let mac = random_mac(n, 9, seed as u64);
            assert_mask_plan_equals_probe_plan(&mac, n);
            // A simulator with more nodes than the schedule, and one with
            // fewer: the copy masks to the overlap, as the probes answer.
            for sim_n in [n + 1, n + 70, n / 2, n.saturating_sub(1), 0] {
                assert_mask_plan_equals_probe_plan(&mac, sim_n);
            }
        }
    }

    #[test]
    fn active_slots_invert_the_plan() {
        let mac = random_mac(70, 11, 7);
        let mut plan = SlotPlan::build(&mac, 70);
        plan.ensure_filled(&mac, 10);
        let mut active = ActiveSlots::default();
        // Rebuild twice: the second pass reuses the buffers of the first.
        for _ in 0..2 {
            active.rebuild(&plan);
            let slots = |f: &dyn Fn(u64) -> bool| -> Vec<u32> {
                (0..11u32).filter(|&i| f(i as u64)).collect()
            };
            for v in 0..70 {
                let tx = slots(&|i| mac.may_transmit(v, i));
                let rx = slots(&|i| mac.may_receive(v, i));
                assert_eq!(active.tx_slots_of(v), tx, "node {v}");
                assert_eq!(active.rx_slots_of(v), rx, "node {v}");
            }
            let tx_busy = slots(&|i| !plan.transmitters(i as usize).is_empty());
            assert_eq!(active.tx_busy, tx_busy);
            assert_eq!(active.frame_len, 11);
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
