//! Fault injection: lossy links, node churn, and clock drift.
//!
//! The paper's delivery guarantee — every node reaches every neighbour at
//! least once per frame for *any* topology in `N_n^D` — is proved under an
//! idealized channel whose only failure mode is collision, with perfect
//! slot synchronization. A deployment violates all of that: links fade in
//! bursts, nodes crash and reboot, clocks drift. [`FaultPlan`] is the
//! composable description of those impairments; the engine consults a
//! crate-private `FaultState` built from it at each phase of the slot loop.
//!
//! Three fault families, each independently optional:
//!
//! * **Link loss** — a uniform per-link packet error rate ([`FaultPlan::per`])
//!   optionally composed with a [`GilbertElliott`] two-state bursty channel.
//!   Loss is drawn per (transmitter, listener) pair per slot, so one
//!   receiver can fade while another decodes the same transmission.
//! * **Node churn** — a [`CrashModel`]: transient crash/recovery, distinct
//!   from permanent battery death. A crashed node is radio-silent and
//!   generates nothing; on reboot it either rejoins with its queue intact
//!   (`persist_queue`) or has dropped it (counted as undeliverable).
//! * **Clock drift** — each node accrues a per-slot skew drawn uniformly
//!   from `[-clock_drift, +clock_drift]`, shifting *its own* notion of the
//!   current slot index. This generalizes the engine's uniform
//!   `miss_probability`: a drifted node consults the schedule at the wrong
//!   slot consistently, rather than missing random slots independently.
//!
//! On top of the impairments, [`FaultPlan::max_retries`] bounds the
//! link-layer ARQ: a queued packet whose transmission goes unacknowledged
//! (collision, fade, sleeping receiver) is retried at the next opportunity
//! until the bound, then dropped and counted in
//! [`crate::SimReport::retry_exhausted`].
//!
//! Determinism: fault decisions consume a *dedicated* RNG stream seeded
//! from the simulation seed, never the engine's main stream. With every
//! knob at zero ([`FaultPlan::is_noop`]) the engine takes the exact same
//! branch sequence and RNG draws as a build without fault injection, so
//! reports are bit-for-bit identical for a given seed.

use crate::error::SimError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A two-state (Gilbert–Elliott) bursty loss channel.
///
/// Each directed link is an independent two-state Markov chain over
/// {Good, Bad}; a packet on the link is erased with [`per_good`] or
/// [`per_bad`] depending on the state at transmission time. The chain is
/// advanced lazily using the closed-form `k`-step transition probability,
/// so idle links cost nothing per slot.
///
/// [`per_good`]: GilbertElliott::per_good
/// [`per_bad`]: GilbertElliott::per_bad
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-slot transition probability Good → Bad.
    pub p_good_to_bad: f64,
    /// Per-slot transition probability Bad → Good.
    pub p_bad_to_good: f64,
    /// Packet erasure probability while the link is Good.
    pub per_good: f64,
    /// Packet erasure probability while the link is Bad.
    pub per_bad: f64,
}

impl GilbertElliott {
    /// A conventional parameterization: rare fades (`p_good_to_bad`),
    /// mean burst length `1 / p_bad_to_good`, clean Good state, and 80%
    /// loss inside a burst.
    pub fn bursty(p_good_to_bad: f64, p_bad_to_good: f64) -> GilbertElliott {
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            per_good: 0.0,
            per_bad: 0.8,
        }
    }

    /// Stationary probability of the Bad state.
    pub fn steady_state_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom == 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }

    /// Long-run average erasure probability of the channel.
    pub fn steady_state_per(&self) -> f64 {
        let pi_bad = self.steady_state_bad();
        pi_bad * self.per_bad + (1.0 - pi_bad) * self.per_good
    }

    /// Probability the chain is Bad after `k` more slots, starting from
    /// `bad`. Closed form: `π_B + λ^k (1{bad} − π_B)` with
    /// `λ = 1 − p_GB − p_BG`.
    fn bad_after(&self, bad: bool, k: u64) -> f64 {
        let pi_bad = self.steady_state_bad();
        let lambda = 1.0 - self.p_good_to_bad - self.p_bad_to_good;
        let start = if bad { 1.0 } else { 0.0 };
        if k == 0 {
            return start;
        }
        pi_bad + lambda.powi(k.min(i32::MAX as u64) as i32) * (start - pi_bad)
    }

    fn validate(&self) -> Result<(), SimError> {
        for (what, value) in [
            ("burst p_good_to_bad", self.p_good_to_bad),
            ("burst p_bad_to_good", self.p_bad_to_good),
            ("burst per_good", self.per_good),
            ("burst per_bad", self.per_bad),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SimError::InvalidProbability { what, value });
            }
        }
        Ok(())
    }
}

/// Transient node crash/recovery (distinct from battery death).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashModel {
    /// Per-slot probability an up node crashes.
    pub crash_probability: f64,
    /// Per-slot probability a crashed node reboots.
    pub recovery_probability: f64,
    /// If `true`, a rebooting node still holds its packet queue; if
    /// `false` (the realistic default — queues live in RAM), the queue is
    /// lost at crash time and counted as undeliverable.
    pub persist_queue: bool,
}

impl CrashModel {
    /// Crash at `crash_probability` per slot; reboot at
    /// `recovery_probability` per slot; queues are lost on crash.
    pub fn new(crash_probability: f64, recovery_probability: f64) -> CrashModel {
        CrashModel {
            crash_probability,
            recovery_probability,
            persist_queue: false,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        for (what, value) in [
            ("crash probability", self.crash_probability),
            ("recovery probability", self.recovery_probability),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SimError::InvalidProbability { what, value });
            }
        }
        Ok(())
    }
}

/// The composable fault-injection configuration. [`Default`] is a no-op:
/// every knob at zero leaves the engine bit-for-bit identical to a run
/// without fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Uniform per-link packet error rate, applied to every reception.
    pub per: f64,
    /// Optional bursty channel, composed with `per` (a packet survives
    /// only if it clears both).
    pub burst: Option<GilbertElliott>,
    /// Optional transient crash/recovery process.
    pub crash: Option<CrashModel>,
    /// Maximum absolute per-slot clock skew; node `v` accrues a fixed rate
    /// drawn uniformly from `[-clock_drift, +clock_drift]` slots per slot.
    pub clock_drift: f64,
    /// Link-layer ARQ bound: a packet is dropped (and counted in
    /// `retry_exhausted`) after this many unacknowledged transmissions
    /// *beyond* the first. `None` = retry forever (the pre-ARQ behaviour).
    pub max_retries: Option<u32>,
}

impl FaultPlan {
    /// The no-fault plan (same as [`Default`]).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Uniform lossy links at rate `per`.
    pub fn lossy(per: f64) -> FaultPlan {
        FaultPlan {
            per,
            ..FaultPlan::default()
        }
    }

    /// Sets the uniform per-link error rate.
    pub fn with_per(mut self, per: f64) -> FaultPlan {
        self.per = per;
        self
    }

    /// Adds a Gilbert–Elliott bursty channel.
    pub fn with_burst(mut self, burst: GilbertElliott) -> FaultPlan {
        self.burst = Some(burst);
        self
    }

    /// Adds transient crash/recovery.
    pub fn with_crash(mut self, crash: CrashModel) -> FaultPlan {
        self.crash = Some(crash);
        self
    }

    /// Sets the maximum absolute clock-drift rate (slots per slot).
    pub fn with_drift(mut self, clock_drift: f64) -> FaultPlan {
        self.clock_drift = clock_drift;
        self
    }

    /// Bounds the link-layer ARQ retry count.
    pub fn with_max_retries(mut self, max_retries: u32) -> FaultPlan {
        self.max_retries = Some(max_retries);
        self
    }

    /// `true` when the plan changes nothing about engine behaviour.
    pub fn is_noop(&self) -> bool {
        self.per == 0.0
            && self.burst.is_none()
            && self.crash.is_none()
            && self.clock_drift == 0.0
            && self.max_retries.is_none()
    }

    /// `true` when any link-loss knob is active.
    pub fn has_link_loss(&self) -> bool {
        self.per > 0.0 || self.burst.is_some()
    }

    /// Validates every knob, reporting the first offender.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(0.0..=1.0).contains(&self.per) {
            return Err(SimError::InvalidProbability {
                what: "per-link error rate",
                value: self.per,
            });
        }
        if let Some(burst) = &self.burst {
            burst.validate()?;
        }
        if let Some(crash) = &self.crash {
            crash.validate()?;
        }
        if !self.clock_drift.is_finite() || self.clock_drift < 0.0 || self.clock_drift >= 1.0 {
            return Err(SimError::InvalidDriftRate {
                value: self.clock_drift,
            });
        }
        Ok(())
    }
}

/// Per-link Gilbert–Elliott channel state, advanced lazily.
#[derive(Clone, Copy, Debug)]
struct LinkChannel {
    bad: bool,
    /// Slot at which `bad` was last resampled.
    as_of: u64,
}

/// Mutable runtime state behind a [`FaultPlan`]; owned by the engine.
///
/// All randomness comes from a dedicated stream derived from the
/// simulation seed, so enabling tracing or reading reports never perturbs
/// fault decisions, and a no-op plan consumes no randomness at all.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
    /// Transiently-down nodes (disjoint from battery death).
    crashed: Vec<bool>,
    /// Lazily-populated per-directed-link channel state.
    links: HashMap<(usize, usize), LinkChannel>,
    /// Per-node drift rate in slots/slot, in `[-clock_drift, +clock_drift]`.
    drift_rate: Vec<f64>,
    /// Accrued skew per node, in slots.
    drift_accum: Vec<f64>,
    /// `drift_accum` truncated toward zero: the whole slots node `v`'s
    /// clock is off by.
    skew: Vec<i64>,
    /// Bumped by [`FaultState::step_drift`] whenever any node's `skew`
    /// changes, so skew-grouped rosters know when to regroup.
    skew_epoch: u64,
    /// The lowest and highest entry of `skew`.
    skew_range: (i64, i64),
}

impl FaultState {
    /// Builds runtime state for `plan` over `n` nodes. `seed` is the
    /// simulation seed; the fault stream is domain-separated from it.
    pub(crate) fn new(plan: FaultPlan, n: usize, seed: u64) -> FaultState {
        // Domain-separate the fault stream from the engine's main stream so
        // enabling faults never perturbs traffic/MAC randomness (and vice
        // versa); the constant is an arbitrary odd 64-bit tweak.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_1A7E_D15A_57E5);
        let drift_rate = if plan.clock_drift > 0.0 {
            (0..n)
                .map(|_| rng.gen_range(-plan.clock_drift..plan.clock_drift))
                .collect()
        } else {
            vec![0.0; n]
        };
        FaultState {
            plan,
            rng,
            crashed: vec![false; n],
            links: HashMap::new(),
            drift_rate,
            drift_accum: vec![0.0; n],
            skew: vec![0; n],
            skew_epoch: 0,
            skew_range: (0, 0),
        }
    }

    /// The plan this state was built from.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The node count the state was built for.
    pub(crate) fn num_nodes(&self) -> usize {
        self.crashed.len()
    }

    /// `true` if `v` is transiently down.
    pub(crate) fn is_crashed(&self, v: usize) -> bool {
        self.crashed[v]
    }

    /// Number of currently-crashed nodes.
    pub(crate) fn crashed_count(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// Advances the crash/recovery chain for `v` one slot. Returns the
    /// transition that happened, if any. Dead nodes must be skipped by the
    /// caller (battery death dominates transient churn).
    ///
    /// `#[inline]` on purpose: the fault phase calls this once per node per
    /// slot from another module, and without the hint whether it is inlined
    /// there depends on how the crate happens to be split into codegen
    /// units.
    #[inline]
    pub(crate) fn step_crash(&mut self, v: usize) -> Option<CrashTransition> {
        let model = self.plan.crash?;
        if self.crashed[v] {
            if model.recovery_probability > 0.0 && self.rng.gen_bool(model.recovery_probability) {
                self.crashed[v] = false;
                return Some(CrashTransition::Recovered);
            }
        } else if model.crash_probability > 0.0 && self.rng.gen_bool(model.crash_probability) {
            self.crashed[v] = true;
            return Some(CrashTransition::Crashed {
                drop_queue: !model.persist_queue,
            });
        }
        None
    }

    /// Accrues one slot of clock drift for every node and refreshes each
    /// node's whole-slot skew and their range, bumping
    /// [`FaultState::skew_epoch`] when any of them changed.
    pub(crate) fn step_drift(&mut self) {
        if self.plan.clock_drift == 0.0 {
            return;
        }
        let mut changed = false;
        let (mut lowest, mut highest) = (i64::MAX, i64::MIN);
        for ((accum, rate), skew) in self
            .drift_accum
            .iter_mut()
            .zip(&self.drift_rate)
            .zip(&mut self.skew)
        {
            *accum += rate;
            // `as` truncates toward zero, exactly like `trunc()`.
            let s = *accum as i64;
            changed |= s != *skew;
            *skew = s;
            lowest = lowest.min(s);
            highest = highest.max(s);
        }
        if changed {
            self.skew_epoch += 1;
            self.skew_range = (lowest, highest);
        }
    }

    /// Every node's whole-slot clock skew (all zero without drift).
    pub(crate) fn skews(&self) -> &[i64] {
        &self.skew
    }

    /// A counter that changes whenever [`FaultState::skews`] does.
    pub(crate) fn skew_epoch(&self) -> u64 {
        self.skew_epoch
    }

    /// The lowest and highest skew (`(0, 0)` without nodes or drift).
    pub(crate) fn skew_range(&self) -> (i64, i64) {
        self.skew_range
    }

    /// The slot index node `v` *believes* it is in when the true slot is
    /// `slot`. Never below zero (a lagging clock saturates at slot 0).
    pub(crate) fn perceived_slot(&self, v: usize, slot: u64) -> u64 {
        slot.saturating_add_signed(self.skew[v])
    }

    /// Draws whether a transmission `x → y` in `slot` survives the link
    /// (i.e. is not erased by fading). Advances the per-link burst chain
    /// lazily. Only call when [`FaultPlan::has_link_loss`].
    pub(crate) fn link_delivers(&mut self, x: usize, y: usize, slot: u64) -> bool {
        let mut erasure = self.plan.per;
        if let Some(ge) = self.plan.burst {
            let entry = self.links.entry((x, y)).or_insert(LinkChannel {
                bad: false,
                as_of: 0,
            });
            let p_bad = ge.bad_after(entry.bad, slot - entry.as_of);
            entry.bad = self.rng.gen_bool(p_bad.clamp(0.0, 1.0));
            entry.as_of = slot;
            let state_per = if entry.bad { ge.per_bad } else { ge.per_good };
            erasure = 1.0 - (1.0 - erasure) * (1.0 - state_per);
        }
        erasure <= 0.0 || !self.rng.gen_bool(erasure.min(1.0))
    }
}

/// Outcome of one crash-chain step (see [`FaultState::step_crash`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CrashTransition {
    /// The node just went down; `drop_queue` says whether its queue is lost.
    Crashed {
        /// `true` when the node's packet queue does not survive the crash.
        drop_queue: bool,
    },
    /// The node just rebooted.
    Recovered,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(!plan.has_link_loss());
        assert!(plan.validate().is_ok());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::lossy(0.1)
            .with_burst(GilbertElliott::bursty(0.01, 0.2))
            .with_crash(CrashModel::new(0.001, 0.05))
            .with_drift(0.002)
            .with_max_retries(4);
        assert!(!plan.is_noop());
        assert!(plan.has_link_loss());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.max_retries, Some(4));
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        assert!(FaultPlan::lossy(1.5).validate().is_err());
        assert!(FaultPlan::default().with_drift(-0.1).validate().is_err());
        assert!(FaultPlan::default().with_drift(1.0).validate().is_err());
        let bad_burst = FaultPlan::default().with_burst(GilbertElliott {
            p_good_to_bad: 2.0,
            p_bad_to_good: 0.1,
            per_good: 0.0,
            per_bad: 0.5,
        });
        assert!(bad_burst.validate().is_err());
        let bad_crash = FaultPlan::default().with_crash(CrashModel::new(-0.1, 0.5));
        assert!(bad_crash.validate().is_err());
    }

    #[test]
    fn gilbert_elliott_steady_state() {
        let ge = GilbertElliott::bursty(0.01, 0.09);
        assert!((ge.steady_state_bad() - 0.1).abs() < 1e-12);
        assert!((ge.steady_state_per() - 0.08).abs() < 1e-12);
        // k-step transition converges to the stationary distribution.
        assert!((ge.bad_after(true, 10_000) - 0.1).abs() < 1e-9);
        assert!((ge.bad_after(false, 10_000) - 0.1).abs() < 1e-9);
        // And starts from the current state.
        assert_eq!(ge.bad_after(true, 0), 1.0);
        assert_eq!(ge.bad_after(false, 0), 0.0);
    }

    #[test]
    fn uniform_loss_rate_is_respected() {
        let mut st = FaultState::new(FaultPlan::lossy(0.3), 2, 7);
        let delivered = (0..20_000)
            .filter(|&slot| st.link_delivers(0, 1, slot))
            .count();
        let rate = delivered as f64 / 20_000.0;
        assert!((rate - 0.7).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    fn bursty_loss_is_correlated() {
        // Long bursts: mean dwell 100 slots in each state, lossless Good,
        // total-loss Bad → long runs of consecutive erasures.
        let ge = GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.01,
            per_good: 0.0,
            per_bad: 1.0,
        };
        let mut st = FaultState::new(FaultPlan::default().with_burst(ge), 2, 3);
        let outcomes: Vec<bool> = (0..50_000).map(|s| st.link_delivers(0, 1, s)).collect();
        let losses = outcomes.iter().filter(|&&d| !d).count();
        // Stationary loss is 50%.
        assert!((20_000..30_000).contains(&losses), "{losses}");
        // Correlation: far more same-state adjacent pairs than alternations.
        let same = outcomes.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            same > 45_000,
            "bursty channel should produce runs, got {same} same-pairs"
        );
    }

    #[test]
    fn lazy_burst_chain_forgets_after_long_idle() {
        let ge = GilbertElliott {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            per_good: 0.0,
            per_bad: 1.0,
        };
        let mut st = FaultState::new(FaultPlan::default().with_burst(ge), 2, 9);
        // With λ = 0, one step already reaches the stationary chain: the
        // closed form must not blow up for huge k.
        let delivered = (0..1000)
            .filter(|&i| st.link_delivers(0, 1, i * 1_000_000))
            .count();
        assert!((300..700).contains(&delivered), "{delivered}");
    }

    #[test]
    fn crash_chain_transitions_and_counts() {
        let plan = FaultPlan::default().with_crash(CrashModel::new(0.5, 0.5));
        let mut st = FaultState::new(plan, 1, 11);
        let (mut crashes, mut recoveries) = (0, 0);
        for _ in 0..2000 {
            match st.step_crash(0) {
                Some(CrashTransition::Crashed { drop_queue }) => {
                    assert!(drop_queue, "CrashModel::new drops queues");
                    crashes += 1;
                }
                Some(CrashTransition::Recovered) => recoveries += 1,
                None => {}
            }
        }
        assert!(crashes > 100, "{crashes}");
        assert!((crashes as i64 - recoveries as i64).abs() <= 1);
        assert!(st.crashed_count() <= 1);
    }

    #[test]
    fn drift_skews_perceived_slots_both_ways() {
        let plan = FaultPlan::default().with_drift(0.25);
        let mut st = FaultState::new(plan, 16, 5);
        for _ in 0..100 {
            st.step_drift();
        }
        let perceived: Vec<u64> = (0..16).map(|v| st.perceived_slot(v, 1000)).collect();
        assert!(perceived.iter().any(|&s| s > 1000), "{perceived:?}");
        assert!(perceived.iter().any(|&s| s < 1000), "{perceived:?}");
        // Bounded by the configured rate.
        assert!(perceived.iter().all(|&s| (975..=1025).contains(&s)));
        // A lagging clock saturates at slot 0 rather than wrapping around.
        assert!((0..16).map(|v| st.perceived_slot(v, 0)).max().unwrap() <= 25);
    }

    #[test]
    fn skews_truncate_the_accrual_and_move_the_epoch() {
        let plan = FaultPlan::default().with_drift(0.3);
        let mut st = FaultState::new(plan, 32, 8);
        let mut prev = st.skews().to_vec();
        for _ in 0..200 {
            let epoch = st.skew_epoch();
            st.step_drift();
            for (v, &s) in st.skews().iter().enumerate() {
                assert_eq!(s, st.drift_accum[v].trunc() as i64);
                assert_eq!(st.perceived_slot(v, 500), 500u64.saturating_add_signed(s));
            }
            let changed = st.skews() != prev.as_slice();
            assert_eq!(st.skew_epoch() != epoch, changed);
            let lowest = *st.skews().iter().min().unwrap();
            let highest = *st.skews().iter().max().unwrap();
            assert_eq!(st.skew_range(), (lowest, highest));
            prev = st.skews().to_vec();
        }
    }

    #[test]
    fn noop_plan_draws_no_randomness() {
        let a = FaultState::new(FaultPlan::none(), 4, 42);
        let mut b = FaultState::new(FaultPlan::none(), 4, 42);
        for v in 0..4 {
            assert_eq!(b.step_crash(v), None);
        }
        b.step_drift();
        assert_eq!(b.perceived_slot(2, 77), 77);
        // The RNG was never touched: states are still identical.
        assert_eq!(format!("{:?}", a.rng), format!("{:?}", b.rng));
    }
}
