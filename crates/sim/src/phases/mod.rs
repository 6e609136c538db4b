//! The slot-phase pipeline.
//!
//! One simulated slot is seven phases, run in fixed order by the engine's
//! step:
//!
//! 1. [`faults`] — crash/recovery transitions and clock-drift accrual;
//! 2. [`traffic`] — workload packet generation;
//! 3. [`election`] — transmit decisions (schedule, sync-miss roll,
//!    p-persistence, stale-packet drop, schedule-aware packet choice);
//! 4. [`channel`] — listen decisions and reception resolution (the
//!    paper's exactly-one rule, or physical capture);
//! 5. [`delivery`] — applying successful handoffs;
//! 6. [`arq`] — the bounded link-layer retry pass;
//! 7. [`energy`] — radio-state accounting and battery death.
//!
//! Each phase is a free function over the engine state; anything
//! observable is announced as a `SlotEvent`, which the engine folds into
//! its report once, rather than recorded inline. Phases communicate only
//! through per-slot scratch on the `Simulator` (`tx_queue_idx`,
//! `successes`, the `active_tx` roster with its `tx_mask` word mask, and
//! the `rx_mask` of actual listeners), all pre-allocated — the
//! steady-state step loop performs zero heap allocations (asserted by
//! `ttdc-bench`'s `alloc_audit` test).
//!
//! Every phase has one implementation, shared by every roster source and
//! by the time-skipping engine, which steps its interesting slots through
//! the same pipeline on plan rosters. Election, channel, ARQ and energy
//! never visit all `n` nodes: they walk the slot's ascending rosters (the
//! `roster` module) — transmitter candidates, listener candidates, actual
//! transmitters, the awake union — and energy leaves sleeping nodes to
//! their sleep debt, settled bit-exactly later. For frame-periodic MACs
//! the rosters come from a [`SlotPlan`](crate::SlotPlan) without clock
//! drift and from per-skew-group reads of the MAC's slot masks under
//! drift; for any other MAC from a per-slot MAC scan. The golden fixtures
//! and the roster-vs-scan equivalence proptests pin every source
//! bit-identical.
//!
//! **RNG-draw-order compatibility rule** (see `DESIGN.md`): phases consume
//! the main RNG stream in pipeline order, node-index order within a phase,
//! and must keep every draw behind the exact gating condition that guarded
//! it before — adding, removing, or reordering a draw (or a short-circuit
//! in front of one) silently re-randomizes every later decision in the
//! run. The golden fixture tests pin this bit-for-bit.

pub(crate) mod arq;
pub(crate) mod channel;
pub(crate) mod delivery;
pub(crate) mod election;
pub(crate) mod energy;
pub(crate) mod faults;
pub(crate) mod traffic;
