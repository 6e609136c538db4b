//! # ttdc-sim — a slot-synchronous WSN simulator
//!
//! The paper's evaluation is analytical; this crate supplies the empirical
//! side of the reproduction: a deterministic (seeded) discrete-event
//! simulator of a wireless sensor network operating under a slotted MAC,
//! with the paper's collision model (a reception succeeds iff exactly one
//! neighbour of a listening node transmits), degree-bounded static and
//! dynamic topologies, WSN traffic workloads, and a Mica2-class radio
//! energy model.
//!
//! * [`topology`] — members of `N_n^D`: rings/lines/stars/grids/trees,
//!   degree-capped random graphs, geometric deployments with
//!   random-waypoint mobility, and edge churn;
//! * [`mac`] — the [`mac::MacProtocol`] trait and the [`mac::ScheduleMac`]
//!   adapter for `ttdc-core` schedules;
//! * [`traffic`] — saturated worst-case broadcast (the paper's regime),
//!   Bernoulli/CBR unicast, multi-hop convergecast;
//! * [`engine`] — the per-slot orchestrator with schedule-aware senders
//!   and a sync-miss knob; each slot phase lives in its own module under
//!   `phases/` (faults → traffic → election → channel → delivery → arq →
//!   energy);
//! * [`builder`] — [`SimulatorBuilder`], the only way to construct a
//!   [`Simulator`]: one setter per engine knob, physical capture
//!   ([`CaptureModel`]) included, all validated in one `build`; receptions
//!   otherwise follow the paper's exactly-one rule;
//! * [`energy`] — transmit/listen/sleep accounting;
//! * [`faults`] — fault injection (lossy/bursty links, transient node
//!   crashes, clock drift) and the bounded link-layer ARQ;
//! * [`metrics`], [`trace`], [`montecarlo`] — reports (each event of the
//!   engine's stream folded once into counters and trace), event traces
//!   and parallel replication;
//! * [`campaign`] — sharded, checkpointed replication sweeps whose merge
//!   is the one streaming replication fold.
//!
//! # Fault model
//!
//! The paper proves its delivery guarantee over an idealized channel
//! (collisions are the only loss, slots are perfectly aligned). To measure
//! how gracefully a topology-transparent schedule degrades when that
//! idealization breaks, [`SimulatorBuilder::faults`] accepts a composable
//! [`FaultPlan`]:
//!
//! * **Link loss** — a uniform packet error rate ([`FaultPlan::per`]) and/or
//!   a [`faults::GilbertElliott`] two-state bursty channel, drawn per
//!   directed link per slot; erased receptions are counted in
//!   [`SimReport::link_drops`].
//! * **Transient crashes** — a [`faults::CrashModel`] takes nodes down and
//!   reboots them (distinct from battery death); a crashed node is
//!   radio-silent, pays only sleep energy, and by default loses its queue
//!   ([`SimReport::crash_dropped`]).
//! * **Clock drift** — each node accrues a fixed per-slot skew drawn from
//!   `[-clock_drift, +clock_drift]`, shifting the slot index at which it
//!   consults the schedule; this generalizes the uniform
//!   [`SimulatorBuilder::miss_probability`] to *systematic* desynchronization.
//! * **Bounded ARQ** — [`FaultPlan::max_retries`] caps how often a hop is
//!   retried before the packet is abandoned
//!   ([`SimReport::retry_exhausted`]); `None` retries forever, which is the
//!   legacy behaviour.
//!
//! Fault decisions draw from a dedicated RNG stream, so a plan with every
//! knob at zero ([`FaultPlan::is_noop`]) reproduces the fault-free engine
//! bit for bit at equal seeds. The per-packet conservation invariant
//! `generated = delivered + undeliverable + retry_exhausted + backlog`
//! holds under every plan (crash-dropped queues count as undeliverable).

#![warn(missing_docs)]

pub mod builder;
pub mod campaign;
mod channel;
pub mod energy;
pub mod engine;
pub mod error;
mod events;
pub mod faults;
pub mod mac;
pub mod metrics;
pub mod montecarlo;
mod observer;
mod phases;
pub mod plan;
mod roster;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use builder::SimulatorBuilder;
pub use campaign::{
    run_campaign, CampaignError, CampaignOptions, CampaignOutcome, CampaignSpec, PointSpec,
    ResumeMode,
};
pub use channel::CaptureModel;
pub use energy::{EnergyLedger, EnergyModel, RadioState};
pub use engine::{SimPath, Simulator};
pub use error::SimError;
pub use faults::{CrashModel, FaultPlan, GilbertElliott};
pub use mac::{MacProtocol, ScheduleMac};
pub use metrics::SimReport;
pub use montecarlo::{run_replications, summarize, McSummary};
pub use plan::SlotPlan;
pub use topology::{churn, GeometricNetwork, Topology};
pub use trace::{Trace, TraceEvent};
pub use traffic::{Packet, TrafficPattern};
