//! Phase 2: workload packet generation per the configured
//! [`TrafficPattern`](crate::TrafficPattern).
//!
//! Dead and crashed nodes generate nothing. A packet with no usable route
//! (isolated generator, or no path to the convergecast sink) is announced
//! as an unrouted generation and never enqueued.

use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::traffic::{cbr_generators, Packet, TrafficPattern};
use rand::{Rng, RngCore};

/// `gen_bool(p)` as an integer threshold: the vendored `gen_bool` tests
/// `(u >> 11)·2⁻⁵³ < p`, and that product is exact, so it holds exactly
/// when `(u >> 11) < ⌈p·2⁵³⌉` (`p·2⁵³` is exact too). Computed once per
/// pass, it leaves one `next_u64` per draw, the same draw `gen_bool` makes.
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

pub(crate) fn run(sim: &mut Simulator) {
    let n = sim.topo.num_nodes();
    match sim.pattern {
        TrafficPattern::SaturatedBroadcast => {}
        TrafficPattern::PoissonUnicast { rate } => {
            let threshold = bernoulli_threshold(rate);
            for v in 0..n {
                if !sim.dead[v] && !sim.faults.is_crashed(v) && sim.rng.next_u64() >> 11 < threshold
                {
                    generate_unicast(sim, v);
                }
            }
        }
        TrafficPattern::CbrUnicast { period } => {
            for v in cbr_generators(sim.slot, period, n) {
                if !sim.dead[v] && !sim.faults.is_crashed(v) {
                    generate_unicast(sim, v);
                }
            }
        }
        TrafficPattern::Convergecast { sink, rate } => {
            let threshold = bernoulli_threshold(rate);
            for v in 0..n {
                if sim.dead[v]
                    || sim.faults.is_crashed(v)
                    || v == sink
                    || sim.rng.next_u64() >> 11 >= threshold
                {
                    continue;
                }
                if sim.routing[v] == usize::MAX {
                    sim.emit(SlotEvent::PacketGenerated {
                        node: v,
                        final_dst: sink,
                        routed: false,
                    });
                } else {
                    sim.queues[v].push_back(Packet {
                        origin: v,
                        final_dst: sink,
                        created: sim.slot,
                        retries: 0,
                    });
                    sim.emit(SlotEvent::PacketGenerated {
                        node: v,
                        final_dst: sink,
                        routed: true,
                    });
                }
            }
        }
    }
}

/// Generates one unicast packet at `v` for a uniformly-random neighbour.
fn generate_unicast(sim: &mut Simulator, v: usize) {
    let deg = sim.topo.degree(v);
    if deg == 0 {
        sim.emit(SlotEvent::PacketGenerated {
            node: v,
            final_dst: usize::MAX,
            routed: false,
        });
        return;
    }
    let pick = sim.rng.gen_range(0..deg);
    let dst = sim.topo.neighbors(v).iter().nth(pick).unwrap();
    sim.queues[v].push_back(Packet {
        origin: v,
        final_dst: dst,
        created: sim.slot,
        retries: 0,
    });
    sim.emit(SlotEvent::PacketGenerated {
        node: v,
        final_dst: dst,
        routed: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The threshold test draws what `gen_bool` draws and answers what it
    /// answers, at the ends of the range, at rates whose `p·2⁵³` is an
    /// integer and at ones next to them.
    #[test]
    fn bernoulli_threshold_matches_gen_bool() {
        let ulp = (-53f64).exp2();
        let mut rates = vec![0.0, 1.0, 0.5, 0.05, 1e-300, 5e-324, 1.0 - ulp / 2.0, ulp];
        rates.extend([0.25f64, 0.1, 1.0 / 3.0].iter().flat_map(|&p| {
            [
                p,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ]
        }));
        for p in rates {
            let threshold = bernoulli_threshold(p);
            let (mut a, mut b) = (SmallRng::seed_from_u64(7), SmallRng::seed_from_u64(7));
            for i in 0..20_000 {
                assert_eq!(
                    a.next_u64() >> 11 < threshold,
                    b.gen_bool(p),
                    "p={p:e} draw {i}"
                );
            }
            // Exactly at the threshold and one below, where the two could
            // disagree by a rounding.
            let k = |u: u64| (u as f64) * ulp < p;
            assert!(!k(threshold));
            if threshold > 0 {
                assert!(k(threshold - 1), "p={p:e}");
            }
        }
    }
}
