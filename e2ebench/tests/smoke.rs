//! The benchmark's own tests: every workload at toy size with all output
//! checks on, so a broken check or workload fails here first.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_e2ebench::sim::check_report;
use ttdc_e2ebench::{run, Args, END_TO_END, PER_LAYER, WORKLOADS};
use ttdc_sim::{GeometricNetwork, ScheduleMac, SimulatorBuilder, TrafficPattern};

fn smoke(workload: &str, trace: bool) -> ttdc_e2ebench::Outcome {
    let args = Args {
        workload: workload.into(),
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    run(&args).unwrap_or_else(|e| panic!("{workload}: set-up failed: {e}"))
}

fn names(metrics: &[ttdc_e2ebench::Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in WORKLOADS {
        let o = smoke(w, false);
        assert!(o.correct && o.failed == 0 && o.attempted >= 1, "{w}: {o:?}");
        assert_eq!(names(&o.metrics), END_TO_END.to_vec(), "{w}");
        assert!(
            o.metrics.iter().all(|m| m.value > 0.0),
            "{w}: {:?}",
            o.metrics
        );
        // The result line is one JSON object with exactly these keys.
        let v = serde_json::from_str(&o.result_json()).expect("result line parses");
        let keys: Vec<&String> = v.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
    }
}

#[test]
fn every_workload_passes_its_checks_traced() {
    for w in WORKLOADS {
        let o = smoke(w, true);
        assert!(o.correct && o.failed == 0, "{w}: {o:?}");
        assert_eq!(names(&o.metrics), PER_LAYER.to_vec(), "{w}");
        let get = |name: &str| o.metrics.iter().find(|m| m.name == name).unwrap().value;
        // Each workload's own layers report work.
        let own: &[&str] = match w {
            "design" => &[
                "synth.search.nodes",
                "requirements.req3_s",
                "construct.figure2_s",
            ],
            "sim-lowrate" => &[
                "sim.engine.run_s",
                "sim.campaign.manifest_bytes",
                "topology.gen_s",
            ],
            _ => &["sim.engine.run_s", "sim.plan.fill_s", "topology.gen_s"],
        };
        for name in own {
            assert!(get(name) > 0.0, "{w}: {name} = 0");
        }
        // The documented dispatch rule: Poisson traffic runs sparse, CBR
        // skips, drift runs dense.
        let path = match w {
            "sim-poisson" => 1.0,
            "sim-lowrate" => 2.0,
            _ => 0.0,
        };
        assert_eq!(get("sim.path_inferred"), path, "{w}");
    }
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .expect("a metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(|a| a.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|x| x.as_str()).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn the_sim_output_check_rejects_broken_accounting() {
    let c = ttdc_core::build_duty_cycled(20, 3, 2, 4, ttdc_core::PartitionStrategy::RoundRobin);
    let mac = ScheduleMac::new("ttdc", c.schedule);
    let mut rng = SmallRng::seed_from_u64(3);
    let topo = GeometricNetwork::random(20, 0.3, 3, &mut rng).topology();
    let mut sim = SimulatorBuilder::new(topo, TrafficPattern::PoissonUnicast { rate: 0.01 })
        .seed(3)
        .build()
        .unwrap();
    sim.run(&mac, 2_000);
    let r = sim.report();
    assert_eq!(check_report(&r, 20, 2_000), Ok(()));
    assert!(check_report(&r, 20, 2_001).is_err());
    let mut lost = r.clone();
    lost.backlog += 1;
    assert!(check_report(&lost, 20, 2_000).is_err());
    let mut extra = r.clone();
    extra.delivered = extra.generated + 1;
    assert!(check_report(&extra, 20, 2_000).is_err());
    let mut radio = r;
    radio.energy.sleep_slots[4] += 1;
    assert!(check_report(&radio, 20, 2_000).is_err());
}
