//! # ttdc-experiments — regenerating every figure and theorem of the paper
//!
//! The paper's evaluation is analytical, so "tables and figures" here means
//! Figure 1, Figure 2's guarantees (Theorems 6–9), the throughput theorems
//! (2–4), the equivalence theorem (1), and the §1/§7 observations. Each
//! module is one experiment producing [`ttdc_util::Table`]s; `exp_all
//! <id>…` prints them and writes `results/<id>.{txt,csv,json}`.
//!
//! | id | paper artefact | module |
//! |----|----------------|--------|
//! | e01 | Theorem 1 (Req2 ⟺ Req3) | [`e01_requirements`] |
//! | e02 | Theorem 2 closed form | [`e02_throughput_formula`] |
//! | e03 | Theorem 3 + g-properties | [`e03_general_bound`] |
//! | e04 | Theorem 4 | [`e04_alpha_bound`] |
//! | e05 | Figure 2 + Theorem 6 | [`e05_construction_correctness`] |
//! | e06 | Theorem 7 | [`e06_frame_length`] |
//! | e07 | Theorem 8 | [`e07_optimality_ratio`] |
//! | e08 | Theorem 9 | [`e08_min_throughput`] |
//! | e09 | Figure 1 | [`e09_figure1`] |
//! | e10 | §1 naive duty-cycling blow-up | [`e10_naive_duty_cycling`] |
//! | e11 | §7 balanced energy | [`e11_energy_balance`] |
//! | e12 | end-to-end protocol comparison | [`e12_end_to_end`] |
//! | e13 | latency bound (abstract/§1) | [`e13_latency`] |
//! | e14 | network lifetime vs duty cycle | [`e14_lifetime`] |
//! | e15 | CFF construction trade study | [`e15_cff_constructions`] |
//! | e16 | sender-policy ablation | [`e16_sender_policy`] |
//! | e17 | fault tolerance (loss/crash/drift) | [`e17_fault_tolerance`] |
//! | e18 | synthesized catalog vs Figure 2 | [`e18_catalog`] |

pub mod campaign;
pub mod e01_requirements;
pub mod e02_throughput_formula;
pub mod e03_general_bound;
pub mod e04_alpha_bound;
pub mod e05_construction_correctness;
pub mod e06_frame_length;
pub mod e07_optimality_ratio;
pub mod e08_min_throughput;
pub mod e09_figure1;
pub mod e10_naive_duty_cycling;
pub mod e11_energy_balance;
pub mod e12_end_to_end;
pub mod e13_latency;
pub mod e14_lifetime;
pub mod e15_cff_constructions;
pub mod e16_sender_policy;
pub mod e17_fault_tolerance;
pub mod e18_catalog;
pub mod output;

pub use campaign::{grid, grid_names, GridScenario, CAMPAIGN_DIR_ENV};
pub use output::{print_and_write, write_tables};

/// An experiment runner: produces the tables `exp_all` prints.
pub type Runner = fn() -> Vec<ttdc_util::Table>;

/// Every experiment as `(id, runner)` — the registry `exp_all` iterates.
pub fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("e01_requirements", e01_requirements::run),
        ("e02_throughput_formula", e02_throughput_formula::run),
        ("e03_general_bound", e03_general_bound::run),
        ("e04_alpha_bound", e04_alpha_bound::run),
        (
            "e05_construction_correctness",
            e05_construction_correctness::run,
        ),
        ("e06_frame_length", e06_frame_length::run),
        ("e07_optimality_ratio", e07_optimality_ratio::run),
        ("e08_min_throughput", e08_min_throughput::run),
        ("e09_figure1", e09_figure1::run),
        ("e10_naive_duty_cycling", e10_naive_duty_cycling::run),
        ("e11_energy_balance", e11_energy_balance::run),
        ("e12_end_to_end", e12_end_to_end::run),
        ("e13_latency", e13_latency::run),
        ("e14_lifetime", e14_lifetime::run),
        ("e15_cff_constructions", e15_cff_constructions::run),
        ("e16_sender_policy", e16_sender_policy::run),
        ("e17_fault_tolerance", e17_fault_tolerance::run),
        ("e18_catalog", e18_catalog::run),
    ]
}
