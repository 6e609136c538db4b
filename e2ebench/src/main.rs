//! `ttdc-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then the result as one JSON object on the
//! last line of standard output. Exits non-zero, printing no result, when
//! the arguments are wrong or the workload cannot be set up.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match ttdc_e2ebench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: ttdc-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n{e}");
            std::process::exit(2);
        }
    };
    match ttdc_e2ebench::run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.info_json());
            println!("{}", outcome.result_json());
        }
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
