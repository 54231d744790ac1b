//! `wsnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as the last line, one JSON result
//! object. Exits 1 when a correctness check fails, 2 on bad arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match wsnbench::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("wsnbench: {e}");
            eprintln!(
                "usage: wsnbench --workload field-grid|stream-particle|city-sharded --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = wsnbench::run(&cfg);
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
