//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a provenance line and the outcome fingerprint, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero without a result when the
//! arguments are bad or the workload cannot be set up.

#![forbid(unsafe_code)]

use perfbench::run::{run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("provenance {}", outcome.provenance);
            match outcome.fingerprint {
                Some(fp) => println!("fingerprint {}", fp.to_json()),
                None => println!("fingerprint null"),
            }
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
