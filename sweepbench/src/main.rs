//! Command-line entry point of the benchmark; see `lib.rs`.

use std::process::ExitCode;

use sweepbench::args::{Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match sweepbench::Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweepbench: cannot create the scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let result = if args.trace {
        sweepbench::census::run(&args, &scratch.0)
    } else {
        sweepbench::timed_run(&args, &scratch.0)
    };
    drop(scratch);
    match result {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::from(1)
        }
    }
}
