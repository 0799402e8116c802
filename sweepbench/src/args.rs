//! Strict command-line parsing: an unknown flag, a repeated flag, a
//! missing value or a malformed number is an error, never a silent
//! default.

use crate::inputs::WorkloadKind;

/// Usage text printed with every argument error.
pub const USAGE: &str = "usage: sweepbench --workload <sweep_drr|sweep_resume|design_greedy> \
[--seed <u64>] [--seconds <positive number>] [--trace <0|1>]";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadKind,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// How long the timed loop measures, in seconds.
    pub seconds: f64,
    /// Run the traced (per-layer) mode instead of the timed mode.
    pub trace: bool,
}

impl Args {
    /// Parse the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let (name, inline) = match flag.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (flag.clone(), None),
            };
            let slot_taken = match name.as_str() {
                "--workload" => workload.is_some(),
                "--seed" => seed.is_some(),
                "--seconds" => seconds.is_some(),
                "--trace" => trace.is_some(),
                _ => return Err(format!("unknown argument '{flag}'")),
            };
            if slot_taken {
                return Err(format!("{name} given twice"));
            }
            let value = match inline {
                Some(v) => v,
                None => it.next().ok_or_else(|| format!("{name} needs a value"))?,
            };
            match name.as_str() {
                "--workload" => {
                    workload = Some(WorkloadKind::parse(&value).ok_or_else(|| {
                        format!(
                            "unknown workload '{value}' (expected one of {})",
                            WorkloadKind::names()
                        )
                    })?);
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("--seed '{value}' is not an unsigned integer"))?,
                    );
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("--seconds '{value}' is not a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds '{value}' must be positive and finite"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace '{value}' must be 0 or 1")),
                    });
                }
                _ => unreachable!("flag names were matched above"),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn accepts_the_spaced_and_the_inline_form() {
        let a = parse(&[
            "--workload",
            "sweep_drr",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, WorkloadKind::SweepDrr);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let b = parse(&["--workload=design_greedy", "--seed=3", "--trace=0"]).unwrap();
        assert_eq!(
            (b.workload, b.seed, b.trace),
            (WorkloadKind::DesignGreedy, 3, false)
        );
    }

    #[test]
    fn rejects_bad_input_loudly() {
        for bad in [
            &["--workload", "sweep_drr", "--seed", "oops"][..],
            &["--workload", "sweep_drr", "--seed", "-1"],
            &["--workload", "sweep_drr", "--seconds", "0"],
            &["--workload", "sweep_drr", "--seconds", "NaN"],
            &["--workload", "sweep_drr", "--seconds", "ten"],
            &["--workload", "sweep_drr", "--trace", "2"],
            &["--workload", "sweep_drr", "--jbos", "4"],
            &["--workload", "nope"],
            &["--workload"],
            &["--seed", "1"],
            &["--workload", "sweep_drr", "--seed", "1", "--seed", "2"],
            &["sweep_drr"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
