//! The repository's benchmark: ADSALA serving on a model installed on
//! this host, end to end and per layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_stream --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Result records and spans go to `.bench_out/` under the
//! working directory. See `perfbench/README.md` for the workloads and
//! what each metric should move.

mod host;
mod metrics;
mod ops;
mod oracle;
mod rng;
mod run;
mod serve;
mod setup;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Options;
use workload::Workload;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: adsala-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir: Some(PathBuf::from(".bench_out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run::run(&opts) {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.result_line(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal-length run of every workload completes, serves at least
    /// one op per client, and every op passes the oracle.
    #[test]
    fn minimal_run_of_each_workload_has_no_errors() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Options { workload, seed: 1, seconds: 0.0, trace, out_dir: None };
                let outcome =
                    run::run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                assert!(outcome.attempted >= 1, "{}", workload.name());
                assert_eq!(outcome.error_rate(), 0.0, "{}: {:?}", workload.name(), outcome.report);
                assert!(outcome.correct);
                let line = outcome.result_line(trace);
                let table = if trace { &metrics::PER_LAYER[..] } else { &metrics::END_TO_END[..] };
                for (name, _, _) in table {
                    assert!(line.contains(&format!("\"{name}\"")), "{name} missing from {line}");
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse(&args("--workload concurrent_mixed --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ConcurrentMixed, 3, 10.0, true)
        );
        assert!(parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload small_stream --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse(&args("--workload small_stream --seconds 10")).is_err());
    }
}
