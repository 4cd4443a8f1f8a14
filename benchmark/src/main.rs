//! The McSD benchmark. `BENCHMARK.json` at the repository root names the
//! command; `README.md` beside this crate explains the design.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one result line (the contract)
//! benchmark run   [--seed N] [--segments K] [--quick]       all four workloads, interleaved
//! benchmark trace [--seed N] [--quick]                      layer probes + span files
//! benchmark aa    [--sets N] [--seed N]                      same-code A/A noise gate
//! ```

mod aa;
mod alloc;
mod json;
mod layers;
mod procfs;
mod report;
mod runner;
mod segment;
mod spans;
mod stats;
mod workloads;

use runner::RunConfig;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run   [--seed N] [--segments K] [--workload W] [--quick]
  benchmark trace [--seed N] [--quick]
  benchmark aa    [--sets N] [--seed N]
workloads: call_lockstep call_window16 job_wc_offload rack_des";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            pairs.push((key.to_string(), value));
        }
        Ok(Args { pairs })
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None if self.flag(key) => Err(format!("--{key} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    fn workloads(&self) -> Result<Vec<String>, String> {
        match self.value("workload") {
            None => Ok(workloads::WORKLOADS.map(String::from).to_vec()),
            Some(w) if workloads::WORKLOADS.contains(&w) => Ok(vec![w.to_string()]),
            Some(w) => Err(format!("unknown workload {w:?}")),
        }
    }
}

const DEFAULT_SEED: u64 = 42;

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &argv[1..]),
        Some(_) => ("contract", argv),
        None => return Err(USAGE.into()),
    };
    let args = Args::parse(rest)?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let quick = args.flag("quick");
    match command {
        "segment" => {
            let spec = segment::SegmentSpec {
                workload: args.value("workload").ok_or("--workload")?.to_string(),
                index: args.number("index", 0)?,
                seed,
                quick,
                dir: args.value("dir").ok_or("--dir")?.into(),
                trace: args.value("trace").map(Into::into),
            };
            println!("{}", segment::run(&spec)?.to_json());
            Ok(true)
        }
        "contract" => {
            let workload = args.value("workload").ok_or(USAGE)?;
            if !workloads::WORKLOADS.contains(&workload) {
                return Err(format!("unknown workload {workload:?}"));
            }
            let seconds: f64 = args.number("seconds", runner::RUN_SECONDS as f64)?;
            match args.number("trace", 0u8)? {
                0 => runner::contract_run(workload, seed, seconds),
                1 => layers::contract_trace(workload, seed),
                other => Err(format!("bad --trace {other}")),
            }
        }
        "run" => runner::full_run(&RunConfig {
            seed,
            segments: args.number("segments", if quick { 1 } else { runner::SEGMENTS })?,
            quick,
            workloads: args.workloads()?,
        }),
        "trace" => layers::full_trace(seed, quick),
        "aa" => aa::run(args.number("sets", 3)?, seed, quick),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn args(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args(&["--workload", "rack_des", "--quick", "--seed", "7"]);
        assert_eq!(a.value("workload"), Some("rack_des"));
        assert!(a.flag("quick"));
        assert_eq!(a.number("seed", 42u64), Ok(7));
        assert_eq!(a.number("segments", 7usize), Ok(7));
        assert!(a.number::<u64>("quick", 1).is_err());
        assert!(args(&["--seed", "x"]).number::<u64>("seed", 1).is_err());
        assert_eq!(a.workloads().unwrap(), vec!["rack_des"]);
        assert_eq!(args(&[]).workloads().unwrap().len(), 4);
        assert!(args(&["--workload", "nope"]).workloads().is_err());
        assert!(Args::parse(&["stray".to_string()]).is_err());
    }

    /// The result line must carry exactly the metrics `BENCHMARK.json`
    /// declares, with the same units: the driver refuses anything else.
    #[test]
    fn output_round_trips_against_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            decl.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    assert!(matches!(&*field("better"), "lower" | "higher"));
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let emitted = |line: &Json| -> Vec<(String, String)> {
            let parsed = Json::parse(&line.to_string()).unwrap();
            let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            parsed
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };

        let values: Vec<f64> = (1..=report::END_TO_END.len())
            .map(|i| i as f64 + 0.25)
            .collect();
        let e2e = report::metrics_json(
            report::END_TO_END
                .iter()
                .zip(&values)
                .map(|(&(n, u), &v)| (n, v, u)),
        );
        assert_eq!(
            emitted(&report::result_line(true, 10, 0, e2e)),
            declared("end_to_end")
        );

        let layer = report::metrics_json(layers::PER_LAYER.iter().map(|&(n, u, _)| (n, 1.5, u)));
        assert_eq!(
            emitted(&report::result_line(true, 10, 0, layer)),
            declared("per_layer")
        );
        for ((name, _), &(_, _, better)) in declared("per_layer").iter().zip(layers::PER_LAYER) {
            let m = decl.get("per_layer").and_then(Json::as_arr).unwrap();
            let entry = m
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name));
            assert_eq!(
                entry.unwrap().get("better").and_then(Json::as_str),
                Some(better)
            );
        }

        let names: Vec<String> = decl
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, workloads::WORKLOADS);
        assert_eq!(decl.num("run_seconds"), Ok(runner::RUN_SECONDS as f64));
        // Every bound is within a tenth except `setup_s`, which the
        // contract keeps end-to-end and asks to carry the largest bound.
        for m in decl.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let setup = m.get("name").and_then(Json::as_str) == Some("setup_s");
            assert!(m.num("bound").unwrap() <= if setup { 0.25 } else { 0.10 });
        }
    }
}
