//! The register plane's benchmark: three workloads driven through the
//! public API by one writer and one reader thread.
//!
//! ```text
//! perfbench --workload <register_rw|watch_wake|table_zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records
//! spans around the calls into each layer and reports the per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is the JSON result. A full record (parameters, machine
//! context, every value) goes to `perfbench/results/`. See README.md.

mod harness;
mod payload;
mod register_rw;
mod report;
mod stats;
mod table_zipf;
mod trace;
mod watch_wake;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measured seconds (split into segments on traced runs).
    pub measure: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["register_rw", "watch_wake", "table_zipf"];

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {WORKLOADS:?})"));
    }
    if !(seconds.is_finite() && (0.1..=600.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds} out of range 0.1..=600"));
    }
    Ok((workload, Config { seed, measure: Duration::from_secs_f64(seconds), trace }))
}

/// Machine context common to every workload.
fn machine(rep: &mut Report) {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let topo = arc_register::Topology::system();
    rep.context.push(("nproc", nproc.to_string()));
    rep.context.push(("cpu_model", model));
    rep.context.push(("numa_nodes", topo.node_count().to_string()));
    rep.context.push(("topology_fallback", topo.is_fallback().to_string()));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::default();
    machine(&mut rep);
    rep.params.push(("workload", workload.clone()));
    rep.params.push(("seed", cfg.seed.to_string()));
    rep.params.push(("seconds", format!("{}", cfg.measure.as_secs_f64())));
    match workload.as_str() {
        "register_rw" => register_rw::run(&cfg, &mut rep),
        "watch_wake" => watch_wake::run(&cfg, &mut rep),
        _ => table_zipf::run(&cfg, &mut rep),
    }

    let tag = format!("{workload}-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
    let dir = std::path::Path::new("perfbench/results");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{tag}.json")), rep.record(cfg.trace)))
        .and_then(|()| {
            if cfg.trace {
                let csv =
                    format!("thread,id,req,parent,layer,start_ns,end_ns,count\n{}", rep.spans);
                std::fs::write(dir.join(format!("{tag}.spans.csv")), csv)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write results under {}: {e}", dir.display());
    }

    println!("# perfbench {tag}");
    for (k, v) in rep.params.iter().chain(&rep.context) {
        println!("#   {k} = {v}");
    }
    print!("{}", rep.text(cfg.trace));
    println!("{}", rep.result_line(cfg.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, c) = parse(&args("--workload table_zipf --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "table_zipf");
        assert_eq!((c.seed, c.measure, c.trace), (7, Duration::from_secs(10), true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload watch_wake --trace 2")).is_err());
        assert!(parse(&args("--workload watch_wake --seconds")).is_err());
        assert!(parse(&args("--workload watch_wake --seconds 0")).is_err());
    }
}
