//! Renders tables from the harness's JSON documents.
//!
//! ```text
//! analyze breakdown <file.json>        per-phase time-breakdown table
//! analyze latency   <file.json>        latency-percentile table
//! analyze timeline  <file.json>        windowed sparklines + hotspots
//! analyze scale     <file.json>        multi-switch speedup table
//! ```
//!
//! `breakdown`, `latency`, and `timeline` read what
//! `repro --small metrics --json > file.json` writes: the nine
//! benchmarks in the normal and active configurations, each with its
//! phase breakdown and latency percentiles. `scale` reads what
//! `repro scale --json` writes. This subcommand is the offline half of
//! the observability pipeline — simulate once, slice the report as
//! many ways as needed.

use std::env;
use std::fs;
use std::process::ExitCode;

use asan_bench::{
    latency_report, parse_metrics_doc, phase_breakdown_report, scale, timeline_report,
};

fn usage() -> ExitCode {
    eprintln!("usage: analyze <breakdown|latency|timeline|scale> <file.json>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let [cmd, path] = args.as_slice() else {
        return usage();
    };
    let (cmd, path) = (cmd.as_str(), path.as_str());
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("analyze: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "scale" => match scale::parse_scale_doc(&text) {
            Ok(doc) => print!("{}", scale::scale_report(&doc)),
            Err(e) => {
                eprintln!("analyze: {path} is not a scale document: {e}");
                return ExitCode::FAILURE;
            }
        },
        "breakdown" | "latency" | "timeline" => {
            let rows = match parse_metrics_doc(&text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("analyze: {path} is not a metrics document: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd {
                "breakdown" => print!("{}", phase_breakdown_report(&rows)),
                "latency" => print!("{}", latency_report(&rows)),
                _ => print!("{}", timeline_report(&rows)),
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
