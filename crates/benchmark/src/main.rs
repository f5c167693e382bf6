//! `asan-benchmark`: the benchmark every performance claim about the
//! simulator is measured with.
//!
//! ```text
//! asan-benchmark run [--seed N] [--out DIR] [--smoke]
//! asan-benchmark compare A.json B.json
//! asan-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--out DIR] [--smoke]
//! ```
//!
//! `run` measures every workload 3 times (rounds), each time in its own
//! child process (one at a time, each on one thread), prints
//! every metric by name with its unit and writes `DIR/results.json`
//! (default `target/benchmark/`). `compare` gives each end-to-end
//! metric of each workload a verdict between two such files, from the
//! spread of their rounds, and flags any changed simulation digest; it
//! exits 1 unless everything is unchanged or improved.
//!
//! `--workload` measures one workload in this process. It first runs
//! the golden correctness gate, then a discarded warm-up iteration and
//! the untraced iterations, then (with `--trace 1`) traced iterations
//! and the per-operation probes. The last line of its output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). It
//! exits 1 when any operation failed.
//!
//! Each workload runs a fixed number of iterations
//! ([`Workload::iterations`]), the same on every commit. `--seconds` is
//! accepted because `BENCHMARK.json`'s command form passes its
//! `run_seconds` there, but it does not change the run: the counts are
//! chosen so that a run measures about that long. Run times are the
//! fastest run of each simulation, set-up time the median iteration's,
//! both scaled to a reference machine speed (see `measure`). `--smoke`
//! runs the apps' test sizes, one iteration, no warm-up.

mod catalog;
mod gate;
mod measure;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use catalog::{END_TO_END, PER_LAYER};
use measure::{Outcome, Settings};
use stats::Summary;
use workloads::Workload;

const USAGE: &str = "usage: asan-benchmark run [--seed N] [--out DIR] [--smoke]
       asan-benchmark compare A.json B.json
       asan-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]";

/// Rounds of every workload that `run` measures.
const ROUNDS: usize = 3;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 0xC4A05;

/// Traced iterations of a full-size run.
const TRACED_ITERATIONS: usize = 2;

/// The benchmark's one wall clock: seconds since the call.
pub fn wall_clock() -> impl Fn() -> f64 {
    // asan-lint: allow(no-wall-clock)
    let origin = std::time::Instant::now();
    move || origin.elapsed().as_secs_f64()
}

#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        out: PathBuf::from("target/benchmark"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                o.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => o.seed = parse_seed(value).ok_or(format!("bad seed {value:?}"))?,
            // Checked but unused: the run length is the iteration count.
            "--seconds" => {
                value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(o)
}

/// A decimal or `0x`-prefixed hexadecimal `u64`.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let code = dispatch(&args).unwrap_or_else(|e| {
        eprintln!("asan-benchmark: {e}\n{USAGE}");
        2
    });
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&parse_opts(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two results files".into()),
        },
        Some(_) => {
            let o = parse_opts(args)?;
            let w = o.workload.ok_or("missing --workload")?;
            run_workload(w, &o)
        }
        None => Err("no command given".into()),
    }
}

/// Measures one workload in this process (see the crate docs).
fn run_workload(w: Workload, o: &Opts) -> Result<i32, String> {
    // A variable exported in the shell must not change what is measured.
    let inherited: Vec<String> = env::vars()
        .map(|(k, _)| k)
        .filter(|k| k == "ASAN_TRACE" || k == "ASAN_JOBS" || k.starts_with("ASAN_SNAPSHOT_"))
        .collect();
    for k in inherited {
        env::remove_var(k);
    }
    let clock = wall_clock();
    let gate = gate::run();
    for m in &gate.mismatches {
        eprintln!("golden gate mismatch:\n  {m}");
    }
    let traced = match (o.trace, o.smoke) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => TRACED_ITERATIONS,
    };
    let s = Settings {
        small: o.smoke,
        seed: o.seed,
        warmup: !o.smoke,
        iterations: if o.smoke { 1 } else { w.iterations() },
        traced,
    };
    let mut out = measure::measure(w, &s, &clock);
    out.attempted += gate.attempted;
    out.failed += gate.failed;
    print!("{}", human_report(w, &s, &gate, &out));

    fs::create_dir_all(&o.out).map_err(|e| format!("create {}: {e}", o.out.display()))?;
    let write = |name: String, text: String| {
        let path = o.out.join(name);
        fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        format!("workload-{}.json", w.name()),
        report::workload_json(w.name(), o.seed, &out),
    )?;
    if s.traced > 0 {
        write(
            format!("trace-{}.json", w.name()),
            trace::chrome_json(&out.spans),
        )?;
    }

    let metric = |name: &str, unit: &str, v: f64| {
        format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            report::quote(name),
            report::num(v),
            report::quote(unit)
        )
    };
    let metrics: Vec<String> = if o.trace {
        PER_LAYER
            .iter()
            .zip(&out.per_layer)
            .map(|(m, (_, v))| metric(m.name, m.unit, *v))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&out.end_to_end)
            .map(|(m, (_, v))| metric(m.name, m.unit, *v))
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    Ok(i32::from(out.failed > 0))
}

fn human_report(w: Workload, s: &Settings, gate: &gate::Gate, o: &Outcome) -> String {
    let mut r = format!(
        "== {}: seed {:#x}, {} measured iterations{}, {} traced ==\n",
        w.name(),
        s.seed,
        s.iterations,
        if s.warmup { " after 1 warm-up" } else { "" },
        s.traced
    );
    r.push_str(&format!(
        "golden gate: {} of {} digests match\n",
        gate.attempted - gate.failed,
        gate.attempted
    ));
    r.push_str(&format!(
        "end-to-end (host time, untraced; runs: fastest run of each simulation, summed; \
         set-up: median iteration; scaled by {:.4} to the reference machine speed):\n",
        o.clock_scale
    ));
    for (m, (_, v)) in END_TO_END.iter().zip(&o.end_to_end) {
        r.push_str(&format!(
            "  {:<24} {:>16.6} {:<16} ({} is better, bound {:.0}%)\n",
            m.name,
            v,
            m.unit,
            m.better.label(),
            m.bound * 100.0
        ));
    }
    let x = Summary::of(&o.iteration_wall_s);
    r.push_str(&format!(
        "  per-iteration run time as measured: median {:.6} s [q1 {:.6}, q3 {:.6}] n={}\n",
        x.median, x.q1, x.q3, x.n
    ));
    r.push_str(&format!(
        "  {:<24} {:>16.6} {:<9} ({} of {} operations failed)\n",
        "fail_ratio",
        report::fail_ratio(o.attempted, o.failed),
        "failed/attempted",
        o.failed,
        o.attempted
    ));
    if !o.per_layer.is_empty() {
        r.push_str("per-layer (traced iterations, per iteration):\n");
        for (m, (_, v)) in PER_LAYER.iter().zip(&o.per_layer) {
            r.push_str(&format!("  {:<28} {:>18.6} {}\n", m.name, v, m.unit));
        }
        r.push_str(&format!(
            "  {:<28} {:>18.6} ms (before clamping each simulation at 0)\n",
            "core.run.self_ms_raw", o.self_ms_raw
        ));
    }
    r.push_str(&format!(
        "per simulation (host s as measured: fastest and median run; the rest simulated, exact):\n  \
         {:<26} {:>9} {:>9} {:>16} {:>10} {:>7} {:>16} {:>9} {:>9}\n",
        "sim", "fastest", "median", "digest", "events", "peak_q", "exec (sim-ps)", "packets", "retrans"
    ));
    for rec in &o.sims {
        let host = Summary::of(&rec.run_s);
        let fastest = rec.run_s.iter().copied().fold(f64::INFINITY, f64::min);
        r.push_str(&format!(
            "  {:<26} {fastest:>9.4} {:>9.4} ",
            rec.name, host.median
        ));
        match &rec.out {
            Some(x) => r.push_str(&format!(
                "{:016x} {:>10} {:>7} {:>16} {:>9} {:>9}\n",
                x.digest,
                x.events,
                x.peak_queue,
                x.exec_ps,
                x.metrics.packet_e2e.count(),
                x.faults.retransmits
            )),
            None => r.push_str("failed\n"),
        }
    }
    r
}

/// Runs [`ROUNDS`] rounds of every workload, each in a child process,
/// one at a time, and writes `results.json`.
fn run_all(o: &Opts) -> Result<i32, String> {
    let exe = env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut sections = Vec::new();
    let mut ok = true;
    // Round-robin, so a slow spell of the machine spreads over workloads.
    for (round, w) in (1..=ROUNDS).flat_map(|r| Workload::ALL.map(|w| (r, w))) {
        let dir = o.out.join(format!("round-{round}"));
        let doc = dir.join(format!("workload-{}.json", w.name()));
        let _ = fs::remove_file(&doc); // never report a previous run's file
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--trace", "1"])
            .args(["--seed", &o.seed.to_string()])
            .arg("--out")
            .arg(&dir);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait for {}: {e}", w.name()))?;
        // Echo the child's report; its last line is the JSON summary.
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
        ok &= output.status.success();
        match fs::read_to_string(&doc) {
            Ok(text) => sections.push(text),
            Err(e) => {
                eprintln!(
                    "{}: no results ({e}); exit status {}",
                    w.name(),
                    output.status
                );
                ok = false;
            }
        }
    }
    let env = [
        ("nproc", tool_output("nproc", &[])),
        ("rustc", tool_output("rustc", &["-V"])),
        (
            "commit",
            tool_output("git", &["rev-parse", "--short", "HEAD"]),
        ),
    ];
    let text = report::results_json(o.seed, &env, &sections);
    fs::create_dir_all(&o.out).map_err(|e| format!("create {}: {e}", o.out.display()))?;
    let path = o.out.join("results.json");
    fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let docs = report::parse_results(&text)?;
    println!("== summary (host time; median [q1, q3] over n rounds) ==");
    for d in &docs {
        for (m, (_, samples)) in END_TO_END.iter().zip(&d.end_to_end) {
            let x = Summary::of(samples);
            println!(
                "{:<12} {:<13} {:>16.6} {:<9} [{:.6}, {:.6}] n={}",
                d.name, m.name, x.median, m.unit, x.q1, x.q3, x.n
            );
        }
        println!(
            "{:<12} {:<13} {:>16.6} failed/attempted",
            d.name, "fail_ratio", d.fail_ratio
        );
        if !d.rounds_agree {
            println!("{:<12} model output differs between rounds", d.name);
        }
        ok &= d.fail_ratio == 0.0 && d.rounds_agree;
    }
    println!("wrote {}", path.display());
    Ok(i32::from(!ok))
}

/// First line of a tool's output, or `unknown`.
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn compare(a: &Path, b: &Path) -> Result<i32, String> {
    let read = |p: &Path| -> Result<Vec<report::WorkloadDoc>, String> {
        let len = fs::metadata(p)
            .map_err(|e| format!("{}: {e}", p.display()))?
            .len();
        if len > report::MAX_BYTES as u64 {
            return Err(format!(
                "{}: larger than {} bytes",
                p.display(),
                report::MAX_BYTES
            ));
        }
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        report::parse_results(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (report, ok) = report::compare(&read(a)?, &read(b)?);
    print!("{report}");
    Ok(i32::from(!ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn workload_arguments_parse() {
        let o = parse_opts(&args("--workload chaos --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(o.workload, Some(Workload::Chaos));
        assert_eq!((o.seed, o.trace), (7, true));
        assert_eq!(parse_opts(&args("--seed 0x10")).unwrap().seed, 16);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--workload nope",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }
}
