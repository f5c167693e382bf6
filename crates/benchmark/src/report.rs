//! The `results.json` document and `compare`.
//!
//! Each child process measures one workload once — one *round* — and
//! writes a workload section; `results.json` lists the sections of
//! every round. Parsed back, each end-to-end metric of a workload has
//! one sample per round, and `compare` judges the change between two
//! such sets of rounds against the metric's bound.

use asan_bench::json::{self, Value};

use crate::catalog::{self, Better, END_TO_END};
use crate::measure::Outcome;
use crate::stats::Summary;

/// Schema tag of `results.json`.
pub const SCHEMA: &str = "asan-benchmark-v1";

/// Largest document `compare` reads.
pub const MAX_BYTES: usize = 64 << 20;

/// Deepest nesting `compare` reads (the schema needs 4); checked before
/// parsing because the parser recurses once per level.
const MAX_DEPTH: usize = 16;

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` otherwise, which the reader rejects).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn nums(v: &[f64]) -> String {
    v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(",")
}

/// The failed share of the attempted operations.
pub fn fail_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Renders one round of one workload: a section of `results.json`.
pub fn workload_json(name: &str, seed: u64, o: &Outcome) -> String {
    let e2e: Vec<String> = o
        .end_to_end
        .iter()
        .map(|(metric, v)| {
            let unit = catalog::end_to_end(metric).map_or("", |m| m.unit);
            format!(
                "{}:{{\"unit\":{},\"value\":{}}}",
                quote(metric),
                quote(unit),
                num(*v)
            )
        })
        .collect();
    let layers: Vec<String> = o
        .per_layer
        .iter()
        .map(|(metric, v)| format!("{}:{}", quote(metric), num(*v)))
        .collect();
    let sims: Vec<String> = o
        .sims
        .iter()
        .map(|r| {
            let detail = r.out.as_ref().map_or(String::new(), |out| {
                format!(
                    ",\"events\":{},\"peak_queue\":{},\"exec_ps\":{},\
                     \"metrics_digest\":\"{:016x}\"",
                    out.events,
                    out.peak_queue,
                    out.exec_ps,
                    out.metrics.digest()
                )
            });
            let digest = r
                .out
                .as_ref()
                .map_or("failed".to_string(), |out| format!("{:016x}", out.digest));
            format!(
                "{{\"name\":{},\"digest\":\"{digest}\"{detail},\"run_s\":[{}]}}",
                quote(&r.name),
                nums(&r.run_s)
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"iterations\":{},\"attempted\":{},\"failed\":{},\
         \"fail_ratio\":{},\"end_to_end\":{{{}}},\"clock_scale\":{},\
         \"iteration_wall_s\":[{}],\"per_layer\":{{{}}},\"core.run.self_ms_raw\":{},\
         \"sims\":[{}]}}",
        quote(name),
        o.iteration_wall_s.len(),
        o.attempted,
        o.failed,
        num(fail_ratio(o.attempted, o.failed)),
        e2e.join(","),
        num(o.clock_scale),
        nums(&o.iteration_wall_s),
        layers.join(","),
        num(o.self_ms_raw),
        sims.join(",")
    )
}

/// Renders `results.json` from the workload sections of every round
/// and `key: value` environment pairs.
pub fn results_json(seed: u64, env: &[(&str, String)], sections: &[String]) -> String {
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
        .collect();
    format!(
        "{{\"schema\":{},\"seed\":{seed},\"env\":{{{}}},\"workloads\":[\n{}\n]}}\n",
        quote(SCHEMA),
        env.join(","),
        sections.join(",\n")
    )
}

/// One workload of a parsed `results.json`, over all its rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDoc {
    /// Workload name.
    pub name: String,
    /// One sample per round of every end-to-end metric, in catalog
    /// order.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// The largest failed share of any round.
    pub fail_ratio: f64,
    /// `(sim, digest)` per simulation, from the first round.
    pub digests: Vec<(String, String)>,
    /// Whether every round produced the first round's digests.
    pub rounds_agree: bool,
}

/// Parses `results.json`, grouping rounds by workload. Every malformed
/// or foreign document is an `Err`, never a panic.
///
/// # Errors
///
/// Describes the first problem found.
pub fn parse_results(text: &str) -> Result<Vec<WorkloadDoc>, String> {
    if text.len() > MAX_BYTES {
        return Err(format!("document larger than {MAX_BYTES} bytes"));
    }
    if nesting_depth(text) > MAX_DEPTH {
        return Err(format!("document nested deeper than {MAX_DEPTH} levels"));
    }
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(Value::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let sections = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("missing \"workloads\" array")?;
    let mut out: Vec<WorkloadDoc> = Vec::new();
    for round in sections.iter().map(parse_round) {
        let round = round?;
        match out.iter_mut().find(|w| w.name == round.name) {
            Some(w) => {
                for ((_, samples), (_, more)) in w.end_to_end.iter_mut().zip(round.end_to_end) {
                    samples.extend(more);
                }
                w.fail_ratio = w.fail_ratio.max(round.fail_ratio);
                w.rounds_agree &= w.digests == round.digests;
            }
            None => out.push(round),
        }
    }
    Ok(out)
}

fn parse_round(w: &Value) -> Result<WorkloadDoc, String> {
    let name = w
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("section without a \"workload\" name")?
        .to_string();
    let finite = |v: Option<&Value>, what: &str| match v {
        Some(Value::Num(n)) if n.is_finite() => Ok(*n),
        _ => Err(format!("{name}: {what} is not a finite number")),
    };
    let e2e = w
        .get("end_to_end")
        .ok_or(format!("{name}: missing \"end_to_end\""))?;
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let v = finite(e2e.get(m.name).and_then(|v| v.get("value")), m.name)?;
            Ok((m.name.to_string(), vec![v]))
        })
        .collect::<Result<_, String>>()?;
    let fail_ratio = finite(w.get("fail_ratio"), "fail_ratio")?;
    if !(0.0..=1.0).contains(&fail_ratio) {
        return Err(format!("{name}: fail_ratio {fail_ratio} outside [0, 1]"));
    }
    let digests = w
        .get("sims")
        .and_then(Value::as_arr)
        .ok_or(format!("{name}: missing \"sims\""))?
        .iter()
        .map(|s| {
            let field = |k: &str| s.get(k).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("digest"))
                .ok_or(format!("{name}: sim without name or digest"))
        })
        .collect::<Result<_, _>>()?;
    Ok(WorkloadDoc {
        name,
        end_to_end,
        fail_ratio,
        digests,
        rounds_agree: true,
    })
}

/// Maximum `[`/`{` nesting of `text`, ignoring brackets in strings.
fn nesting_depth(text: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0usize, false, false);
    for b in text.bytes() {
        if in_str {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => {
                depth += 1;
                max = max.max(depth);
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}

/// `v` to six significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 6);
    format!("{v:.*}", decimals as usize)
}

/// How a metric moved from one set of rounds to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound and neither side won every round.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on samples `b` against baseline samples `a`.
///
/// When either side's quartile spread exceeds `bound`, the medians
/// cannot be trusted to `bound`: the verdict is improved or regressed
/// only if every `b` sample beats (or loses to) every `a` sample, and
/// unresolved otherwise. Else the change of the median decides.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if sa.spread().max(sb.spread()) > bound {
        return if b.iter().all(|&y| a.iter().all(|&x| beats(y, x))) {
            Verdict::Improved
        } else if b.iter().all(|&y| a.iter().all(|&x| beats(x, y))) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let change = if sa.median == 0.0 {
        0.0
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two parsed result sets; returns the report and whether
/// every metric is unchanged or improved, B has no failures, and the
/// model output is identical and repeatable.
pub fn compare(a: &[WorkloadDoc], b: &[WorkloadDoc]) -> (String, bool) {
    let mut out = format!(
        "{:<12} {:<13} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "A median [q1, q3] rounds",
        "B median [q1, q3] rounds",
        "change",
        "bound"
    );
    let mut ok = true;
    let fmt = |s: &Summary| format!("{} [{}, {}] {}", sig(s.median), sig(s.q1), sig(s.q3), s.n);
    let mut digest_lines = Vec::new();
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            out.push_str(&format!("{:<12} missing from B\n", wa.name));
            ok = false;
            continue;
        };
        for ((metric, sa), (_, sb)) in wa.end_to_end.iter().zip(&wb.end_to_end) {
            let m = catalog::end_to_end(metric).expect("parsed metrics come from the catalog");
            let v = verdict(sa, sb, m.better, m.bound);
            ok &= matches!(v, Verdict::Unchanged | Verdict::Improved);
            let (xa, xb) = (Summary::of(sa), Summary::of(sb));
            out.push_str(&format!(
                "{:<12} {:<13} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {}\n",
                wa.name,
                metric,
                fmt(&xa),
                fmt(&xb),
                (xb.median / xa.median - 1.0) * 100.0,
                m.bound * 100.0,
                v.label()
            ));
        }
        // Any failure is a regression: the bound is 0, absolute.
        let v = if wb.fail_ratio > wa.fail_ratio {
            Verdict::Regressed
        } else if wb.fail_ratio < wa.fail_ratio {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        ok &= wb.fail_ratio == 0.0;
        out.push_str(&format!(
            "{:<12} {:<13} {:>34} {:>34} {:>8} {:>6}  {}\n",
            wa.name,
            "fail_ratio",
            wa.fail_ratio,
            wb.fail_ratio,
            "",
            "0",
            v.label()
        ));
        for (side, w) in [("A", wa), ("B", wb)] {
            if !w.rounds_agree {
                digest_lines.push(format!(
                    "model output differs between the rounds of {side}: {}",
                    w.name
                ));
            }
        }
        for (sim, da) in &wa.digests {
            let db = wb
                .digests
                .iter()
                .find(|(s, _)| s == sim)
                .map(|(_, d)| d.as_str());
            if db != Some(da.as_str()) {
                digest_lines.push(format!(
                    "model output changed: {} {sim}: {da} -> {}",
                    wa.name,
                    db.unwrap_or("(missing)")
                ));
            }
        }
    }
    for wb in b.iter().filter(|wb| !a.iter().any(|wa| wa.name == wb.name)) {
        out.push_str(&format!("{:<12} missing from A\n", wb.name));
        ok = false;
    }
    if digest_lines.is_empty() {
        let n: usize = a.iter().map(|w| w.digests.len()).sum();
        out.push_str(&format!(
            "model output: all {n} per-sim digests identical\n"
        ));
    } else {
        ok = false;
        for line in digest_lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::SimRecord;

    fn outcome(wall: f64) -> Outcome {
        Outcome {
            attempted: 12,
            failed: 0,
            end_to_end: END_TO_END.iter().map(|m| (m.name, wall)).collect(),
            iteration_wall_s: vec![1.0, 1.25],
            clock_scale: 1.0,
            per_layer: vec![("apps.data.ms", 74.5)],
            self_ms_raw: -0.5,
            sims: vec![SimRecord {
                name: "grep/active \"quoted\"".to_string(),
                out: None,
                run_s: vec![0.5, 0.75],
            }],
            spans: Vec::new(),
        }
    }

    fn results(walls: &[f64]) -> String {
        let sections: Vec<String> = walls
            .iter()
            .map(|w| workload_json("chaos", 7, &outcome(*w)))
            .collect();
        results_json(7, &[("nproc", "2".to_string())], &sections)
    }

    #[test]
    fn results_round_trip_and_group_rounds_by_workload() {
        let docs = parse_results(&results(&[1.5, 1.25, 1.75])).expect("round trip");
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].name, "chaos");
        assert_eq!(docs[0].end_to_end.len(), END_TO_END.len());
        assert_eq!(
            docs[0].end_to_end[0],
            ("wall_s".to_string(), vec![1.5, 1.25, 1.75])
        );
        assert_eq!(docs[0].fail_ratio, 0.0);
        assert_eq!(
            docs[0].digests,
            vec![("grep/active \"quoted\"".to_string(), "failed".to_string())]
        );
        assert!(docs[0].rounds_agree);
    }

    #[test]
    fn malformed_and_foreign_documents_are_errors() {
        let good = results(&[1.5]);
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let bad = [
            String::new(),
            "not json".to_string(),
            "{}".to_string(),
            "{\"schema\":\"bench-perf-v2\",\"workloads\":[]}".to_string(),
            "{\"schema\":\"asan-benchmark-v1\"}".to_string(),
            "{\"schema\":\"asan-benchmark-v1\",\"workloads\":[{}]}".to_string(),
            "{\"schema\":\"asan-benchmark-v1\",\"workloads\":[1]}".to_string(),
            good.replacen("\"value\":1.5", "\"value\":\"x\"", 1),
            good.replacen("\"value\":1.5", "\"value\":1e999", 1),
            good.replacen("\"value\":1.5", "\"value\":null", 1),
            good.replace("\"fail_ratio\":0", "\"fail_ratio\":2"),
            good.replace("\"digest\":\"failed\"", "\"digest\":3"),
            good.replace("\"end_to_end\"", "\"e2e\""),
            good[..good.len() / 2].to_string(),
            deep,
        ];
        for (i, text) in bad.iter().enumerate() {
            assert!(parse_results(text).is_err(), "case {i} parsed");
        }
        assert!(parse_results(&good).is_ok());
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.01, 1.00, 0.99, 1.02, 1.00];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let lower = Better::Lower;
        assert_eq!(verdict(&base, &same, lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &slower, lower, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&base, &faster, lower, 0.1), Verdict::Improved);
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        // Spread wider than the bound: only a clean sweep decides.
        let noisy = [0.7, 1.0, 1.3, 0.8, 1.2];
        assert_eq!(verdict(&base, &noisy, lower, 0.1), Verdict::Unresolved);
        let noisy_slow = [2.0, 3.0, 4.0, 2.5, 3.5];
        assert_eq!(verdict(&base, &noisy_slow, lower, 0.1), Verdict::Regressed);
        let noisy_fast = [0.2, 0.5, 0.8, 0.3, 0.6];
        assert_eq!(verdict(&base, &noisy_fast, lower, 0.1), Verdict::Improved);
    }

    #[test]
    fn compare_flags_changed_and_unrepeatable_model_output() {
        let a = parse_results(&results(&[1.0, 1.0])).unwrap();
        let (report, ok) = compare(&a, &a);
        assert!(ok, "{report}");
        assert!(
            report.contains("all 1 per-sim digests identical"),
            "{report}"
        );

        let mut b = a.clone();
        b[0].digests[0].1 = "0000000000000001".to_string();
        let (report, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(report.contains("model output changed: chaos"), "{report}");

        let mut b = a.clone();
        b[0].rounds_agree = false;
        let (report, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(
            report.contains("differs between the rounds of B"),
            "{report}"
        );

        let slower = parse_results(&results(&[1.5, 1.5])).unwrap();
        let (report, ok) = compare(&a, &slower);
        assert!(!ok);
        assert!(report.contains("regressed"), "{report}");
    }
}
