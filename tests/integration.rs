//! Cross-crate integration tests: whole-cluster runs at reduced sizes
//! for every benchmark and configuration, asserting the paper's
//! qualitative relationships and the simulator's global invariants.

use asan_apps::runner::{sweep, Variant};
use asan_apps::{grep, hashjoin, md5app, mpeg, psort, reduce, select, tar};
use asan_sim::SimTime;

type AppRunner = Box<dyn Fn(Variant) -> asan_apps::AppRun>;

/// Every app × every configuration runs to completion, produces a
/// consistent artifact, and keeps utilization within [0, 1].
#[test]
fn all_apps_all_variants_complete_with_sane_metrics() {
    let checks: Vec<(&str, AppRunner)> = vec![
        ("mpeg", Box::new(|v| mpeg::run(v, &mpeg::Params::small()))),
        (
            "select",
            Box::new(|v| select::run(v, &select::Params::small())),
        ),
        ("grep", Box::new(|v| grep::run(v, &grep::Params::small()))),
        ("tar", Box::new(|v| tar::run(v, &tar::Params::small()))),
    ];
    for (name, run) in checks {
        for v in Variant::ALL {
            let r = run(v);
            assert!(r.exec > SimTime::ZERO, "{name}/{v:?} zero exec");
            assert!(
                (0.0..=1.0).contains(&r.host_utilization),
                "{name}/{v:?} utilization {}",
                r.host_utilization
            );
            let b = r.host_breakdown;
            assert!(b.total().as_ps() > 0, "{name}/{v:?} empty breakdown");
            if v.is_active() {
                assert!(
                    !r.switch_breakdowns.is_empty(),
                    "{name}/{v:?} active run has no switch CPU accounting"
                );
            }
        }
    }
}

/// Prefetch never hurts: t(normal) ≥ t(normal+pref) and
/// t(active) ≥ t(active+pref), for every app (the paper's figures all
/// show this ordering).
#[test]
fn prefetch_never_slows_an_app_down() {
    let apps: Vec<(&str, AppRunner)> = vec![
        (
            "select",
            Box::new(|v| select::run(v, &select::Params::small())),
        ),
        ("grep", Box::new(|v| grep::run(v, &grep::Params::small()))),
        ("mpeg", Box::new(|v| mpeg::run(v, &mpeg::Params::small()))),
    ];
    for (name, run) in apps {
        let n = run(Variant::Normal).exec;
        let np = run(Variant::NormalPref).exec;
        let a = run(Variant::Active).exec;
        let ap = run(Variant::ActivePref).exec;
        // Tolerate sub-percent scheduling jitter.
        let slack = |t: SimTime| SimTime::from_ps(t.as_ps() + t.as_ps() / 100);
        assert!(np <= slack(n), "{name}: normal+pref {np} > normal {n}");
        assert!(ap <= slack(a), "{name}: active+pref {ap} > active {a}");
    }
}

/// Active filtering reduces host I/O traffic for the filtering apps
/// (Select, Grep, HashJoin, MPEG) — the paper's central claim.
#[test]
fn active_reduces_host_traffic_for_filtering_apps() {
    let s = sweep(|v| select::run(v, &select::Params::small()));
    let g = sweep(|v| grep::run(v, &grep::Params::small()));
    for runs in [&s, &g] {
        let normal = runs.iter().find(|r| r.variant == Variant::Normal).unwrap();
        let active = runs.iter().find(|r| r.variant == Variant::Active).unwrap();
        assert!(
            active.host_traffic < normal.host_traffic,
            "active {} >= normal {}",
            active.host_traffic,
            normal.host_traffic
        );
    }
}

/// Tar's active case keeps the host out of the data path entirely.
#[test]
fn tar_active_bypasses_host() {
    let p = tar::Params::small();
    let normal = tar::run(Variant::Normal, &p);
    let active = tar::run(Variant::Active, &p);
    assert!(active.host_traffic * 50 < normal.host_traffic);
    assert!(active.host_utilization < 0.05);
}

/// HashJoin: every configuration computes the same (validated) result,
/// and the active filter removes most of S.
#[test]
fn hashjoin_consistency() {
    let p = hashjoin::Params::small();
    let runs = sweep(|v| hashjoin::run(v, &p));
    let m = runs[0].artifact;
    for r in &runs {
        assert_eq!(r.artifact, m);
    }
}

/// Parallel sort conserves records and cuts per-node traffic.
#[test]
fn psort_conservation_and_traffic() {
    let p = psort::Params::small();
    let normal = psort::run(Variant::NormalPref, &p);
    let active = psort::run(Variant::ActivePref, &p);
    assert_eq!(normal.artifact, active.artifact);
    assert!(active.host_traffic < normal.host_traffic);
}

/// MD5 digests are bit-exact in every configuration, and the
/// single-switch-CPU active case loses to the host (the paper's
/// "unsuccessful partitioning").
#[test]
fn md5_correct_and_slow_on_one_switch_cpu() {
    let p = md5app::Params::small();
    let n = md5app::run(Variant::NormalPref, &p);
    let a = md5app::run(Variant::ActivePref, &p);
    assert!(a.exec > n.exec, "active {} vs normal {}", a.exec, n.exec);
}

/// Reductions: active beats normal once the tree grows, and results
/// are validated lane-by-lane inside `reduce::run`.
#[test]
fn reduction_scaling_shape() {
    let n8 = reduce::run(reduce::Mode::ReduceToOne, false, 8);
    let a8 = reduce::run(reduce::Mode::ReduceToOne, true, 8);
    let n16 = reduce::run(reduce::Mode::ReduceToOne, false, 16);
    let a16 = reduce::run(reduce::Mode::ReduceToOne, true, 16);
    assert!(
        a8.latency < n8.latency,
        "p=8: {} vs {}",
        a8.latency,
        n8.latency
    );
    let s8 = n8.latency.as_ps() as f64 / a8.latency.as_ps() as f64;
    let s16 = n16.latency.as_ps() as f64 / a16.latency.as_ps() as f64;
    assert!(
        s16 > s8 * 0.9,
        "speedup should not collapse with scale: {s8} -> {s16}"
    );
}

/// A mistyped or retired experiment name (`perf` was removed) must fail
/// the `repro` run, not print a warning and exit 0.
#[test]
fn repro_rejects_unknown_experiment() {
    let out = repro(&["perf"], &[]);
    assert!(!out.status.success(), "`perf` exited {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: perf"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}

/// `ASAN_SNAPSHOT_LOAD` naming a directory that does not exist fails
/// the run instead of silently running plain, and `ASAN_SNAPSHOT_SAVE`
/// creates a missing directory instead of failing to write into it.
#[test]
fn snapshot_load_and_save_directories_are_symmetric() {
    let base = std::env::temp_dir().join(format!("asan-snapdirs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let missing = base.join("missing");
    let out = golden(&[("ASAN_SNAPSHOT_LOAD", missing.to_str().unwrap())]);
    assert!(!out.status.success(), "a missing LOAD dir must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ASAN_SNAPSHOT_LOAD"), "{stderr}");

    let nested = base.join("a").join("b");
    let out = golden(&[
        ("ASAN_SNAPSHOT_EVENTS", "10"),
        ("ASAN_SNAPSHOT_SAVE", nested.to_str().unwrap()),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a missing SAVE dir is created: {stderr}"
    );
    let runs = String::from_utf8_lossy(&out.stdout).lines().count();
    let snaps = std::fs::read_dir(&nested).map_or(0, Iterator::count);
    assert_eq!(snaps, runs, "one snapshot per golden run");
    let _ = std::fs::remove_dir_all(&base);
}

/// Runs `repro <args>` under `envs`.
fn repro(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn repro")
}

/// [`repro`]'s stdout, failing on a non-zero exit.
fn repro_ok(args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = repro(args, envs);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro {args:?} {envs:?}: {stderr}");
    String::from_utf8(out.stdout).expect("repro output is UTF-8")
}

/// Runs `repro --small golden` under `envs`.
fn golden(envs: &[(&str, &str)]) -> std::process::Output {
    repro(&["--small", "golden"], envs)
}

/// Runs of one benchmark under several configurations (the ablations'
/// hardware variants, chaos's faulted twins) each get their own run
/// tag: every run writes its own trace file, and a snapshot saved
/// under one configuration is never restored into another.
#[test]
fn every_configuration_gets_its_own_run_tag() {
    let base = std::env::temp_dir().join(format!("asan-configtags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let template = |leg: &str| format!("{}/{leg}/{{tag}}.jsonl", base.display());
    let files = |leg: &str| std::fs::read_dir(base.join(leg)).map_or(0, Iterator::count);

    let plain = repro_ok(&["--small", "ablations"], &[]);
    assert!(plain.contains("overlap on : 10.816us"), "{plain}");
    assert!(plain.contains("overlap off: 10.936us"), "{plain}");
    let traced = repro_ok(
        &["--small", "ablations"],
        &[("ASAN_TRACE", &template("ablations"))],
    );
    assert_eq!(traced, plain, "tracing changed the ablations");
    // 3 Reduce-to-one, 4 D-cache and 4 switch-clock runs.
    assert_eq!(files("ablations"), 11, "one trace file per ablation run");
    repro_ok(&["--small", "chaos"], &[("ASAN_TRACE", &template("chaos"))]);
    // Grep, Select and HashJoin clean and under chaos; Reduce clean and trapped.
    assert_eq!(files("chaos"), 8, "one trace file per chaos run");

    let snaps = base.join("snaps");
    let snaps = snaps.to_str().unwrap();
    let saved = repro_ok(
        &["--small", "ablations"],
        &[
            ("ASAN_SNAPSHOT_EVENTS", "10"),
            ("ASAN_SNAPSHOT_SAVE", snaps),
        ],
    );
    assert_eq!(saved, plain, "an in-process restore changed the ablations");
    let loaded = repro_ok(&["--small", "ablations"], &[("ASAN_SNAPSHOT_LOAD", snaps)]);
    assert_eq!(
        loaded, plain,
        "each configuration restores its own snapshot"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// The run tag `runner::drive` substitutes for `{tag}`, per line of the
/// small golden output (`<benchmark> <config> <digest>`), in order.
fn golden_run_tags(golden: &str) -> Vec<String> {
    golden
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let (name, config) = (fields.next().unwrap(), fields.next().unwrap());
            match name {
                "md5" => format!("md5-{config}-cpu1"),
                "reduce-to-one" | "distributed-reduce" => format!("{name}-{config}-p8"),
                _ => format!("{name}-{config}"),
            }
        })
        .collect()
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// An `ASAN_TRACE` template gives every golden run its own file, and
/// the files are byte-identical whatever the worker count and whether
/// the run paused for an in-process snapshot/restore: a run's trace
/// depends only on the run.
#[test]
fn trace_template_writes_one_file_per_run_at_any_worker_count() {
    let base = std::env::temp_dir().join(format!("asan-tracefiles-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let template = |leg: &str| format!("{}/{leg}/{{tag}}.jsonl", base.display());
    let serial = repro_ok(
        &["--small", "golden"],
        &[("ASAN_JOBS", "1"), ("ASAN_TRACE", &template("serial"))],
    );
    let parallel = repro_ok(
        &["--small", "golden"],
        &[("ASAN_JOBS", "4"), ("ASAN_TRACE", &template("parallel"))],
    );
    let paused = repro_ok(
        &["--small", "golden"],
        &[
            ("ASAN_SNAPSHOT_EVENTS", "10"),
            ("ASAN_TRACE", &template("paused")),
        ],
    );
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden_digests.txt"
    ))
    .expect("committed golden digests");
    for out in [&serial, &parallel, &paused] {
        assert_eq!(out, &committed, "tracing changed a digest");
    }

    let tags = golden_run_tags(&serial);
    assert_eq!(tags.len(), 18);
    let mut all = Vec::new();
    for leg in ["serial", "parallel", "paused"] {
        let files = std::fs::read_dir(base.join(leg))
            .expect("trace dir")
            .count();
        assert_eq!(files, tags.len(), "{leg}: one trace file per golden run");
    }
    for tag in &tags {
        let read = |leg: &str| {
            std::fs::read(base.join(leg).join(format!("{tag}.jsonl")))
                .unwrap_or_else(|e| panic!("{leg}/{tag}.jsonl: {e}"))
        };
        let trace = read("serial");
        assert!(!trace.is_empty(), "{tag}: empty trace");
        assert!(
            trace == read("parallel"),
            "{tag}: ASAN_JOBS=4 trace differs"
        );
        assert!(trace == read("paused"), "{tag}: paused run's trace differs");
        all.extend_from_slice(&trace);
    }
    // Concatenated in golden order, the per-run files are the single
    // file that a serial `ASAN_JOBS=1 ASAN_TRACE=one.jsonl` run wrote
    // when all runs appended to one trace: these are that file's size
    // and FNV-1a. A change to the model or the span format moves them.
    assert_eq!(
        (all.len(), fnv1a(&all)),
        (16_134_971, 0x0cf0_4965_02fe_f3b5)
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// A trace path without `{tag}` would make every run of one invocation
/// write the same file; it is rejected with a message naming the
/// variable.
#[test]
fn trace_path_without_tag_is_rejected() {
    let path = std::env::temp_dir().join(format!("asan-one-trace-{}.jsonl", std::process::id()));
    let out = golden(&[("ASAN_TRACE", path.to_str().unwrap())]);
    assert!(!out.status.success(), "a shared trace file must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ASAN_TRACE"), "{stderr}");
    assert!(!path.exists(), "no run may write the shared file");
}

/// The metrics and scale documents are read back from files, so their
/// parsers see bytes from outside the process: 1 000 seeded flips,
/// truncations and extensions of each real `repro` document must parse
/// or fail, never panic.
#[test]
fn document_parsers_survive_mutated_input() {
    type Parse = fn(&str) -> bool;
    let cases: [(&str, Parse); 2] = [
        ("metrics", |t| asan_bench::parse_metrics_doc(t).is_ok()),
        ("scale", |t| asan_bench::scale::parse_scale_doc(t).is_ok()),
    ];
    for (experiment, parses) in cases {
        let doc = repro_ok(&["--small", experiment, "--json"], &[]);
        assert!(parses(&doc), "{experiment}: the unmutated document parses");
        let mut rng = asan_sim::SimRng::from_label(experiment);
        let ok = (0..1_000)
            .filter(|_| {
                let bytes = asan_sim::mutate::mutate(&mut rng, doc.as_bytes());
                parses(&String::from_utf8_lossy(&bytes))
            })
            .count();
        assert!(
            (1..1_000).contains(&ok),
            "{experiment}: {ok} of 1 000 mutations parsed; both outcomes must occur"
        );
    }
}
