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
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("perf")
        .output()
        .expect("spawn repro");
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
    let golden = |envs: &[(&str, &str)]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--small", "golden"])
            .envs(envs.iter().copied())
            .output()
            .expect("spawn repro")
    };

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
