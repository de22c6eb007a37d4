//! Schema check for the committed `BENCH_*.json` trajectory files.
//!
//! Every PR leaves machine-readable benchmark sections behind; a bench
//! refactor that stops emitting (or silently renames) a section would cut
//! the throughput/latency trajectory future PRs compare against. This
//! test parses the committed files at the repo root and asserts the
//! expected sections and their load-bearing fields exist. CI runs it
//! twice: strictly against the committed reports (including the
//! quantitative acceptance floors), then with `ARC_SCHEMA_LENIENT=1`
//! against the reports the bench-smoke job just regenerated (structure
//! still enforced; the timing-sensitive parity floor is waived for
//! noisy quick-profile boxes).

use std::path::PathBuf;

use arc_bench::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn load(name: &str) -> Json {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed at the repo root: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
}

/// The section must be a non-empty array of objects each carrying `keys`.
fn check_rows(doc: &Json, file: &str, section: &str, keys: &[&str]) {
    let Some(Json::Arr(rows)) = doc.get(section) else {
        panic!("{file}: section {section:?} missing or not an array");
    };
    assert!(!rows.is_empty(), "{file}: section {section:?} is empty");
    for (i, row) in rows.iter().enumerate() {
        for key in keys {
            assert!(row.get(key).is_some(), "{file}: {section}[{i}] lacks the {key:?} field");
        }
    }
}

fn check_object(doc: &Json, file: &str, section: &str, keys: &[&str]) -> Json {
    let Some(obj @ Json::Obj(_)) = doc.get(section) else {
        panic!("{file}: section {section:?} missing or not an object");
    };
    for key in keys {
        assert!(obj.get(key).is_some(), "{file}: {section} lacks the {key:?} field");
    }
    obj.clone()
}

#[test]
fn bench_ops_sections_conform() {
    let file = "BENCH_ops.json";
    let doc = load(file);
    assert_eq!(doc.get("schema"), Some(&Json::str("arc-bench/ops/v1")), "{file}: schema marker");
    check_rows(&doc, file, "fig1", &["algo", "threads", "size", "mops", "std", "ops_per_sec"]);
    check_rows(
        &doc,
        file,
        "mn_scaling",
        &[
            "writers",
            "readers",
            "trials",
            "read_mops",
            "read_std",
            "write_mops",
            "write_std",
            "ops_per_sec",
            "std",
        ],
    );
    let inline = check_object(
        &doc,
        file,
        "inline_vs_arena",
        &["size_bytes", "inline_ops_per_sec", "arena_ops_per_sec", "speedup"],
    );
    // Counters are always on, so the measured R2 hit rate is never null.
    let hit = inline.get("fast_path_hit_rate").and_then(Json::as_f64);
    assert!(hit.is_some_and(|h| h > 0.0), "{file}: inline_vs_arena.fast_path_hit_rate {hit:?}");

    // MN-on-slab: the density comparison is exact heap accounting
    // (deterministic), so its acceptance floor — slab footprint ≤ 1/4 of
    // the standalone composition at M = 8 — is enforced even for freshly
    // regenerated reports.
    let mn_density = check_object(
        &doc,
        file,
        "mn_density",
        &["writers", "readers", "slab_bytes", "standalone_bytes", "ratio"],
    );
    let mn_ratio =
        mn_density.get("ratio").and_then(Json::as_f64).expect("mn density ratio is numeric");
    assert!(
        mn_ratio >= 4.0,
        "{file}: MN slab density ratio {mn_ratio} fell below the 4x acceptance floor"
    );
    let m = mn_density.get("writers").and_then(Json::as_f64).expect("writer count numeric");
    assert_eq!(m, 8.0, "{file}: mn_density must be measured at the acceptance point M = 8");

    // The multi-writer table workload (W roles × K cells on one slab).
    check_rows(
        &doc,
        file,
        "mn_table",
        &[
            "writers",
            "registers",
            "dist",
            "ops_per_sec",
            "read_p50_ns",
            "read_p99_ns",
            "write_p50_ns",
            "write_p99_ns",
            "bytes_per_register",
        ],
    );

    // The group_scaling section: scaling points + density + parity.
    let group =
        check_object(&doc, file, "group_scaling", &["points", "density", "fast_path_parity"]);
    check_rows(
        &group,
        file,
        "points",
        &["registers", "dist", "ops_per_sec", "read_p50_ns", "read_p99_ns", "bytes_per_register"],
    );
    let density = check_object(
        &group,
        file,
        "density",
        &["registers", "group_bytes_per_register", "independent_bytes_per_register", "ratio"],
    );
    let parity = check_object(
        &group,
        file,
        "fast_path_parity",
        &["single_register_mops", "group_register_mops", "ratio"],
    );

    // The zero-copy guard section (E12): guard vs copying reads at the
    // fig1 sizes. Missing section, missing rows or flat-zero numbers all
    // fail — a refactor that stops measuring the guard path must not
    // silently keep a well-formed report.
    check_rows(
        &doc,
        file,
        "zero_copy",
        &[
            "algo",
            "size",
            "zero_copy",
            "guard_mops",
            "copy_mops",
            "guard_gbps",
            "copy_gbps",
            "speedup",
        ],
    );
    let Some(Json::Arr(zc_rows)) = doc.get("zero_copy") else { unreachable!() };
    for (i, row) in zc_rows.iter().enumerate() {
        let g = row.get("guard_mops").and_then(Json::as_f64).expect("guard_mops numeric");
        let c = row.get("copy_mops").and_then(Json::as_f64).expect("copy_mops numeric");
        assert!(g > 0.0 && c > 0.0, "{file}: zero_copy[{i}] carries flat-zero throughput");
    }
    let arc_4k = zc_rows
        .iter()
        .find(|row| {
            row.get("algo") == Some(&Json::str("arc"))
                && row.get("size").and_then(Json::as_f64) == Some(4096.0)
        })
        .unwrap_or_else(|| panic!("{file}: zero_copy lacks the arc 4096 B acceptance row"));
    let speedup = arc_4k.get("speedup").and_then(Json::as_f64).expect("speedup numeric");
    // The acceptance floor: guard reads ≥ 2x copying reads at the 4096 B
    // fig1 size. Timing-sensitive, so — like the parity floors — it binds
    // strictly against the committed report only.
    if std::env::var_os("ARC_SCHEMA_LENIENT").is_none() {
        assert!(
            speedup >= 2.0,
            "{file}: arc guard reads at {speedup}x of copying reads at 4096 B (floor 2.0)"
        );
    }

    // The acceptance floors of the slab layout: ≥ 4x density win,
    // hot-path parity within 20%. Enforced strictly against the
    // *committed* report (CI runs this test before regenerating);
    // `ARC_SCHEMA_LENIENT=1` skips only the timing-sensitive parity
    // floor for reports freshly rewritten on a noisy quick-profile CI
    // box (the density ratio is deterministic accounting and always
    // enforced).
    let ratio = density.get("ratio").and_then(Json::as_f64).expect("density ratio is numeric");
    assert!(ratio >= 4.0, "{file}: density ratio {ratio} fell below the 4x acceptance floor");
    let parity_ratio = parity.get("ratio").and_then(Json::as_f64).expect("parity ratio numeric");
    if std::env::var_os("ARC_SCHEMA_LENIENT").is_none() {
        assert!(
            parity_ratio >= 0.8,
            "{file}: group fast path at {parity_ratio}x of the single register (floor 0.8)"
        );
    }

    // The topology section (E15): the NUMA-sharded table under every
    // placement × page policy. Every row must record both what was
    // *requested* (placement, pages) and what the machine actually
    // *granted* (pages_effective, nodes, fallback) — a refactor that
    // silently drops the fallback accounting would make single-node CI
    // numbers indistinguishable from real multi-node ones.
    check_rows(
        &doc,
        file,
        "numa",
        &[
            "plan",
            "placement",
            "pages",
            "pages_effective",
            "threads",
            "registers",
            "shards",
            "nodes",
            "fallback",
            "local_key_fraction",
            "ops_per_sec",
            "read_mops",
            "write_mops",
            "pinned",
        ],
    );
    let Some(Json::Arr(numa_rows)) = doc.get("numa") else { unreachable!() };
    let placements: Vec<&str> = numa_rows
        .iter()
        .filter_map(|r| match r.get("placement") {
            Some(Json::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    for placement in ["local", "remote", "interleave"] {
        assert!(
            placements.contains(&placement),
            "{file}: numa section lacks the {placement:?} placement"
        );
    }
    let pages_of = |r: &Json| match r.get("pages") {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    for pages in ["base", "huge"] {
        assert!(
            numa_rows.iter().any(|r| pages_of(r) == pages),
            "{file}: numa section lacks the {pages:?} page policy"
        );
    }
    for (i, row) in numa_rows.iter().enumerate() {
        let ops = row.get("ops_per_sec").and_then(Json::as_f64).expect("ops numeric");
        assert!(ops > 0.0, "{file}: numa[{i}] carries flat-zero throughput");
        // Honest degradation: a "huge" request may fall back, but the
        // effective mode must then say so (thp or base, never hugetlb
        // unless requested and granted).
        let effective = match row.get("pages_effective") {
            Some(Json::Str(s)) => s.as_str(),
            _ => panic!("{file}: numa[{i}] pages_effective missing"),
        };
        assert!(
            matches!(effective, "base" | "thp" | "hugetlb"),
            "{file}: numa[{i}] unknown effective page mode {effective:?}"
        );
        if pages_of(row) == "base" {
            assert_eq!(
                effective, "base",
                "{file}: numa[{i}] base request cannot escalate to {effective:?}"
            );
        }
    }
    // The acceptance shape — local placement at least matching remote at
    // the top thread count — only exists on real multi-node hardware;
    // single-node rows record nodes = 1 and every placement degrades to
    // the same memory. Timing-sensitive, so committed reports only.
    let nodes = numa_rows[0].get("nodes").and_then(Json::as_f64).expect("nodes numeric");
    if nodes > 1.0 && std::env::var_os("ARC_SCHEMA_LENIENT").is_none() {
        let best = |placement: &str| -> f64 {
            numa_rows
                .iter()
                .filter(|r| {
                    r.get("placement") == Some(&Json::str(placement)) && pages_of(r) == "base"
                })
                .filter_map(|r| r.get("ops_per_sec").and_then(Json::as_f64))
                .fold(0.0, f64::max)
        };
        let (local, remote) = (best("local"), best("remote"));
        assert!(
            local >= remote * 0.9,
            "{file}: local placement ({local} ops/s) lost to remote ({remote} ops/s) on a \
             {nodes}-node machine"
        );
    }
}

#[test]
fn bench_ops_std_is_measured_not_fabricated() {
    // The seed report carried "std": 0 on every row (single-run points).
    // With >= 3 trials per point a flat-zero std column is statistically
    // implausible — reject it, per section and per std-carrying field,
    // so the fabrication cannot regress anywhere it was fixed.
    let doc = load("BENCH_ops.json");
    for (section, field) in [
        ("fig1", "std"),
        ("mn_scaling", "read_std"),
        ("mn_scaling", "write_std"),
        ("mn_scaling", "std"),
    ] {
        let Some(Json::Arr(rows)) = doc.get(section) else { panic!("{section} missing") };
        let stds: Vec<f64> =
            rows.iter().filter_map(|r| r.get(field).and_then(Json::as_f64)).collect();
        assert!(!stds.is_empty(), "{section} has no {field} values");
        assert!(
            stds.iter().any(|&s| s > 0.0),
            "every {section} {field} is exactly 0 — error bars are fabricated, not measured"
        );
    }
}

#[test]
fn bench_latency_sections_conform() {
    let file = "BENCH_latency.json";
    let doc = load(file);
    assert_eq!(
        doc.get("schema"),
        Some(&Json::str("arc-bench/latency/v1")),
        "{file}: schema marker"
    );
    check_rows(
        &doc,
        file,
        "read_latency",
        &["algo", "regime", "size", "samples", "p50_ns", "p99_ns", "p999_ns", "max_ns"],
    );
    check_rows(&doc, file, "microbench", &["bench", "algo", "size", "ns_per_op"]);

    // The watch-layer wake-latency section (E11): every row must carry
    // the wake quantiles and the coalescing accounting, and the watchers
    // must actually have woken — a notify refactor that silently stops
    // waking anyone would otherwise still emit a well-formed table.
    check_rows(
        &doc,
        file,
        "notify_latency",
        &[
            "algo",
            "watchers",
            "updates",
            "wakeups",
            "coalesced",
            "wake_p50_ns",
            "wake_p99_ns",
            "wake_p999_ns",
            "wake_max_ns",
        ],
    );
    let Some(arc_bench::Json::Arr(rows)) = doc.get("notify_latency") else { unreachable!() };
    for (i, row) in rows.iter().enumerate() {
        let wakeups = row.get("wakeups").and_then(Json::as_f64).expect("wakeups numeric");
        assert!(wakeups > 0.0, "{file}: notify_latency[{i}] recorded no wakeups");
        let p50 = row.get("wake_p50_ns").and_then(Json::as_f64).expect("p50 numeric");
        assert!(p50 > 0.0, "{file}: notify_latency[{i}] has an empty latency distribution");
    }

    // The MN read-scan comparison at M = 8: the acceptance criterion is
    // "slab p50 no worse than standalone". Timing-sensitive, so — like
    // the group fast-path parity floor — it binds strictly only against
    // the committed report; `ARC_SCHEMA_LENIENT=1` (regenerated reports
    // on noisy quick-profile CI boxes) checks structure only.
    let scan = check_object(
        &doc,
        file,
        "mn_read_scan",
        &[
            "writers",
            "slab_p50_ns",
            "slab_p99_ns",
            "standalone_p50_ns",
            "standalone_p99_ns",
            "p50_ratio",
        ],
    );
    let ratio = scan.get("p50_ratio").and_then(Json::as_f64).expect("scan ratio is numeric");
    if std::env::var_os("ARC_SCHEMA_LENIENT").is_none() {
        assert!(
            ratio <= 1.0,
            "{file}: MN slab read-scan p50 at {ratio}x of the standalone layout (must be <= 1.0)"
        );
    }

    // The crash-recovery cost section (E13): every crash point must have
    // been exercised against a real dead process, and each repair must
    // actually have found corpses — a recovery refactor that silently
    // stops classifying would otherwise still emit a table of zeros.
    check_rows(
        &doc,
        file,
        "recovery",
        &["registers", "crash_point", "attach_ns", "recover_ns", "writers_recovered", "pins_swept"],
    );
    let Some(arc_bench::Json::Arr(rows)) = doc.get("recovery") else { unreachable!() };
    let mut points: Vec<String> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if let Some(arc_bench::Json::Str(p)) = row.get("crash_point") {
            points.push(p.clone());
        }
        let writers = row.get("writers_recovered").and_then(Json::as_f64).expect("writers numeric");
        let pins = row.get("pins_swept").and_then(Json::as_f64).expect("pins numeric");
        assert!(writers > 0.0 || pins > 0.0, "{file}: recovery[{i}] repaired nothing");
        let recover = row.get("recover_ns").and_then(Json::as_f64).expect("recover_ns numeric");
        assert!(recover > 0.0, "{file}: recovery[{i}] has no measured repair time");
    }
    for point in ["pre_w2", "at_w2", "post_w2", "reader_pins"] {
        assert!(
            points.iter().any(|p| p == point),
            "{file}: recovery section lacks the {point:?} crash point"
        );
    }

    // The supervision section (E14): kill→detection latency, auto-recover
    // end-to-end time, and per-cycle scrub cost. Every metric must carry a
    // real (non-zero) latency distribution, the scrub sweep must reach the
    // K = 1M acceptance point, and healing can never be faster than the
    // detection it starts from.
    check_rows(
        &doc,
        file,
        "supervision",
        &["metric", "registers", "trials", "p50_ns", "max_ns", "per_register_ns"],
    );
    let Some(arc_bench::Json::Arr(rows)) = doc.get("supervision") else { unreachable!() };
    let p50_of = |metric: &str| -> f64 {
        rows.iter()
            .find(|r| r.get("metric") == Some(&Json::str(metric)))
            .unwrap_or_else(|| panic!("{file}: supervision lacks the {metric:?} metric"))
            .get("p50_ns")
            .and_then(Json::as_f64)
            .expect("supervision p50 numeric")
    };
    for (i, row) in rows.iter().enumerate() {
        let p50 = row.get("p50_ns").and_then(Json::as_f64).expect("p50 numeric");
        assert!(p50 > 0.0, "{file}: supervision[{i}] has an empty latency distribution");
    }
    let detect = p50_of("kill_to_detect");
    let healed = p50_of("kill_to_healed");
    assert!(
        healed >= detect,
        "{file}: supervision healed p50 {healed} ns beat its own detection p50 {detect} ns"
    );
    let scrub_at_1m = rows.iter().any(|r| {
        r.get("metric") == Some(&Json::str("scrub_cycle"))
            && r.get("registers").and_then(Json::as_f64).is_some_and(|k| k >= 1_000_000.0)
    });
    assert!(scrub_at_1m, "{file}: supervision scrub sweep never reached K = 1M");

    // The resilience section (E17): in-process panic→role-reclaimable
    // latency at every protocol point, plus the fault-hook ablation.
    // Every row must carry a real latency distribution, all three panic
    // points must have been exercised, and both ablation arms must be
    // present — a refactor that silently stops measuring the disarmed
    // (production) configuration would hide a fault-plane regression.
    check_rows(&doc, file, "resilience", &["metric", "trials", "p50_ns", "max_ns"]);
    let Some(arc_bench::Json::Arr(rows)) = doc.get("resilience") else { unreachable!() };
    for (i, row) in rows.iter().enumerate() {
        let p50 = row.get("p50_ns").and_then(Json::as_f64).expect("p50 numeric");
        assert!(p50 > 0.0, "{file}: resilience[{i}] has an empty latency distribution");
    }
    let metrics: Vec<&Json> = rows.iter().filter_map(|r| r.get("metric")).collect();
    for metric in [
        "panic_reclaim_pre_w2",
        "panic_reclaim_at_w2",
        "panic_reclaim_post_w2",
        "build_hooks_disarmed",
        "build_hooks_armed",
    ] {
        assert!(
            metrics.contains(&&Json::str(metric)),
            "{file}: resilience section lacks the {metric:?} metric"
        );
    }
}
