//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table rendered by `--emit-spec`; a unit test
//! keeps the two in step.

use pi2m::obs::json::Json;

/// Seed used when `--seed` is not given, and the one the recorded baseline
/// in the README was taken with.
pub const DEFAULT_SEED: u64 = 2012;
/// A seed not used while the benchmark was written; later issues re-check
/// their claims on it.
pub const HELD_OUT_SEED: u64 = 7151;
/// Length of one run's timed section, seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 25;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// Hard quality limits of the paper (radius-edge < 2, boundary planar angle
/// ≥ 30°), with the slack the seed commit achieves in floating point: its
/// worst recorded values are 1.9995 and 30.0002.
pub const RADIUS_EDGE_LIMIT: f64 = 2.0 + 1e-9;
pub const BOUNDARY_ANGLE_LIMIT_DEG: f64 = 30.0 - 1e-9;
/// Mesh volume must lie within this share of the image's foreground volume.
pub const VOLUME_TOLERANCE: f64 = 0.05;
/// `hausdorff_mm` may exceed the recorded reference by this factor.
pub const HAUSDORFF_SLACK: f64 = 1.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so run by the driver. The driver makes
    /// 4 + 22 runs per listed workload inside 3420 s, and the reference
    /// host's noise needs runs of 25 s to settle (README, "Steadiness"):
    /// that is room for four. The other three run by hand and with `--aa`.
    pub gated: bool,
}

use Better::{Higher, Lower};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "abdominal-1t",
        why: "Headline (paper Table 6): multi-tissue abdominal phantom, delta 1.0, one thread, R6 on; most of the wall is between ops and removals cost about half of it.",
        gated: true,
    },
    Workload {
        name: "abdominal-noR6-1t",
        why: "Same input with removals off: the insert/classify/oracle path with remove.rs bypassed, so a removal optimisation must leave it still.",
        gated: true,
    },
    Workload {
        name: "sphere-fine-1t",
        why: "One tissue, cache-resident 32^3 image, delta 0.5: the most kernel-bound input, where insert/predicate/scratch changes show.",
        gated: false,
    },
    Workload {
        name: "headneck-hires-coarse-1t",
        why: "Coarse preview (delta 4.0) of a full-resolution 208x208x184 image: the EDT is most of the wall and refinement little, the reverse of the others.",
        gated: false,
    },
    Workload {
        name: "abdominal-mt",
        why: "Interleaved 1-thread and T-thread runs on one warm session: the only workload where the speculative protocol, CM and balancer do work.",
        gated: true,
    },
    Workload {
        name: "knee-sharded",
        why: "Knee phantom meshed as 2x1x1 chunks on lane sessions then stitched from a seeded triangulation: the engine used through the seeded path.",
        gated: false,
    },
    Workload {
        name: "serve-mix",
        why: "Closed loop of .pim jobs over HTTP against an in-process MeshService: queue, image load, session slots, artifact spool and HTTP parser work only here.",
        gated: true,
    },
];

/// The end-to-end metrics. Every workload reports every one of them; the
/// README's scope table says how each is read on each workload.
///
/// The issue proposed 10% for the timings and rates and 15% for the two
/// with a tail or a quotient in them. The reference host does not hold
/// that: it is a two-core VM on a shared machine, where the same call
/// takes 1.25 s in one minute and 1.9 s in another, and ten consecutive
/// 10 s runs spread by 6% in a quiet spell and by 23% in a busy one (the
/// driver's first check refused that). Every metric that has a clock in
/// it therefore carries the widest bound the contract allows, and the
/// runs are made as steady as the host lets them be (README,
/// "Steadiness"). So does `peak_rss_mb`: what the allocator hands back
/// between a service's jobs moves the process's peak by 6-8% from run to
/// run. The quality metrics are deterministic at one thread and keep 10%.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "mesh_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tets_per_s",
        unit: "tets/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "parallel_efficiency",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "max_radius_edge",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "min_boundary_angle_deg",
        unit: "deg",
        better: Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "hausdorff_mm",
        unit: "mm",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "serve_latency_s_p50",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_latency_s_p90",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_jobs_per_s",
        unit: "jobs/s",
        better: Higher,
        bound: 0.25,
    },
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer ledger (layer = crate/module name before the first dot).
/// A metric whose layer does no work on a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // image
    pl("image.generate_s", "s", Lower),
    pl("image.voxels", "count", Lower),
    pl("image.pim_load_s", "s", Lower),
    // edt
    pl("edt.transform_s", "s", Lower),
    pl("edt.voxels_per_s", "1/s", Higher),
    pl("edt.stage_s", "s", Lower),
    // oracle
    pl("oracle.build_s", "s", Lower),
    pl("oracle.closest_point_ns", "ns", Lower),
    pl("oracle.segment_ns", "ns", Lower),
    pl("oracle.label_at_ns", "ns", Lower),
    // predicates
    pl("predicates.orient3d_ns", "ns", Lower),
    pl("predicates.insphere_sos_ns", "ns", Lower),
    pl("predicates.insphere_batch_ns_per_lane", "ns", Lower),
    pl("predicates.semi_static_hit_frac", "ratio", Higher),
    pl("predicates.exact_calls", "count", Lower),
    pl("predicates.batch_occupancy", "ratio", Higher),
    pl("predicates.batch_fallback_frac", "ratio", Lower),
    // delaunay
    pl("delaunay.insert_us", "us", Lower),
    pl("delaunay.locate_us", "us", Lower),
    pl("delaunay.walk_steps_per_locate", "count", Lower),
    pl("delaunay.cavity_cells_per_insert", "count", Lower),
    pl("delaunay.remove_us", "us", Lower),
    pl("delaunay.ball_cells_per_remove", "count", Lower),
    pl("delaunay.scratch_allocs", "count", Lower),
    // refine.rules
    pl("refine.classify_ns", "ns", Lower),
    pl("refine.classify_calls", "count", Lower),
    pl("refine.classify_calls_per_op", "ratio", Lower),
    pl("refine.r6_victims_us", "us", Lower),
    // refine.engine
    pl("refine.stage.load_s", "s", Lower),
    pl("refine.stage.edt_s", "s", Lower),
    pl("refine.stage.oracle_s", "s", Lower),
    pl("refine.stage.surface_recovery_s", "s", Lower),
    pl("refine.stage.volume_refinement_s", "s", Lower),
    pl("refine.stage.quality_s", "s", Lower),
    pl("refine.stage.extract_s", "s", Lower),
    pl("refine.stage_sum_frac", "ratio", Higher),
    pl("refine.ops_insertions", "count", Lower),
    pl("refine.ops_removals", "count", Lower),
    pl("refine.ops_skipped", "count", Lower),
    pl("refine.removal_frac", "ratio", Lower),
    pl("refine.cells_created", "count", Lower),
    pl("refine.op_committed_s", "s", Lower),
    pl("refine.between_ops_s", "s", Lower),
    pl("refine.rolled_back_s", "s", Lower),
    pl("refine.cm_park_s", "s", Lower),
    pl("refine.beg_park_s", "s", Lower),
    pl("refine.steal_donate_s", "s", Lower),
    pl("refine.rollbacks", "count", Lower),
    pl("refine.rollback_frac", "ratio", Lower),
    pl("refine.donations", "count", Lower),
    pl("refine.session_new_s", "s", Lower),
    // refine.shard
    pl("shard.split_s", "s", Lower),
    pl("shard.chunk_wall_s_sum", "s", Lower),
    pl("shard.chunk_wall_s_max", "s", Lower),
    pl("shard.lane_imbalance", "ratio", Lower),
    pl("shard.seed_points", "count", Lower),
    pl("shard.stitch_s", "s", Lower),
    pl("shard.stitch_ops", "count", Lower),
    // quality
    pl("quality.mesh_quality_s", "s", Lower),
    pl("quality.boundary_report_s", "s", Lower),
    pl("quality.hausdorff_s", "s", Lower),
    pl("quality.tets", "count", Lower),
    pl("quality.points", "count", Lower),
    pl("quality.over_bound_frac", "ratio", Lower),
    pl("quality.min_dihedral_deg", "deg", Higher),
    pl("quality.non_manifold_edges", "count", Lower),
    // meshio
    pl("meshio.write_vtk_s", "s", Lower),
    pl("meshio.vtk_bytes", "count", Lower),
    pl("meshio.write_vtk_mb_per_s", "MB/s", Higher),
    // serve
    pl("serve.submit_ms_p50", "ms", Lower),
    pl("serve.queue_wait_s_p50", "s", Lower),
    pl("serve.queue_wait_s_p90", "s", Lower),
    pl("serve.run_s_p50", "s", Lower),
    pl("serve.artifact_write_s_p50", "s", Lower),
    pl("serve.artifact_fetch_ms_p50", "ms", Lower),
    pl("serve.polls_per_job", "count", Lower),
    pl("serve.shed", "count", Lower),
    pl("serve.retries", "count", Lower),
    pl("serve.slot_busy_frac", "ratio", Higher),
    // obs and the harness's own tracing
    pl("obs.flight_overhead_frac", "ratio", Lower),
    pl("obs.flight_events", "count", Lower),
    pl("obs.flight_dropped", "count", Lower),
    pl("trace.overhead_frac", "ratio", Lower),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let mut s = Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::int(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
    .dump_pretty();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --emit-spec > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
