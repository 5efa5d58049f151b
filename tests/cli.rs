//! The `pi2m` binary refuses options its subcommand does not read, mesh
//! options out of their bounds, and outputs it may not write: an error
//! naming the option or path, before any input is loaded or meshed. One
//! `pi2m mesh` call meshes one input or many.

use pi2m::obs::json::Json;
use std::process::Command;

fn pi2m(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pi2m"))
        .args(args)
        .output()
        .expect("pi2m runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn mesh_refuses_live() {
    let (code, stderr) = pi2m(&["mesh", "phantom:sphere", "--live"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--live"), "{stderr}");
}

#[test]
fn mesh_refuses_balancer() {
    let (code, stderr) = pi2m(&["mesh", "phantom:sphere", "--balancer", "hws"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--balancer"), "{stderr}");
}

/// One contention manager, Local-CM: `--cm` is gone.
#[test]
fn mesh_refuses_cm() {
    let (code, stderr) = pi2m(&["mesh", "phantom:sphere", "--cm", "local"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--cm"), "{stderr}");
}

/// The two shapes of a `mesh` call: one input, and several inputs over one
/// warm session.
const ONE_AND_MANY: [&[&str]; 2] = [
    &["mesh", "no-such-input.pim"],
    &["mesh", "no-such-input.pim", "no-such-other.pim"],
];

/// The recorder is always on: `--no-flight` is gone from `mesh`, for one
/// input or many.
#[test]
fn mesh_and_batch_refuse_no_flight() {
    for call in ONE_AND_MANY {
        let (code, stderr) = pi2m(&[call, &["--no-flight"]].concat());
        assert_eq!(code, Some(1), "{call:?}: {stderr}");
        assert!(stderr.contains("--no-flight"), "{call:?}: {stderr}");
    }
}

/// A `--halo` of any value is refused before the input loads (it does
/// not exist here, so loading it would exit 4), with or without
/// `--shards`: `mesh` no longer reads either option.
#[test]
fn mesh_refuses_a_halo_out_of_bounds() {
    for halo in ["4097", "18446744073709551614", "-1", "2.5"] {
        for shards in [&["--shards", "1x1x1"][..], &[]] {
            let mut args = vec!["mesh", "no-such-input.pim", "--halo", halo];
            args.extend(shards);
            let (code, stderr) = pi2m(&args);
            assert_eq!(code, Some(1), "--halo {halo}: {stderr}");
            assert!(stderr.contains("--halo"), "--halo {halo}: {stderr}");
        }
    }
}

/// `--halo` without `--shards` is refused too, instead of meshing and
/// ignoring it.
#[test]
fn mesh_refuses_a_halo_without_shards() {
    for input in ["phantom:sphere", "no-such-input.pim"] {
        let (code, stderr) = pi2m(&["mesh", input, "--halo", "3"]);
        assert_eq!(code, Some(1), "{input}: {stderr}");
        assert!(stderr.contains("--halo"), "{input}: {stderr}");
    }
}

/// One refinement per image: `--shards` and `--halo` are gone, and are
/// refused like any option `mesh` does not read.
#[test]
fn mesh_refuses_shards_and_halo() {
    for (flag, value) in [("--shards", "2x1x1"), ("--halo", "3")] {
        let (code, stderr) = pi2m(&["mesh", "phantom:sphere", flag, value]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

/// A fault plan naming a site that nothing fires would arm nothing, so
/// the drill is refused, naming the site, instead of testing nothing.
#[test]
fn a_fault_plan_with_an_unknown_site_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_pi2m"))
        .args(["mesh", "phantom:sphere", "--delta", "3"])
        .env(
            "PI2M_FAULT_PLAN",
            "site=lock.acquire,kind=deny,every=400,count=6",
        )
        .output()
        .expect("pi2m runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("'lock.acquire'"), "{stderr}");
}

/// The input does not exist, so a command that got as far as loading it
/// would exit 4 (I/O) instead.
#[test]
fn mesh_and_batch_refuse_bad_numbers_before_loading_input() {
    for (flag, value) in [
        ("--threads", "0"),
        ("--threads", "-2"),
        ("--delta", "0"),
        ("--delta", "inf"),
        ("--delta", "nan"),
        ("--size", "0"),
        ("--size", "-1"),
        ("--size", "nan"),
    ] {
        for call in ONE_AND_MANY {
            let (code, stderr) = pi2m(&[call, &[flag, value]].concat());
            assert_eq!(code, Some(1), "{call:?} {flag} {value}: {stderr}");
            assert!(stderr.contains(flag), "{call:?} {flag} {value}: {stderr}");
        }
    }
}

#[test]
fn bench_is_an_unknown_subcommand() {
    let (code, stderr) = pi2m(&["bench", "--quick"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("usage: pi2m <"), "{stderr}");
    assert!(!stderr.contains("bench"), "{stderr}");
}

/// A scale that is not a positive finite number is refused before any
/// image is built or written.
#[test]
fn phantom_refuses_bad_scale() {
    for value in ["0", "-1", "nan", "inf"] {
        let (code, stderr) = pi2m(&["phantom", "sphere", "no-such-dir/s.pim", "--scale", value]);
        assert_eq!(code, Some(1), "--scale {value}: {stderr}");
        assert!(stderr.contains("--scale"), "--scale {value}: {stderr}");
    }
}

/// A tiny positive scale is valid: the phantom is clamped to 8 voxels a side.
#[test]
fn phantom_clamps_tiny_scale() {
    let dir = std::env::temp_dir().join(format!("pi2m-cli-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("s.pim");
    let out = out.to_str().unwrap();
    let (code, stderr) = pi2m(&["phantom", "sphere", out, "--scale", "1e-9"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("8x8x8"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A δ near `f64::MAX` is valid but overflows the proximity query radius to
/// `inf`; the grid then visits each bucket once instead of walking an
/// unbounded cube of cells, so the run ends at once with no element: an
/// error naming δ, and no mesh written. A watchdog kills the child and
/// fails the test if it spins.
#[test]
fn mesh_with_huge_delta_terminates() {
    let dir = std::env::temp_dir().join(format!("pi2m-cli-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("m.vtk");
    let args = [
        "mesh",
        "phantom:sphere",
        "--delta",
        "1e308",
        "-o",
        out.to_str().unwrap(),
    ];
    let (code, stderr) = pi2m_watched(&args);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("no elements") && stderr.contains("at delta 1e308"),
        "{stderr}"
    );
    assert!(!out.exists(), "an empty mesh must not be written");
    std::fs::remove_dir_all(&dir).ok();
}

/// A huge δ is logged in a bounded width: the `mesh.start` line writes it
/// as `1e308`, in its message and in its `delta` field, not as 309 digits.
#[test]
fn mesh_start_line_writes_a_huge_delta_short() {
    let (code, stderr) = pi2m_watched(&["mesh", "phantom:sphere", "--delta", "1e308", "--log"]);
    assert_eq!(code, Some(1), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.contains("\"mesh.start\""))
        .unwrap_or_else(|| panic!("no mesh.start line: {stderr}"));
    assert!(line.contains("δ=1e308"), "{line}");
    assert!(line.contains("\"delta\":1e308"), "{line}");
    assert!(line.len() < 300, "{} bytes: {line}", line.len());
}

/// A run that converges to no element is an error naming δ, not an empty
/// VTK: an 8³ image with one foreground voxel keeps nothing at δ = 1, and
/// 34 tetrahedra at δ = 0.5.
#[test]
fn mesh_that_keeps_no_element_fails_naming_delta() {
    let dir = std::env::temp_dir().join(format!("pi2m-cli-voxel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("one.pim");
    let mut pim = b"PI2M-IMAGE 1\ndims 8 8 8\nspacing 1 1 1\norigin 0 0 0\ndata\n".to_vec();
    let mut voxels = vec![0u8; 512];
    voxels[4 + 8 * 4 + 64 * 4] = 1;
    pim.extend(voxels);
    std::fs::write(&image, pim).unwrap();
    let image = image.to_str().unwrap();

    let coarse = dir.join("coarse.vtk");
    let (code, stderr) = pi2m_watched(&[
        "mesh",
        image,
        "--delta",
        "1",
        "-o",
        coarse.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("no elements") && stderr.contains("at delta 1.0 "),
        "{stderr}"
    );
    assert!(!coarse.exists(), "an empty mesh must not be written");

    let fine = dir.join("fine.vtk");
    let (code, stderr) = pi2m_watched(&[
        "mesh",
        image,
        "--delta",
        "0.5",
        "-o",
        fine.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(fine.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `pi2m` with `args`, killing it and failing the test if it is still
/// running after 30 s; returns its exit code and stderr.
fn pi2m_watched(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pi2m"))
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("pi2m runs");
    let t0 = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if t0.elapsed() > std::time::Duration::from_secs(30) {
            child.kill().ok();
            child.wait().ok();
            panic!("pi2m {args:?} still running after 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    (status.code(), stderr)
}

/// A thread count past the cap (1024) is a usage error naming its flag,
/// refused before a pool thread is spawned: asked for 70 000, `mesh` used
/// to spawn threads until the process aborted.
#[test]
fn mesh_and_batch_refuse_absurd_thread_counts() {
    for call in [
        &["mesh", "phantom:sphere"][..],
        &["mesh", "phantom:sphere", "phantom:torus"],
    ] {
        let (code, stderr) =
            pi2m_watched(&[call, &["--threads", "70000", "--delta", "4"]].concat());
        assert_eq!(code, Some(1), "{call:?}: {stderr}");
        assert!(stderr.contains("--threads"), "{call:?}: {stderr}");
    }
}

/// `serve` refuses a `--sessions` or `--threads` past the cap before it
/// binds or spawns a slot, instead of spawning thousands of slot threads
/// whose pools then fail to spawn; and it refuses every count it cannot
/// honour as given.
#[test]
fn serve_refuses_absurd_session_and_thread_counts() {
    let spool = std::env::temp_dir().join(format!("pi2m-cli-serve-{}", std::process::id()));
    let spool = spool.to_str().unwrap();
    // a zero count, and a retry count outside a job spec's 0..=100 (2^32 + 1
    // must not wrap to one retry), are refused as given
    for (flag, value) in [
        ("--sessions", "70000"),
        ("--threads", "70000"),
        ("--sessions", "0"),
        ("--threads", "0"),
        ("--queue-cap", "0"),
        ("--max-retries", "4294967297"),
        ("--max-retries", "101"),
    ] {
        let args = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--spool",
            spool,
            flag,
            value,
        ];
        let (code, stderr) = pi2m_watched(&args);
        assert_eq!(code, Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
    assert!(
        !std::path::Path::new(spool).exists(),
        "serve made its spool"
    );
}

/// A fresh, empty directory for one test.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pi2m-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Several inputs on one `mesh` call each get the whole per-input path:
/// a deadline, the audit, and a run report, written as `<outdir>/<stem>.*`.
#[test]
fn mesh_of_many_inputs_audits_and_reports_each() {
    let dir = fresh_dir("many");
    let outdir = dir.join("multi");
    let outdir = outdir.to_str().unwrap();
    let (code, stderr) = pi2m_watched(&[
        "mesh",
        "phantom:sphere",
        "phantom:torus",
        "--delta",
        "3",
        "--threads",
        "2",
        "--deadline",
        "60s",
        "--audit",
        "--reports",
        "--outdir",
        outdir,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("mesh: 2/2 inputs"), "{stderr}");
    for stem in ["sphere", "torus"] {
        let vtk = std::fs::read_to_string(format!("{outdir}/{stem}.vtk")).unwrap();
        assert!(vtk.starts_with("# vtk"), "{stem}");
        let report = std::fs::read_to_string(format!("{outdir}/{stem}.report.json")).unwrap();
        let report = pi2m::obs::json::parse(&report).unwrap();
        assert_eq!(
            report.get("kind").and_then(Json::as_str),
            Some("run_report")
        );
        assert!(report.get("time_attribution").is_some(), "{stem}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--keep-going` meshes the inputs after a failed one, then exits with
/// the class of the first failure (4: the missing input).
#[test]
fn keep_going_meshes_the_rest_and_exits_with_the_first_failure() {
    let dir = fresh_dir("keep-going");
    let outdir = dir.to_str().unwrap();
    let (code, stderr) = pi2m_watched(&[
        "mesh",
        "no-such-input.pim",
        "phantom:sphere",
        "--delta",
        "4",
        "--keep-going",
        "--outdir",
        outdir,
    ]);
    assert_eq!(code, Some(4), "{stderr}");
    assert!(stderr.contains("mesh: 1/2 inputs"), "{stderr}");
    assert!(dir.join("sphere.vtk").exists(), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal writes every line: 15 inputs log 15 `mesh.result` lines,
/// however fast they come.
#[test]
fn every_input_logs_its_result_line() {
    let dir = fresh_dir("fifteen");
    let image = dir.join("s.pim");
    let (code, stderr) = pi2m(&[
        "phantom",
        "sphere",
        image.to_str().unwrap(),
        "--scale",
        "0.5",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let log = dir.join("log.jsonl");
    let mut args: Vec<String> = ["mesh", "--delta", "4", "--threads", "1"]
        .map(String::from)
        .into();
    args.push(format!("--outdir={}", dir.join("out").display()));
    args.push(format!("--log={}", log.display()));
    for i in 0..15 {
        let input = dir.join(format!("in{i}.pim"));
        std::fs::copy(&image, &input).unwrap();
        args.push(input.display().to_string());
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (code, stderr) = pi2m_watched(&args);
    assert_eq!(code, Some(0), "{stderr}");
    let log = std::fs::read_to_string(log).unwrap();
    let results = log
        .lines()
        .filter(|l| l.contains("\"event\":\"mesh.result\""))
        .count();
    assert_eq!(results, 15, "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An output that exists is refused (exit 4) before the input is meshed,
/// whichever flag names it, unless `--force` is given.
#[test]
fn an_existing_output_is_refused_before_meshing() {
    let dir = fresh_dir("clobber");
    let existing = dir.join("existing");
    std::fs::write(&existing, "keep me").unwrap();
    let existing = existing.to_str().unwrap();
    let fresh = dir.join("fresh.vtk");
    let fresh = fresh.to_str().unwrap();
    for flag in ["--report", "--trace-out", "--off"] {
        let (code, stderr) = pi2m(&["mesh", "phantom:sphere", "-o", fresh, flag, existing]);
        assert_eq!(code, Some(4), "{flag}: {stderr}");
        assert!(stderr.contains("pass --force"), "{flag}: {stderr}");
        assert!(!stderr.contains("meshing"), "{flag} meshed first: {stderr}");
        assert!(!std::path::Path::new(fresh).exists(), "{flag}");
    }
    let (code, stderr) = pi2m(&["mesh", "phantom:sphere", "-o", existing]);
    assert_eq!(code, Some(4), "-o: {stderr}");
    assert_eq!(std::fs::read_to_string(existing).unwrap(), "keep me");
    let (code, stderr) = pi2m(&[
        "mesh",
        "phantom:sphere",
        "--delta",
        "4",
        "-o",
        existing,
        "--force",
    ]);
    assert_eq!(code, Some(0), "--force: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Two inputs that would write one path are refused (exit 1), naming both,
/// and so are the one-input file flags on a call of several inputs.
#[test]
fn many_inputs_refuse_clashing_and_single_file_outputs() {
    for (a, b) in [
        ("phantom:sphere", "phantom:sphere"),
        ("a/knee.pim", "b/knee.pim"),
    ] {
        let (code, stderr) = pi2m(&["mesh", a, b]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains(a) && stderr.contains(b), "{stderr}");
        assert!(
            stderr.contains("knee.vtk") || stderr.contains("sphere.vtk"),
            "{stderr}"
        );
    }
    for flag in ["-o", "--off", "--report", "--trace-out"] {
        let (code, stderr) = pi2m(&["mesh", "a.pim", "b.pim", flag, "x"]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    let (code, stderr) = pi2m(&["mesh", "a.pim", "--outdir", "d", "--metrics"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--metrics"), "{stderr}");
    let (code, stderr) = pi2m(&["mesh", "a.pim", "--reports"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--reports"), "{stderr}");
}

/// A positional argument past the ones a command takes is refused (exit 1)
/// naming it, and `batch` is gone: `mesh` takes many inputs.
#[test]
fn surplus_positionals_and_batch_are_refused() {
    for args in [
        &["serve", "stray"][..],
        &["phantom", "sphere", "a.pim", "extra"],
        &["info", "a.pim", "extra"],
        &["analyze", "a.json", "b.json", "extra"],
        &["version", "extra"],
    ] {
        let (code, stderr) = pi2m_watched(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("'extra'") || stderr.contains("'stray'"),
            "{args:?}: {stderr}"
        );
    }
    let (code, stderr) = pi2m(&["batch", "phantom:sphere"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("usage: pi2m <"), "{stderr}");
}

/// A run its deadline kills exits 3 without writing its mesh, and names
/// the artifacts it did write: none unless a report or trace was asked for.
#[test]
fn a_deadline_killed_run_names_what_it_wrote() {
    let dir = fresh_dir("deadline");
    let vtk = dir.join("dd.vtk");
    let vtk = vtk.to_str().unwrap();
    let report = dir.join("r.json");
    let report = report.to_str().unwrap();
    let killed = ["mesh", "phantom:sphere", "--deadline", "1ms", "-o", vtk];
    let (code, stderr) = pi2m(&killed);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(
        stderr.contains("no run report or trace was requested"),
        "{stderr}"
    );
    assert!(!stderr.contains("artifacts written"), "{stderr}");
    let (code, stderr) = pi2m(&[&killed[..], &["--report", report]].concat());
    assert_eq!(code, Some(3), "{stderr}");
    assert!(
        stderr.contains(&format!("deadline); wrote {report}")),
        "{stderr}"
    );
    assert!(std::path::Path::new(report).exists());
    assert!(
        !std::path::Path::new(vtk).exists(),
        "a killed run wrote its mesh"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--stats` logs the mesh's quality line: its radius-edge ratio and its
/// Hausdorff distance.
#[test]
fn mesh_stats_logs_the_quality_line() {
    let dir = fresh_dir("stats");
    let vtk = dir.join("s.vtk");
    let (code, stderr) = pi2m_watched(&[
        "mesh",
        "phantom:sphere",
        "--delta",
        "3",
        "--threads",
        "1",
        "--stats",
        "-o",
        vtk.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("quality:"))
        .unwrap_or_else(|| panic!("no quality line: {stderr}"));
    assert!(line.contains("max radius-edge"), "{line}");
    assert!(line.contains("Hausdorff"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--no-removals` reaches the engine: the run report says so and counts
/// no removal, where the same run with removals on counts some.
#[test]
fn mesh_no_removals_reports_no_removals() {
    let dir = fresh_dir("no-removals");
    let report = |switch: Option<&str>, name: &str| {
        let (vtk, json) = (
            dir.join(format!("{name}.vtk")),
            dir.join(format!("{name}.json")),
        );
        let mut args = vec![
            "mesh",
            "phantom:sphere",
            "--delta",
            "3",
            "--threads",
            "1",
            "-o",
            vtk.to_str().unwrap(),
            "--report",
            json.to_str().unwrap(),
        ];
        args.extend(switch);
        let (code, stderr) = pi2m_watched(&args);
        assert_eq!(code, Some(0), "{stderr}");
        pi2m::obs::json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap()
    };
    let removals = |r: &Json| {
        let c = r.get("counters").unwrap();
        assert!(c.get("ops_insertions").is_some(), "no insertions counted");
        c.get("ops_removals").and_then(Json::as_f64)
    };
    let enabled = |r: &Json| {
        let c = r.get("config").unwrap().get("enable_removals");
        c.and_then(Json::as_str).map(str::to_string)
    };
    let on = report(None, "on");
    assert_eq!(enabled(&on).as_deref(), Some("true"));
    assert!(removals(&on).is_some_and(|n| n > 0.0));
    let off = report(Some("--no-removals"), "off");
    assert_eq!(enabled(&off).as_deref(), Some("false"));
    assert_eq!(removals(&off), None);
    std::fs::remove_dir_all(&dir).ok();
}
