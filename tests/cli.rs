//! The `pi2m` binary refuses options its subcommand does not read, and mesh
//! options out of their bounds: a usage error (exit 1) naming the option,
//! before any input is loaded or meshed.

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
fn batch_refuses_shards() {
    let (code, stderr) = pi2m(&["batch", "phantom:sphere", "--shards", "2x1x1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--shards"), "{stderr}");
}

#[test]
fn mesh_refuses_balancer() {
    let (code, stderr) = pi2m(&["mesh", "phantom:sphere", "--balancer", "hws"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--balancer"), "{stderr}");
}

/// The recorder is always on: `--no-flight` is gone from `mesh` and
/// `batch`.
#[test]
fn mesh_and_batch_refuse_no_flight() {
    for cmd in ["mesh", "batch"] {
        let (code, stderr) = pi2m(&[cmd, "phantom:sphere", "--no-flight"]);
        assert_eq!(code, Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains("--no-flight"), "{cmd}: {stderr}");
    }
}

/// A `--halo` outside 0..=4096 is refused before the input loads (it
/// does not exist here, so loading it would exit 4), with or without
/// `--shards`.
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

/// `--halo` means something only to a sharded run, so `mesh` refuses it
/// without `--shards` instead of meshing unsharded and ignoring it.
#[test]
fn mesh_refuses_a_halo_without_shards() {
    for input in ["phantom:sphere", "no-such-input.pim"] {
        let (code, stderr) = pi2m(&["mesh", input, "--halo", "3"]);
        assert_eq!(code, Some(1), "{input}: {stderr}");
        assert!(stderr.contains("--halo"), "{input}: {stderr}");
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
        for cmd in ["mesh", "batch"] {
            let (code, stderr) = pi2m(&[cmd, "no-such-input.pim", flag, value]);
            assert_eq!(code, Some(1), "{cmd} {flag} {value}: {stderr}");
            assert!(stderr.contains(flag), "{cmd} {flag} {value}: {stderr}");
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
/// unbounded cube of cells, so the run ends at once with an empty mesh. A
/// watchdog kills the child and fails the test if it spins.
#[test]
fn mesh_with_huge_delta_terminates() {
    let dir = std::env::temp_dir().join(format!("pi2m-cli-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("m.vtk");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pi2m"))
        .args(["mesh", "phantom:sphere", "--delta", "1e308", "-o"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
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
            panic!("pi2m mesh --delta 1e308 still running after 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0));
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
/// refused before a pool thread is spawned: asked for 70 000, `mesh` and
/// `batch` used to spawn threads until the process aborted.
#[test]
fn mesh_and_batch_refuse_absurd_thread_counts() {
    for cmd in ["mesh", "batch"] {
        let (code, stderr) =
            pi2m_watched(&[cmd, "phantom:sphere", "--threads", "70000", "--delta", "4"]);
        assert_eq!(code, Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains("--threads"), "{cmd}: {stderr}");
    }
}

/// `serve` refuses a `--sessions` or `--threads` past the cap before it
/// binds or spawns a slot, instead of spawning thousands of slot threads
/// whose pools then fail to spawn.
#[test]
fn serve_refuses_absurd_session_and_thread_counts() {
    let spool = std::env::temp_dir().join(format!("pi2m-cli-serve-{}", std::process::id()));
    let spool = spool.to_str().unwrap();
    for flag in ["--sessions", "--threads"] {
        let args = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--spool",
            spool,
            flag,
            "70000",
        ];
        let (code, stderr) = pi2m_watched(&args);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    assert!(
        !std::path::Path::new(spool).exists(),
        "serve made its spool"
    );
}
