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
