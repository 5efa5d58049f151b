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
