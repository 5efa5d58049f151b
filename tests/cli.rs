//! The `pi2m` binary refuses options its subcommand does not read: a usage
//! error (exit 1) naming the option, before any input is loaded or meshed.

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
