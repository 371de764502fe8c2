//! CLI contract of the eval binaries: bad arguments print usage to
//! stderr and exit with code 2 — they must never panic with a backtrace
//! (the old behaviour) or start a long run on misunderstood flags.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary spawns");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, _, stderr) = run(bin, args);
    assert_eq!(
        code,
        Some(2),
        "{bin} {args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?} must print usage to stderr, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked: {stderr}"
    );
}

#[test]
fn ised_client_rejects_bad_args_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_ised_client");
    assert_usage_error(bin, &["--frobnicate"]);
    assert_usage_error(bin, &[]); // --addr is required
    assert_usage_error(bin, &["--addr"]);
    assert_usage_error(bin, &["--addr", "x", "--threads", "0"]);
}

#[test]
fn fleet_soak_rejects_bad_args_with_exit_2() {
    let bin = env!("CARGO_BIN_EXE_fleet_soak");
    assert_usage_error(bin, &["--frobnicate"]);
    assert_usage_error(bin, &["--shards"]);
    assert_usage_error(bin, &["--shards", "0"]);
    assert_usage_error(bin, &["--clients", "many"]);
    assert_usage_error(bin, &["--requests", "0"]);
    assert_usage_error(bin, &["--kill-every", "-1"]);
    assert_usage_error(bin, &["--tier", "enormous"]);
    assert_usage_error(bin, &["--ised"]);
    assert_usage_error(bin, &["--out"]);
}

#[test]
fn help_goes_to_stdout_with_exit_0() {
    for bin in [
        env!("CARGO_BIN_EXE_ised_client"),
        env!("CARGO_BIN_EXE_fleet_soak"),
    ] {
        let (code, stdout, _) = run(bin, &["--help"]);
        assert_eq!(code, Some(0), "{bin} --help");
        assert!(stdout.contains("usage:"), "{bin} --help prints usage");
    }
}
