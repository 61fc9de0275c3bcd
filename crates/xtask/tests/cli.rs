//! The lint command line: exit codes of the `xtask` binary for usage
//! errors, unknown commands and a clean run.

use std::process::{Command, Output};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

#[test]
fn json_and_sarif_cannot_share_stdout() {
    let out = xtask(&["lint", "--json", "-", "--sarif", "-"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a usage error must not scan");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot share stdout"), "{stderr}");
}

#[test]
fn removed_flags_are_unknown() {
    for flags in [
        &["--deny-all"][..],
        &["--fix-allowlist"],
        &["--diff-base", "x"],
        &["--max", "panic-freedom=0"],
        &["--format", "json"],
    ] {
        let out = xtask(&[&["lint"][..], flags].concat());
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown lint flag `{}`", flags[0])),
            "{flags:?}: {stderr}"
        );
    }
}

#[test]
fn bench_command_is_unknown() {
    let out = xtask(&["bench", "--smoke"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "an unknown command must not run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown xtask command `bench`"), "{stderr}");
}

#[test]
fn clean_tree_writes_one_valid_report_on_stdout() {
    let out = xtask(&["lint", "--json", "-"]);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    let problems = xtask::report::validate(&stdout);
    assert!(problems.is_empty(), "{problems:#?}\n{stdout}");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
