//! The `repro` argument and dump-file contract: a subcommand rejects
//! arguments left after its positionals (exit 2, usage), and `repro dump`
//! reports an unwritable or failing output path as a structured `io`
//! error (exit 1) rather than a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run(args: &[&str]) -> Output {
    repro().args(args).output().expect("run repro")
}

fn stderr_of(out: &Output) -> &str {
    std::str::from_utf8(&out.stderr).expect("utf8 stderr")
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oscache-dump-cli-{}-{name}", std::process::id()))
}

#[test]
fn trailing_arguments_are_rejected_with_usage() {
    let dir = scratch("dir");
    let dump = scratch("t.trace");
    let (dir_s, dump_s) = (dir.to_str().unwrap(), dump.to_str().unwrap());
    for args in [
        vec!["golden", dir_s, "extra"],
        vec!["dump", "TRFD_4", dump_s, "--scale", "2"],
        vec!["conflicts", "TRFD_4", "extra"],
        vec!["classes", "TRFD_4", "--scale", "2"],
        vec!["csv", dir_s, "extra"],
        vec!["perturb", "TRFD_4", "extra"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).starts_with("usage:"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} did work before rejecting");
    }
    assert!(!dir.exists(), "a rejected command created its output dir");
    assert!(!dump.exists(), "a rejected dump created its file");
}

#[test]
fn dump_to_an_unwritable_path_is_an_io_error() {
    let path = scratch("missing-dir").join("t.trace");
    let out = run(&["dump", "TRFD_4", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).starts_with("error: class=io"),
        "{}",
        stderr_of(&out)
    );
    assert!(out.stdout.is_empty(), "no dump can have been written");
}

#[test]
fn dump_write_failure_is_an_io_error() {
    // `/dev/full` opens for writing and fails every write with ENOSPC.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = run(&["--scale", "0.01", "dump", "TRFD_4", "/dev/full"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).starts_with("error: class=io"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn dumped_trace_replays_with_and_without_an_injected_fault() {
    let path = scratch("replay.trace");
    let path_s = path.to_str().unwrap();
    let out = run(&["--scale", "0.01", "dump", "Shell", path_s]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let clean = run(&["replay", path_s, "base"]);
    assert!(clean.status.success(), "{}", stderr_of(&clean));
    // Injection is deterministic per (fault, seed) and never panics.
    let inject = ["replay", path_s, "base", "--inject", "drop", "--seed", "3"];
    let a = run(&inject);
    let b = run(&inject);
    assert!(matches!(a.status.code(), Some(0 | 3 | 4)), "{a:?}");
    assert_eq!(a.status.code(), b.status.code());
    assert_eq!(a.stdout, b.stdout);
    let _ = std::fs::remove_file(&path);
}
