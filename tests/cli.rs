//! The `brepl` command-line driver, run as a process: argument errors
//! exit 1 with a message instead of panicking.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A counted loop with a period-3 branch inside, small enough that a full
/// pipeline run takes milliseconds.
const SOURCE: &str = "
func @main(0) regs=4 entry=b0 {
b0:
  r0 = const 0
  jmp b1
b1:
  r1 = rem r0, 3
  r2 = eq r1, 2
  br r2, b2, b3
b2:
  r0 = add r0, 1
  jmp b3
b3:
  r0 = add r0, 1
  r3 = lt r0, 60
  br r3, b1, b4
b4:
  ret r0
}
";

/// A 1000-iteration loop around an `i & 1` branch: replicating the
/// alternating branch (site `s0`) grows the program past 1.1×.
const ALTERNATING: &str = "
func @main(0) regs=5 entry=b0 {
b0:
  r0 = const 0
  r3 = const 0
  jmp b1
b1:
  r1 = and r0, 1
  r2 = eq r1, 0
  br r2, b2, b3
b2:
  r3 = add r3, 1
  jmp b3
b3:
  r0 = add r0, 1
  r4 = lt r0, 1000
  br r4, b1, b4
b4:
  ret r3
}
";

/// A module that parses but does not verify: `b7` does not exist.
const DANGLING_JUMP: &str = "
func @main(0) regs=1 entry=b0 {
b0:
  jmp b7
}
";

/// Writes `source` to a file of its own and returns the path.
fn write(name: &str, source: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, source).expect("program written");
    path.to_str().expect("utf-8 path").to_string()
}

fn program() -> PathBuf {
    PathBuf::from(write("cli_loop.bir", SOURCE))
}

fn brepl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_brepl"))
        .args(args)
        .output()
        .expect("brepl runs")
}

#[test]
fn replicate_rejects_out_of_range_states() {
    let path = program();
    let file = path.to_str().unwrap();
    for bad in ["0", "1", "11", "x"] {
        let out = brepl(&["replicate", file, "--states", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--states {bad}: {stderr}");
        assert!(
            stderr.contains("--states needs a number in 2..=10"),
            "--states {bad}: {stderr}"
        );
    }
    for good in ["2", "10"] {
        let out = brepl(&["replicate", file, "--states", good]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--states {good}: {stderr}");
    }
}

#[test]
fn dot_rejects_a_module_that_does_not_verify() {
    let file = write("cli_dangling.bir", DANGLING_JUMP);
    let out = brepl(&["dot", &file, "main"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("b7"),
        "the verifier names the bad target: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn replicate_rejects_non_finite_budgets() {
    let file = write("cli_alternating.bir", ALTERNATING);
    for bad in ["nan", "NaN", "inf", "-inf", "x"] {
        let out = brepl(&["replicate", &file, "--budget", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--budget {bad}: {stderr}");
        assert!(
            stderr.contains("--budget needs a finite number"),
            "--budget {bad}: {stderr}"
        );
    }
}

/// The report lists what shipped: a budget too small for the one
/// improvable site ships the original program and names no site.
#[test]
fn replicate_reports_the_sites_that_shipped() {
    let file = write("cli_alternating_report.bir", ALTERNATING);
    let run = |budget: &str| {
        let out = brepl(&["replicate", &file, "--budget", budget]);
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "--budget {budget}: {stdout}");
        stdout
    };
    let shipped = run("3");
    assert!(shipped.contains("(1 branches replicated)"), "{shipped}");
    assert!(shipped.contains("\n  s0: "), "{shipped}");

    let excluded = run("1.1");
    assert!(
        excluded.contains("at 1.00x size (0 branches replicated)"),
        "{excluded}"
    );
    assert_eq!(excluded.lines().count(), 1, "no site listed: {excluded}");
}
