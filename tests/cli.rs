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

fn program() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_loop.bir");
    std::fs::write(&path, SOURCE).expect("program written");
    path
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
