//! Behaviour contract for the deterministic bins: each one runs at the
//! default (small) scale and its stdout is compared byte for byte against
//! the committed file under `tests/golden/<bin>.txt`.
//!
//! Covered: `headline`, `table1`–`table5`, `figures`, `crossdata`,
//! `ablation`, and `gates` and `respec` in text and `--json` form
//! (goldens `gates_json.txt` and `respec_json.txt`). `table5` also runs
//! under `BREPL_THREADS=1` and `BREPL_THREADS=4` against the same golden:
//! its output must not depend on the thread count. A bin that exits
//! non-zero fails its test.
//!
//! On a mismatch the actual output is written under
//! `target/golden_bins/` and the failure names that path; inspect it with
//! `diff` against the committed file. A deliberate output change replaces
//! the committed file with that output.

use std::path::Path;
use std::process::Command;

/// Runs `exe` with `args` from the workspace root with `BREPL_SCALE`
/// unset (so `figures` writes its CSVs under the root `target/`) and
/// `BREPL_THREADS` set to `threads` if given, and compares its stdout
/// against `tests/golden/<name>.txt`.
fn check_bin(name: &str, exe: &str, args: &[&str], threads: Option<&str>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = root.ancestors().nth(2).expect("workspace root");
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .current_dir(workspace)
        .env_remove("BREPL_SCALE");
    if let Some(threads) = threads {
        cmd.env("BREPL_THREADS", threads);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("cannot run {exe}: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("bin stdout is UTF-8");
    let golden = root.join("tests/golden").join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let dir = workspace.join("target/golden_bins");
    std::fs::create_dir_all(&dir).expect("create target/golden_bins");
    let written = match threads {
        Some(threads) => dir.join(format!("{name}.threads{threads}.txt")),
        None => dir.join(format!("{name}.txt")),
    };
    std::fs::write(&written, &actual).expect("write actual output");
    panic!(
        "{} differs from the golden output; actual output written to {}",
        golden.display(),
        written.display()
    );
}

macro_rules! golden_bins {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            check_bin(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), &[], None);
        }
    )*};
}

golden_bins!(
    headline, table1, table2, table3, table4, table5, figures, crossdata, ablation, gates, respec
);

#[test]
fn gates_json() {
    check_bin("gates_json", env!("CARGO_BIN_EXE_gates"), &["--json"], None);
}

#[test]
fn respec_json() {
    check_bin(
        "respec_json",
        env!("CARGO_BIN_EXE_respec"),
        &["--json"],
        None,
    );
}

#[test]
fn table5_serial() {
    check_bin("table5", env!("CARGO_BIN_EXE_table5"), &[], Some("1"));
}

#[test]
fn table5_four_threads() {
    check_bin("table5", env!("CARGO_BIN_EXE_table5"), &[], Some("4"));
}
