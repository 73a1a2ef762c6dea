//! Behaviour contract for the deterministic bins: each one runs at the
//! default (small) scale and its stdout is compared byte for byte against
//! the committed file under `tests/golden/<bin>.txt`.
//!
//! Covered: `headline`, `table1`–`table5`, `figures`, `crossdata`,
//! `ablation`, and `gates` and `respec` in text and `--json` form
//! (goldens `gates_json.txt` and `respec_json.txt`). A bin that exits
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
/// compares its stdout against `tests/golden/<name>.txt`.
fn check_bin(name: &str, exe: &str, args: &[&str]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = root.ancestors().nth(2).expect("workspace root");
    let out = Command::new(exe)
        .args(args)
        .current_dir(workspace)
        .env_remove("BREPL_SCALE")
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
    let written = dir.join(format!("{name}.txt"));
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
            check_bin(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), &[]);
        }
    )*};
}

golden_bins!(
    headline, table1, table2, table3, table4, table5, figures, crossdata, ablation, gates, respec
);

#[test]
fn gates_json() {
    check_bin("gates_json", env!("CARGO_BIN_EXE_gates"), &["--json"]);
}

#[test]
fn respec_json() {
    check_bin("respec_json", env!("CARGO_BIN_EXE_respec"), &["--json"]);
}
