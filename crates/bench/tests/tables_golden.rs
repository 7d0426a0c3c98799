//! Golden output of the `tables` binary.
//!
//! `tables all --test-scale --no-cache` prints every evaluation artifact
//! (Tables 1–4, the Section 3 cycle distribution, the scaling curves and
//! the ablations). Each number in it is a simulated quantity, so the
//! output is a pure function of the simulator and the harness, and this
//! test pins it byte for byte in `tests/golden/tables.txt` at the
//! repository root. A change to how the tables are computed (which runner
//! executes their design points, in what order, from the cache or not)
//! must leave this file untouched.
//!
//! To regenerate after an *intentional* change to simulated behaviour or
//! to a table's layout:
//!
//! ```text
//! MS_BLESS_GOLDEN=1 cargo test -p ms-bench --test tables_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/tables.txt")
}

#[test]
fn test_scale_tables_match_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["all", "--test-scale", "--no-cache"])
        .output()
        .expect("tables runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "tables failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    let path = golden_path();
    if std::env::var_os("MS_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &stdout).expect("writing golden file");
        eprintln!("blessed {} ({} lines)", path.display(), stdout.lines().count());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `MS_BLESS_GOLDEN=1 cargo test -p ms-bench \
             --test tables_golden`",
            path.display()
        )
    });
    for (i, (g, s)) in golden.lines().zip(stdout.lines()).enumerate() {
        assert_eq!(g, s, "tables output diverged from the golden file at line {}", i + 1);
    }
    assert_eq!(golden, stdout, "tables output has a different number of lines than the golden");
}
