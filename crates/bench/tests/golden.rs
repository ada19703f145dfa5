//! Golden outputs. The table bins print virtual-clock numbers only (Shadow
//! runs; `fig7_training_accuracy` trains on Dense, whose bits do not depend
//! on the CPU or `TESSERACT_KERNEL`), so their stdout is pinned byte for
//! byte to the text under `crates/bench/golden/`, and the JSON that
//! `comm_cost_table` and `overlap_sweep` write to the committed
//! `BENCH_comm.json` / `BENCH_overlap.json` at the repository root. A
//! mismatch names the first differing line pair. An intended change
//! regenerates the file in the same diff:
//!
//! ```text
//! cargo run --release -p tesseract-bench --bin X > crates/bench/golden/X.txt
//! cargo run --release -p tesseract-bench --bin comm_cost_table -- \
//!     --out target/BENCH_comm.json > crates/bench/golden/comm_cost_table.txt
//! ```
//!
//! (`comm_cost_table` prints the path it wrote, so its run names the same
//! `--out` as this test, from the repository root.)

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `exe` with `args` in `cwd`; returns its stdout, panicking with its
/// stderr if it fails.
fn run(exe: &str, args: &[&str], cwd: &Path) -> Vec<u8> {
    let out = Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap_or_else(|e| panic!("starting {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The first line pair on which `want` and `got` differ, 1-based, or `None`
/// if they are equal byte for byte.
fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    fn lines(text: &[u8]) -> Vec<&[u8]> {
        text.split_inclusive(|&b| b == b'\n').collect()
    }
    let (want, got) = (lines(want), lines(got));
    let i = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))?;
    let show = |line: Option<&&[u8]>| {
        line.map_or("<end of output>".into(), |l| format!("{:?}", String::from_utf8_lossy(l)))
    };
    Some(format!(
        "line {}:\n  committed: {}\n  produced:  {}",
        i + 1,
        show(want.get(i)),
        show(got.get(i))
    ))
}

/// Asserts `got` equals the committed file `want` byte for byte.
fn assert_golden(want: &Path, got: &[u8]) {
    let committed =
        std::fs::read(want).unwrap_or_else(|e| panic!("reading {}: {e}", want.display()));
    if let Some(diff) = first_difference(&committed, got) {
        panic!("output differs from {}, first at {diff}", want.display());
    }
}

/// A fresh scratch directory for one test's run.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("target")).expect("creating a scratch directory");
    dir
}

fn table(bin: &str, exe: &str) {
    let stdout = run(exe, &[], manifest_dir());
    assert_golden(&manifest_dir().join("golden").join(format!("{bin}.txt")), &stdout);
}

#[test]
fn fig6_hybrid() {
    table("fig6_hybrid", env!("CARGO_BIN_EXE_fig6_hybrid"));
}

#[test]
fn memory_table() {
    table("memory_table", env!("CARGO_BIN_EXE_memory_table"));
}

#[test]
fn table1_strong_scaling() {
    table("table1_strong_scaling", env!("CARGO_BIN_EXE_table1_strong_scaling"));
}

#[test]
fn table2_weak_scaling() {
    table("table2_weak_scaling", env!("CARGO_BIN_EXE_table2_weak_scaling"));
}

#[test]
fn ablation_depth() {
    table("ablation_depth", env!("CARGO_BIN_EXE_ablation_depth"));
}

#[test]
fn isoefficiency() {
    table("isoefficiency", env!("CARGO_BIN_EXE_isoefficiency"));
}

#[test]
fn fig7_training_accuracy() {
    table("fig7_training_accuracy", env!("CARGO_BIN_EXE_fig7_training_accuracy"));
}

/// The C1 table (stdout) and `BENCH_comm.json`. The bin runs in a scratch
/// directory with `--out target/BENCH_comm.json`, the path its stdout names.
#[test]
fn comm_cost_table() {
    let dir = scratch("golden_comm_cost_table");
    let stdout =
        run(env!("CARGO_BIN_EXE_comm_cost_table"), &["--out", "target/BENCH_comm.json"], &dir);
    assert_golden(&manifest_dir().join("golden/comm_cost_table.txt"), &stdout);
    let json = std::fs::read(dir.join("target/BENCH_comm.json")).expect("reading BENCH_comm.json");
    assert_golden(&manifest_dir().join("../../BENCH_comm.json"), &json);
}

#[test]
fn overlap_sweep() {
    let dir = scratch("golden_overlap_sweep");
    let out = dir.join("BENCH_overlap.json");
    run(env!("CARGO_BIN_EXE_overlap_sweep"), &["--out", out.to_str().expect("UTF-8 path")], &dir);
    let json = std::fs::read(&out).expect("reading BENCH_overlap.json");
    assert_golden(&manifest_dir().join("../../BENCH_overlap.json"), &json);
}

#[test]
fn a_one_character_edit_names_its_line_pair() {
    let want = b"| p | t |\n| 8 | 1.00 |\n| 64 | 2.00 |\n";
    assert_eq!(first_difference(want, want), None);
    let diff = first_difference(want, b"| p | t |\n| 8 | 1.01 |\n| 64 | 2.00 |\n");
    assert_eq!(
        diff.as_deref(),
        Some("line 2:\n  committed: \"| 8 | 1.00 |\\n\"\n  produced:  \"| 8 | 1.01 |\\n\"")
    );
    let diff = first_difference(want, b"| p | t |\n| 8 | 1.00 |\n");
    assert_eq!(
        diff.as_deref(),
        Some("line 3:\n  committed: \"| 64 | 2.00 |\\n\"\n  produced:  <end of output>")
    );
}
