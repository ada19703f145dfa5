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
//!
//! Two goldens are release-only: `scripts/ci.sh` regenerates them with
//! their BENCH files and `cmp`s both, because `plan_sweep` takes ≈ 22 s in
//! a debug build. Each prints the `--out` path it wrote, so regenerate each
//! with the path ci.sh passes, from the repository root:
//!
//! ```text
//! cargo run --release -p tesseract-bench --bin plan_sweep -- \
//!     --out target/BENCH_plan.json > crates/bench/golden/plan_sweep.txt
//! cargo run --release -p tesseract-bench --bin serve_sweep -- \
//!     --out target/BENCH_serving.json > crates/bench/golden/serve_sweep.txt
//! ```
//!
//! The results documents quote the goldens rather than copy them. A quote
//! is a `text` code block between `<!-- golden: NAME.txt -->` and
//! `<!-- /golden -->`; `docs_quote_the_goldens` checks that every quote in
//! EXPERIMENTS.md and README.md is a contiguous run of lines of
//! `crates/bench/golden/NAME.txt`, and that EXPERIMENTS.md quotes every
//! golden at least once.

use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    manifest_dir().join("../..")
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
    assert_golden(&repo_root().join("BENCH_comm.json"), &json);
}

#[test]
fn overlap_sweep() {
    let dir = scratch("golden_overlap_sweep");
    let out = dir.join("BENCH_overlap.json");
    run(env!("CARGO_BIN_EXE_overlap_sweep"), &["--out", out.to_str().expect("UTF-8 path")], &dir);
    let json = std::fs::read(&out).expect("reading BENCH_overlap.json");
    assert_golden(&repo_root().join("BENCH_overlap.json"), &json);
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

const QUOTE_OPEN: &str = "<!-- golden: ";
const QUOTE_CLOSE: &str = "<!-- /golden -->";

/// Checks every golden quote in document `doc` (its text `text`) against
/// the golden file `golden(name)` returns (`None`: no such file). Returns
/// the names quoted, or one message per bad quote naming `doc`, the line
/// and the first line that differs.
fn check_quotes(
    doc: &str,
    text: &str,
    golden: impl Fn(&str) -> Option<String>,
) -> Result<Vec<String>, Vec<String>> {
    let lines: Vec<&str> = text.lines().collect();
    let (mut names, mut errors) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < lines.len() {
        let Some(rest) = lines[i].strip_prefix(QUOTE_OPEN) else {
            i += 1;
            continue;
        };
        let at = i + 1;
        let name = rest.trim_end().trim_end_matches("-->").trim_end();
        if lines.get(i + 1).copied() != Some("```text") {
            errors.push(format!("{doc}:{at}: a golden quote must open a ```text block"));
            i += 1;
            continue;
        }
        let body = i + 2;
        let Some(len) = lines[body..].iter().position(|l| *l == "```") else {
            errors.push(format!("{doc}:{at}: the quote of {name} is never closed"));
            break;
        };
        let quoted = &lines[body..body + len];
        i = body + len + 1;
        if lines.get(i).copied() != Some(QUOTE_CLOSE) {
            errors.push(format!("{doc}:{at}: the quote of {name} must end with {QUOTE_CLOSE}"));
        }
        names.push(name.to_string());
        let Some(file) = golden(name) else {
            errors.push(format!("{doc}:{at}: quotes {name}, which is not a golden file"));
            continue;
        };
        if let Some(diff) = quote_difference(quoted, &file.lines().collect::<Vec<_>>()) {
            errors
                .push(format!("{doc}:{at}: the quote of {name} is not a run of its lines: {diff}"));
        }
    }
    if errors.is_empty() {
        Ok(names)
    } else {
        Err(errors)
    }
}

/// `None` if `quoted` is a non-empty contiguous run of `file`'s lines;
/// otherwise the first quoted line that differs from the run that matches
/// longest, with the golden line it should be.
fn quote_difference(quoted: &[&str], file: &[&str]) -> Option<String> {
    if quoted.is_empty() {
        return Some("the quote is empty".into());
    }
    let matched =
        |start: usize| quoted.iter().zip(&file[start..]).take_while(|(q, f)| q == f).count();
    let best = (0..file.len()).max_by_key(|&s| (matched(s), std::cmp::Reverse(s)));
    let Some(start) = best.filter(|&s| matched(s) > 0) else {
        return Some(format!("quoted line 1 {:?} is not in the file", quoted[0]));
    };
    let n = matched(start);
    if n == quoted.len() {
        return None;
    }
    let want = file.get(start + n).map_or("<end of file>".into(), |l| format!("{l:?}"));
    Some(format!("quoted line {} {:?}, golden line {}: {want}", n + 1, quoted[n], start + n + 1))
}

#[test]
fn docs_quote_the_goldens() {
    let golden_dir = manifest_dir().join("golden");
    let mut goldens: Vec<String> = std::fs::read_dir(&golden_dir)
        .expect("reading crates/bench/golden")
        .map(|e| e.expect("a golden entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".txt"))
        .collect();
    goldens.sort();
    let read_golden = |name: &str| {
        if goldens.iter().any(|g| g == name) {
            std::fs::read_to_string(golden_dir.join(name)).ok()
        } else {
            None
        }
    };
    let mut errors = Vec::new();
    for doc in ["EXPERIMENTS.md", "README.md"] {
        let text = std::fs::read_to_string(repo_root().join(doc))
            .unwrap_or_else(|e| panic!("reading {doc}: {e}"));
        match check_quotes(doc, &text, read_golden) {
            Ok(names) if doc == "EXPERIMENTS.md" => errors.extend(
                goldens
                    .iter()
                    .filter(|g| !names.contains(g))
                    .map(|g| format!("{doc}: quotes crates/bench/golden/{g} nowhere")),
            ),
            Ok(_) => {}
            Err(e) => errors.extend(e),
        }
    }
    assert!(errors.is_empty(), "golden quotes:\n{}", errors.join("\n"));
}

#[test]
fn a_bad_quote_names_its_document_line_and_first_differing_line() {
    let golden =
        |name: &str| (name == "t.txt").then(|| "# T\n| 8 | 1.00 |\n| 64 | 2.00 |\n".into());
    let doc = |body: &str, name: &str| {
        format!("intro\n<!-- golden: {name} -->\n```text\n{body}```\n<!-- /golden -->\n")
    };
    assert_eq!(
        check_quotes("D.md", &doc("| 8 | 1.00 |\n| 64 | 2.00 |\n", "t.txt"), golden),
        Ok(vec!["t.txt".to_string()])
    );
    assert_eq!(
        check_quotes("D.md", &doc("| 8 | 1.00 |\n| 64 | 2.01 |\n", "t.txt"), golden),
        Err(vec![
            "D.md:2: the quote of t.txt is not a run of its lines: quoted line 2 \"| 64 | 2.01 |\", \
             golden line 3: \"| 64 | 2.00 |\""
                .to_string()
        ])
    );
    assert_eq!(
        check_quotes("D.md", &doc("| 9 | 1.00 |\n", "t.txt"), golden),
        Err(vec![
            "D.md:2: the quote of t.txt is not a run of its lines: quoted line 1 \"| 9 | 1.00 |\" \
             is not in the file"
                .to_string()
        ])
    );
    assert_eq!(
        check_quotes("D.md", &doc("| 64 | 2.00 |\n| 8 | 1.00 |\n", "t.txt"), golden),
        Err(vec![
            "D.md:2: the quote of t.txt is not a run of its lines: quoted line 2 \"| 8 | 1.00 |\", \
             golden line 4: <end of file>"
                .to_string()
        ])
    );
    assert_eq!(
        check_quotes("D.md", &doc("| 8 | 1.00 |\n", "gone.txt"), golden),
        Err(vec!["D.md:2: quotes gone.txt, which is not a golden file".to_string()])
    );
    assert_eq!(
        check_quotes("D.md", "<!-- golden: t.txt -->\n| 8 | 1.00 |\n", golden),
        Err(vec!["D.md:1: a golden quote must open a ```text block".to_string()])
    );
}
