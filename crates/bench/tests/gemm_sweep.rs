//! `gemm_sweep` rejects a size it cannot time. A zero size has no flops, so
//! the timing loop would repeat it without end; the sweep must refuse it
//! when it reads its arguments, exit non-zero and name `--sizes`.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_zero_size_is_rejected_promptly() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gemm_sweep_zero_size.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_gemm_sweep"))
        .args(["--sizes", "0", "--reps", "1", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("starting gemm_sweep");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("polling gemm_sweep") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("killing gemm_sweep");
            child.wait().expect("reaping gemm_sweep");
            panic!("gemm_sweep --sizes 0 still ran after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
    assert!(!status.success(), "gemm_sweep --sizes 0 succeeded");
    assert!(stderr.contains("--sizes"), "the message names no flag: {stderr}");
}
