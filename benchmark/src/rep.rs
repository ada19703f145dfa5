//! One repetition's record and the parent/child protocol that carries it.
//!
//! Every repetition of a workload runs in a child process (a re-exec of
//! this binary with `--child <phase>`), so a repetition that dies — by
//! signal, panic or a hung rendezvous — costs the benchmark one failed
//! operation and never a timing. The child prints its record as tagged
//! lines on stdout; the parent parses them back after the child exited.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one repetition measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Named numbers (metrics, counts).
    pub scalars: BTreeMap<String, f64>,
    /// Named sample sets (per-operation host timings).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Named values that must be identical in every repetition and in the
    /// traced run (virtual-clock results, loss bits, result digests).
    pub exact: BTreeMap<String, String>,
    /// Output checks that failed inside the repetition.
    pub violations: Vec<String>,
    /// Operations (steps, requests, plan calls) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    pub fn set(&mut self, name: &str, v: f64) {
        self.scalars.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self.scalars.get(name).unwrap_or_else(|| panic!("repetition reported no {name:?}"))
    }

    pub fn set_exact(&mut self, name: &str, v: impl ToString) {
        self.exact.insert(name.to_string(), v.to_string());
    }

    /// Records a failed output check; the run still reports its timings,
    /// with `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The wire form: one tagged line per entry. Floats print in Rust's
    /// shortest round-trip form, so the parent reads back the same bits.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.scalars {
            out.push_str(&format!("S\t{k}\t{v}\n"));
        }
        for (k, vs) in &self.samples {
            let joined: Vec<String> = vs.iter().map(f64::to_string).collect();
            out.push_str(&format!("V\t{k}\t{}\n", joined.join(" ")));
        }
        for (k, v) in &self.exact {
            out.push_str(&format!("X\t{k}\t{v}\n"));
        }
        for v in &self.violations {
            out.push_str(&format!("F\t{}\n", v.replace(['\n', '\t'], " ")));
        }
        out.push_str(&format!("O\t{}\t{}\n", self.attempted, self.failed));
        out
    }

    /// Parses [`Rep::encode`] output; `None` if the closing `O` line is
    /// missing (the child died before finishing) or a line is malformed.
    pub fn decode(text: &str) -> Option<Self> {
        let mut rep = Rep::default();
        let mut closed = false;
        for line in text.lines() {
            let mut parts = line.splitn(3, '\t');
            match (parts.next()?, parts.next(), parts.next()) {
                ("S", Some(k), Some(v)) => {
                    rep.scalars.insert(k.to_string(), v.parse().ok()?);
                }
                ("V", Some(k), Some(v)) => {
                    let vs: Option<Vec<f64>> =
                        v.split_whitespace().map(|x| x.parse().ok()).collect();
                    rep.samples.insert(k.to_string(), vs?);
                }
                ("X", Some(k), Some(v)) => {
                    rep.exact.insert(k.to_string(), v.to_string());
                }
                ("F", Some(v), None) => rep.violations.push(v.to_string()),
                ("O", Some(a), Some(f)) => {
                    rep.attempted = a.parse().ok()?;
                    rep.failed = f.parse().ok()?;
                    closed = true;
                }
                // Anything else on stdout is not part of the record.
                _ => {}
            }
        }
        closed.then_some(rep)
    }
}

/// How a child repetition ended.
pub enum Outcome {
    Done(Rep),
    /// The child died (signal, non-zero exit, truncated record): the
    /// reason, for the report.
    Died(String),
}

/// Runs one repetition as a child process and waits for it, killing it
/// at `deadline` so a hung rendezvous cannot outlive the benchmark.
pub fn run_child(args: &[String], deadline: Instant) -> Outcome {
    let exe = std::env::current_exe().expect("benchmark binary has a path");
    let child = Command::new(exe)
        .arg("--child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return Outcome::Died(format!("spawn failed: {e}")),
    };
    // Drain stdout on a thread so a large record cannot block the child
    // on a full pipe while this thread polls for its exit.
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                // Kill, then reap: the benchmark leaves no process behind.
                let _ = child.kill();
                let _ = child.wait();
                break Err("killed at the run deadline".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("wait failed: {e}")),
        }
    };
    let text = reader.join().expect("stdout reader does not panic");
    let status = match status {
        Ok(s) => s,
        Err(why) => return Outcome::Died(why),
    };
    if !status.success() {
        return Outcome::Died(format!("child ended with {status}"));
    }
    match text.ok().and_then(|t| Rep::decode(&t)) {
        Some(rep) => Outcome::Done(rep),
        None => Outcome::Died("child exited 0 without a complete record".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_bit_for_bit() {
        let mut rep = Rep::default();
        rep.set("virt_ops_per_s", 1.0 / 3.0);
        rep.samples.insert("host_op_s".into(), vec![0.1, 0.2 + 1e-17, 3e-9]);
        rep.set_exact("loss", 0x3f80_0001u32);
        rep.check(false, || "ranks disagree".into());
        rep.attempted = 7;
        rep.failed = 1;
        assert_eq!(Rep::decode(&rep.encode()), Some(rep));
    }

    #[test]
    fn a_child_that_exits_non_zero_died() {
        // Under `cargo test` the current executable is the test harness,
        // which rejects `--child` and exits non-zero: a death, no record.
        let deadline = Instant::now() + Duration::from_secs(30);
        assert!(matches!(run_child(&["timed".to_string()], deadline), Outcome::Died(_)));
    }

    #[test]
    fn truncated_record_is_a_death() {
        let mut rep = Rep::default();
        rep.set("x", 1.0);
        let text = rep.encode();
        let cut = text.rfind("O\t").unwrap();
        assert_eq!(Rep::decode(&text[..cut]), None);
    }
}
