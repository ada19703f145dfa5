//! The one argument parser of the experiment binaries.
//!
//! A binary names its flags once, in [`Args::parse`]; every argument is a
//! `--flag value` pair, and a later pair overrides an earlier one. An
//! unknown flag or a flag without a value panics, naming the known flags.
//! The typed getters parse the value when read and panic, naming the
//! flag, if it does not parse.

use std::fmt::Display;
use std::str::FromStr;

/// The `--flag value` pairs of one command line.
pub struct Args {
    known: &'static [&'static str],
    pairs: Vec<(String, String)>,
}

impl Args {
    /// The process arguments after the program name.
    pub fn parse(known: &'static [&'static str]) -> Self {
        Self::from_argv(known, std::env::args().skip(1))
    }

    /// `argv` (without the program name) as `--flag value` pairs.
    pub fn from_argv(
        known: &'static [&'static str],
        argv: impl IntoIterator<Item = String>,
    ) -> Self {
        let mut argv = argv.into_iter();
        let mut pairs = Vec::new();
        while let Some(flag) = argv.next() {
            if !known.contains(&flag.as_str()) {
                panic!("unknown argument {flag:?} (known: {})", known.join(" "));
            }
            let value = argv.next().unwrap_or_else(|| panic!("{flag} needs a value"));
            pairs.push((flag, value));
        }
        Self { known, pairs }
    }

    /// The last value given for `flag`, if any.
    fn raw(&self, flag: &str) -> Option<&str> {
        assert!(self.known.contains(&flag), "{flag} is not a known flag");
        self.pairs.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    /// `flag`'s value, or `default` if it is not given.
    pub fn value<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> T {
        self.raw(flag).map_or(default, |v| parse(flag, v))
    }

    /// `flag`'s comma-separated list, e.g. `--sizes 256,512`.
    pub fn list(&self, flag: &str, default: &[usize]) -> Vec<usize> {
        self.raw(flag).map_or(default.to_vec(), |v| v.split(',').map(|s| parse(flag, s)).collect())
    }

    /// `flag`'s `q,d` pairs separated by `;`, e.g. `--grids 2,1;2,2`.
    pub fn pairs(&self, flag: &str, default: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let Some(v) = self.raw(flag) else { return default.to_vec() };
        let pair = |p: &str| match p.split(',').collect::<Vec<_>>()[..] {
            [q, d] => (parse(flag, q), parse(flag, d)),
            _ => panic!("{flag} wants q,d pairs, got {p:?}"),
        };
        v.split(';').map(pair).collect()
    }
}

fn parse<T: FromStr<Err: Display>>(flag: &str, v: &str) -> T {
    v.trim().parse().unwrap_or_else(|e| panic!("{flag}: cannot parse {v:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["--n", "--sizes", "--grids", "--out"];

    fn args(line: &str) -> Args {
        Args::from_argv(KNOWN, line.split_whitespace().map(String::from))
    }

    fn panic_text(line: &str) -> String {
        let payload = std::panic::catch_unwind(|| args(line)).err().expect("parsing must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted panic")
    }

    #[test]
    fn an_unknown_flag_names_the_known_ones() {
        assert_eq!(
            panic_text("--n 4 --top 5"),
            r#"unknown argument "--top" (known: --n --sizes --grids --out)"#
        );
    }

    #[test]
    fn a_flag_without_a_value_says_so() {
        assert_eq!(panic_text("--out x --n"), "--n needs a value");
    }

    #[test]
    fn an_absent_flag_reads_its_default_and_a_later_pair_wins() {
        let a = args("--n 4 --out a.json --n 8");
        assert_eq!(a.value("--n", 1usize), 8);
        assert_eq!(a.value("--out", String::from("b.json")), "a.json");
        let none = args("");
        assert_eq!(none.value("--n", 1usize), 1);
        assert_eq!(none.list("--sizes", &[3, 5]), [3, 5]);
        assert_eq!(none.pairs("--grids", &[(2, 1)]), [(2, 1)]);
    }

    #[test]
    fn a_comma_list_parses_every_item() {
        assert_eq!(args("--sizes 96,128,256").list("--sizes", &[]), [96, 128, 256]);
        let bad = std::panic::catch_unwind(|| args("--sizes 96,x").list("--sizes", &[]));
        assert!(bad.is_err(), "a non-integer item must panic");
    }

    #[test]
    fn q_d_pairs_split_on_semicolons_then_commas() {
        assert_eq!(args("--grids 2,1;2,2;4,1").pairs("--grids", &[]), [(2, 1), (2, 2), (4, 1)]);
        for bad in ["--grids 2", "--grids 2,1,1", "--grids 2,1;x,1"] {
            let got = std::panic::catch_unwind(|| args(bad).pairs("--grids", &[]));
            assert!(got.is_err(), "{bad:?} must panic");
        }
    }
}
