//! Shared command-line and JSON plumbing for the standalone bench binaries.
//!
//! `linebench`, `pathbench`, `ringbench` and `membench` all follow the same
//! shape: a `--smoke` scale switch, `--json PATH` machine-readable output
//! ("-" for stdout), an optional `--baseline FILE` regression gate that reads
//! a previously committed JSON blob, plus a few bench-specific flags. The
//! parsing and the no-dependency JSON handling used to be copy-pasted per
//! binary; this module is the single copy.

use std::str::FromStr;

/// Parsed common flags plus raw access for bench-specific ones.
///
/// All four binaries accept `--smoke`, `--json PATH` and (where they gate)
/// `--baseline FILE`; anything else is looked up through [`BenchArgs::flag`] /
/// [`BenchArgs::value`] / [`BenchArgs::parsed`].
pub struct BenchArgs {
    raw: Vec<String>,
    /// `--smoke`: ~20x fewer iterations (CI sanity run).
    pub smoke: bool,
    /// `--json PATH`: write machine-readable results to PATH ("-" for stdout).
    pub json: Option<String>,
    /// `--baseline FILE`: compare against a previously committed JSON blob.
    pub baseline: Option<String>,
}

impl BenchArgs {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().collect())
    }

    fn from_vec(raw: Vec<String>) -> Self {
        let mut a = Self {
            raw,
            smoke: false,
            json: None,
            baseline: None,
        };
        a.smoke = a.flag("--smoke");
        a.json = a.value("--json").map(str::to_owned);
        a.baseline = a.value("--baseline").map(str::to_owned);
        a
    }

    /// True if the bare flag `name` (e.g. `"--smoke"`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The operand following `name`. Panics if the flag is present without one.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.raw.iter().position(|a| a == name).map(|i| {
            self.raw
                .get(i + 1)
                .unwrap_or_else(|| panic!("{name} requires a value"))
                .as_str()
        })
    }

    /// The operand following `name`, parsed. Panics on a missing or
    /// unparseable operand.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{name}: cannot parse {s:?}"))
        })
    }

    /// `"smoke"` or `"full"`, for banners.
    pub fn run_kind(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// Write `json` to `path` ("-" means stdout), announcing the file on stderr.
pub fn emit_json(path: &str, json: &str) {
    if path == "-" {
        print!("{json}");
    } else {
        std::fs::write(path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// Pull `"key": <number>` out of a bench JSON blob without a JSON parser
/// (the workspace is offline; this mirrors how tier1.sh consumes the files).
pub fn json_number(blob: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = blob.find(&pat)? + pat.len();
    let rest = &blob[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Read a committed baseline blob and extract `key`, with errors that name the
/// offending file (gates run unattended under tier1.sh).
pub fn baseline_number(path: &str, key: &str) -> f64 {
    let blob =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--baseline {path}: {e}"));
    json_number(&blob, key)
        .unwrap_or_else(|| panic!("--baseline {path}: no \"{key}\" field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> BenchArgs {
        BenchArgs::from_vec(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn parses_common_flags() {
        let a = args(&["bin", "--smoke", "--json", "-", "--baseline", "B.json"]);
        assert!(a.smoke);
        assert_eq!(a.json.as_deref(), Some("-"));
        assert_eq!(a.baseline.as_deref(), Some("B.json"));
        assert_eq!(a.run_kind(), "smoke");
    }

    #[test]
    fn defaults_absent() {
        let a = args(&["bin"]);
        assert!(!a.smoke);
        assert!(a.json.is_none());
        assert!(a.baseline.is_none());
        assert_eq!(a.run_kind(), "full");
    }

    #[test]
    fn bench_specific_flags() {
        let a = args(&["bin", "--shards", "4", "--density", "1/8"]);
        assert_eq!(a.parsed::<usize>("--shards"), Some(4));
        assert_eq!(a.value("--density"), Some("1/8"));
        assert_eq!(a.parsed::<usize>("--interval"), None);
    }

    #[test]
    #[should_panic(expected = "--json requires a value")]
    fn missing_operand_panics() {
        args(&["bin", "--json"]);
    }

    #[test]
    fn json_number_extracts() {
        let blob = "{\n  \"a\": {\"ops_per_sec_4t\": 123456, \"x\": 1.5e3},\n  \"neg\": -2.25\n}";
        assert_eq!(json_number(blob, "ops_per_sec_4t"), Some(123456.0));
        assert_eq!(json_number(blob, "x"), Some(1500.0));
        assert_eq!(json_number(blob, "neg"), Some(-2.25));
        assert_eq!(json_number(blob, "missing"), None);
    }
}
