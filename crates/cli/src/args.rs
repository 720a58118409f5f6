//! Minimal flag parser for the `psvd` CLI (no external dependencies).
//!
//! Grammar: `psvd <command> [positional...] [--flag [value]]...`. Flags
//! either take one value (`--k 10`) or are boolean switches (`--low-rank`);
//! the parser records raw strings and typed accessors convert on demand.
//! A value flag given no value is recorded without one, so that
//! [`ParsedArgs::only`] can name it as unknown before it asks for the value.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `None` for a switch, and for a value flag given no value.
    flags: BTreeMap<String, Option<String>>,
}

/// Flags that never take a value.
const SWITCHES: &[&str] = &["low-rank", "help", "quiet", "full"];

impl ParsedArgs {
    /// Parse `argv` (excluding the program name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut command = String::new();
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty flag name '--'".into());
                }
                let value = if SWITCHES.contains(&name) {
                    None
                } else {
                    argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned()
                };
                i += usize::from(value.is_some());
                flags.insert(name.to_string(), value);
            } else if command.is_empty() {
                command = tok.clone();
            } else {
                positional.push(tok.clone());
            }
            i += 1;
        }
        if command.is_empty() {
            return Err("no command given (try `psvd help`)".into());
        }
        Ok(Self { command, positional, flags })
    }

    /// Is the boolean switch present?
    pub fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A string flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        match (self.get(name), self.flags.contains_key(name)) {
            (Some(v), _) => Ok(v),
            (None, true) => Err(format!("flag --{name} requires a value")),
            (None, false) => Err(format!("missing required flag --{name}")),
        }
    }

    /// A `usize` flag with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: expected an integer, got '{v}'")),
        }
    }

    /// A `usize` flag with a default that must be positive.
    pub fn positive_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.usize_or(name, default)? {
            0 => Err(format!("--{name} must be positive")),
            n => Ok(n),
        }
    }

    /// An `f64` flag with a default.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: expected a number, got '{v}'")),
        }
    }

    /// Refuse any flag outside `known` and the global `--threads`, naming
    /// the first one: a mistyped flag must not silently fall back to a
    /// default. Then refuse a known value flag given no value.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        if let Some(f) = self.flags.keys().find(|f| *f != "threads" && !known.contains(&f.as_str()))
        {
            return Err(format!(
                "unknown flag --{f} for `psvd {}` (try `psvd help`)",
                self.command
            ));
        }
        let valueless =
            |(f, v): &(&String, &Option<String>)| v.is_none() && !SWITCHES.contains(&f.as_str());
        match self.flags.iter().find(valueless) {
            Some((f, _)) => Err(format!("flag --{f} requires a value")),
            None => Ok(()),
        }
    }

    /// The sole positional argument, if the command requires exactly one.
    pub fn one_positional(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [p] => Ok(p),
            [] => Err(format!("missing {what}")),
            _ => Err(format!("expected exactly one {what}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ParsedArgs, String> {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&v)
    }

    #[test]
    fn command_and_positional() {
        let a = parse(&["svd", "data.ncs"]).unwrap();
        assert_eq!(a.command, "svd");
        assert_eq!(a.one_positional("input").unwrap(), "data.ncs");
    }

    #[test]
    fn value_flags_and_switches() {
        let a = parse(&["svd", "f.ncs", "--k", "10", "--low-rank", "--ff", "0.9"]).unwrap();
        assert_eq!(a.usize_or("k", 5).unwrap(), 10);
        assert!(a.switch("low-rank"));
        assert!((a.f64_or("ff", 1.0).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(a.usize_or("ranks", 1).unwrap(), 1); // default
    }

    #[test]
    fn full_is_a_switch() {
        let a = parse(&["reproduce", "--full", "extra"]).unwrap();
        assert!(a.switch("full"));
        assert_eq!(a.get("full"), None);
        assert_eq!(a.positional, ["extra"]);
    }

    #[test]
    fn missing_value_is_error() {
        for argv in [&["svd", "--k"][..], &["svd", "--k", "--low-rank"]] {
            let err = parse(argv).unwrap().only(&["k", "low-rank"]).unwrap_err();
            assert_eq!(err, "flag --k requires a value");
        }
        let err = parse(&["generate", "--out"]).unwrap().require("out").unwrap_err();
        assert_eq!(err, "flag --out requires a value");
    }

    #[test]
    fn bad_number_is_error() {
        let a = parse(&["svd", "--k", "ten"]).unwrap();
        assert!(a.usize_or("k", 1).is_err());
    }

    #[test]
    fn no_command_is_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--k", "3"]).is_err());
    }

    #[test]
    fn require_reports_flag_name() {
        let a = parse(&["generate"]).unwrap();
        let err = a.require("out").unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn positional_arity_checked() {
        let a = parse(&["svd", "a.ncs", "b.ncs"]).unwrap();
        assert!(a.one_positional("input").is_err());
        let b = parse(&["svd"]).unwrap();
        assert!(b.one_positional("input").is_err());
    }
}
