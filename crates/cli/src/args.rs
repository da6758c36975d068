//! A tiny dependency-free argument parser: positional arguments plus
//! `--flag` and `--key value` options.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError {
    message: String,
}

impl ParseArgsError {
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for ParseArgsError {}

/// Parsed arguments: positionals in order, options by name.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `known_flags` take no value; every other
    /// `--key` consumes the following token as its value.
    ///
    /// # Errors
    ///
    /// Fails on a `--key` with no following value, or an unknown leading
    /// `-` token.
    pub fn parse(raw: &[String], known_flags: &[&str]) -> Result<Self, ParseArgsError> {
        let mut args = Args::default();
        let mut iter = raw.iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if known_flags.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    let value = iter.next().ok_or_else(|| {
                        ParseArgsError::new(format!("option --{name} needs a value"))
                    })?;
                    args.options.insert(name.to_string(), value.clone());
                }
            } else if token.starts_with('-') && token.len() > 1 {
                return Err(ParseArgsError::new(format!(
                    "unknown option `{token}` (only --long options are supported)"
                )));
            } else {
                args.positionals.push(token.clone());
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// A `--key value` option, parsed into `T`.
    ///
    /// # Errors
    ///
    /// Fails if the value does not parse as `T`.
    pub fn option<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ParseArgsError> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| ParseArgsError::new(format!("invalid value `{v}` for --{name}"))),
        }
    }

    /// `true` iff the flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Refuses every flag or option `command` does not take, so a
    /// mistyped or retired option fails instead of being ignored.
    ///
    /// # Errors
    ///
    /// Names the first unaccepted option, in alphabetical order.
    pub fn accept_only(&self, command: &str, accepted: &[&str]) -> Result<(), ParseArgsError> {
        let mut unknown: Vec<&str> = self
            .flags
            .iter()
            .chain(self.options.keys())
            .map(String::as_str)
            .filter(|name| !accepted.contains(name))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(name) => Err(ParseArgsError::new(format!(
                "unknown option --{name} for {command}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options() {
        let args = Args::parse(&raw(&["synth", "(7,8)", "--cb", "6"]), &["all"]).unwrap();
        assert_eq!(args.positional(0), Some("synth"));
        assert_eq!(args.positional(1), Some("(7,8)"));
        assert_eq!(args.option("cb", 7u32).unwrap(), 6);
        assert!(!args.flag("all"));
    }

    #[test]
    fn flags_take_no_value() {
        let args = Args::parse(&raw(&["synth", "--all", "(7,8)"]), &["all"]).unwrap();
        assert!(args.flag("all"));
        assert_eq!(args.positional(1), Some("(7,8)"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&raw(&["census", "--cb"]), &[]).is_err());
    }

    #[test]
    fn bad_option_value_is_an_error() {
        let args = Args::parse(&raw(&["census", "--cb", "x"]), &[]).unwrap();
        assert!(args.option("cb", 7u32).is_err());
    }

    #[test]
    fn default_applies_when_absent() {
        let args = Args::parse(&raw(&["census"]), &[]).unwrap();
        assert_eq!(args.option("cb", 7u32).unwrap(), 7);
    }

    #[test]
    fn short_options_rejected() {
        assert!(Args::parse(&raw(&["-c"]), &[]).is_err());
    }

    #[test]
    fn unknown_long_token_consumes_a_value_not_a_flag() {
        // `--bogus` is not a known flag, so it is treated as a `--key
        // value` option and must consume the next token.
        let args = Args::parse(&raw(&["--bogus", "x", "synth"]), &["all"]).unwrap();
        assert!(!args.flag("bogus"));
        assert_eq!(args.option("bogus", String::new()).unwrap(), "x");
        assert_eq!(args.positional(0), Some("synth"));
    }

    #[test]
    fn unknown_long_token_at_end_is_a_missing_value_error() {
        let err = Args::parse(&raw(&["--bogus"]), &["all"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"), "got: {err}");
    }

    #[test]
    fn missing_value_error_names_the_option() {
        let err = Args::parse(&raw(&["census", "--cb"]), &[]).unwrap_err();
        assert!(err.to_string().contains("--cb"), "got: {err}");
        assert!(err.to_string().contains("needs a value"), "got: {err}");
    }

    #[test]
    fn repeated_flags_are_idempotent() {
        let args = Args::parse(&raw(&["--all", "--all", "synth"]), &["all"]).unwrap();
        assert!(args.flag("all"));
        assert_eq!(args.positional(0), Some("synth"));
    }

    #[test]
    fn repeated_options_last_one_wins() {
        let args = Args::parse(&raw(&["--cb", "3", "--cb", "6"]), &[]).unwrap();
        assert_eq!(args.option("cb", 7u32).unwrap(), 6);
    }

    #[test]
    fn lone_dash_is_a_positional() {
        // A single `-` conventionally means stdin; the parser keeps it
        // positional rather than erroring.
        let args = Args::parse(&raw(&["-"]), &[]).unwrap();
        assert_eq!(args.positional(0), Some("-"));
    }

    #[test]
    fn empty_input_parses_to_defaults() {
        let args = Args::parse(&[], &["all"]).unwrap();
        assert_eq!(args.positional(0), None);
        assert!(!args.flag("all"));
        assert_eq!(args.option("cb", 7u32).unwrap(), 7);
    }

    #[test]
    fn usize_option_rejects_negatives() {
        let args = Args::parse(&raw(&["serve", "--workers", "8"]), &[]).unwrap();
        assert_eq!(args.option("workers", 4usize).unwrap(), 8);
        let args = Args::parse(&raw(&["serve"]), &[]).unwrap();
        assert_eq!(args.option("workers", 4usize).unwrap(), 4);
        let args = Args::parse(&raw(&["serve", "--workers", "-2"]), &[]).unwrap();
        assert!(args.option("workers", 4usize).is_err());
    }

    #[test]
    fn accept_only_names_the_first_unaccepted_option() {
        let args = Args::parse(&raw(&["census", "--cb", "4", "--all"]), &["all"]).unwrap();
        assert!(args.accept_only("synth", &["cb", "all"]).is_ok());
        let err = args.accept_only("census", &["cb"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --all for census");
        let args = Args::parse(&raw(&["census", "--zeta", "1", "--bogus", "2"]), &[]).unwrap();
        let err = args.accept_only("census", &["cb"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --bogus for census");
    }

    #[test]
    fn flag_lookup_distinguishes_flags_from_options() {
        // `--cb 6` is an option; querying it as a flag must stay false.
        let args = Args::parse(&raw(&["--cb", "6"]), &["all"]).unwrap();
        assert!(!args.flag("cb"));
    }
}
