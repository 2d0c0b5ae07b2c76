//! Tiny dependency-free argument parsing: `--key value` flags after a
//! subcommand, plus positional operands for the subcommands that take
//! them. Reading a flag removes it, and [`Parsed::finish`] rejects any
//! flag that no reader took.

use crate::commands::CliError;
use std::collections::BTreeMap;

/// Parsing failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand supplied.
    MissingSubcommand,
    /// A `--flag` had no value.
    MissingValue(String),
    /// A token that is not a flag appeared where a flag was expected.
    UnexpectedToken(String),
    /// A flag appeared twice.
    Duplicate(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingSubcommand => write!(f, "missing subcommand"),
            ArgError::MissingValue(k) => write!(f, "flag {k} needs a value"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected token '{t}'"),
            ArgError::Duplicate(k) => write!(f, "flag {k} given twice"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that take no value: presence alone means `true`. Everything
/// else keeps the strict `--key value` grammar (and its `MissingValue`
/// diagnostics).
const BOOLEAN_FLAGS: &[&str] = &["quiet", "help"];

/// Subcommands whose non-flag tokens are operands (files to read) rather
/// than parse errors.
const OPERAND_SUBCOMMANDS: &[&str] = &["trace-check"];

/// A parsed command line: subcommand plus `--key value` pairs.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    /// The subcommand (first positional token).
    pub subcommand: String,
    flags: BTreeMap<String, String>,
    operands: Vec<String>,
}

impl Parsed {
    /// Parses tokens (exclusive of the program name), accepting `-o` as
    /// an alias for `--out`.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Parsed, ArgError> {
        let mut iter = tokens.into_iter();
        let subcommand = iter.next().ok_or(ArgError::MissingSubcommand)?;
        if subcommand.starts_with('-') && subcommand != "-h" && subcommand != "--help" {
            return Err(ArgError::UnexpectedToken(subcommand));
        }
        let mut flags = BTreeMap::new();
        let mut operands = Vec::new();
        while let Some(tok) = iter.next() {
            let tok = if tok == "-o" {
                "--out".to_string()
            } else {
                tok
            };
            let Some(key) = tok.strip_prefix("--") else {
                if OPERAND_SUBCOMMANDS.contains(&subcommand.as_str()) {
                    operands.push(tok);
                    continue;
                }
                return Err(ArgError::UnexpectedToken(tok));
            };
            let value = if BOOLEAN_FLAGS.contains(&key) {
                "true".to_string()
            } else {
                iter.next()
                    .ok_or_else(|| ArgError::MissingValue(tok.clone()))?
            };
            if flags.insert(key.to_string(), value).is_some() {
                return Err(ArgError::Duplicate(tok));
            }
        }
        Ok(Parsed {
            subcommand,
            flags,
            operands,
        })
    }

    /// Required string flag, removed from the unread set.
    pub fn required(&mut self, key: &str) -> Result<String, CliError> {
        self.optional(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Optional string flag, removed from the unread set.
    pub fn optional(&mut self, key: &str) -> Option<String> {
        self.flags.remove(key)
    }

    /// Optional flag parsed to a type, with a default.
    pub fn parse_or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, CliError> {
        match self.optional(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse '{v}'"))),
        }
    }

    /// [`parse_or`](Self::parse_or) for a count, where zero means nothing
    /// to do and is a usage error.
    pub fn count<T>(&mut self, key: &str, default: T) -> Result<T, CliError>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        let n = self.parse_or(key, default)?;
        if n == T::default() {
            return Err(CliError::Usage(format!("--{key} must be at least 1")));
        }
        Ok(n)
    }

    /// `true` iff a boolean flag (one of `BOOLEAN_FLAGS`) was given.
    pub fn flag(&mut self, key: &str) -> bool {
        debug_assert!(
            BOOLEAN_FLAGS.contains(&key),
            "--{key} is not registered as a boolean flag"
        );
        self.optional(key).is_some()
    }

    /// Ends the reading and returns the positional operands (only
    /// subcommands that take them have any). Any flag the subcommand did
    /// not read is a usage error, so none is silently ignored; consuming
    /// `self` means no flag can be read after this check.
    pub fn finish(self) -> Result<Vec<String>, CliError> {
        match self.flags.keys().next() {
            Some(key) => Err(CliError::Usage(format!(
                "unknown flag --{key} for '{}'",
                self.subcommand
            ))),
            None => Ok(self.operands),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let mut p = parse(&["map", "--phys", "a.json", "--seed", "7"]).unwrap();
        assert_eq!(p.subcommand, "map");
        assert_eq!(p.required("phys").unwrap(), "a.json");
        assert_eq!(p.parse_or("seed", 0u64).unwrap(), 7);
        assert_eq!(p.parse_or("reps", 5u32).unwrap(), 5);
        // Reading consumes: a second read sees the default.
        assert_eq!(p.parse_or("seed", 0u64).unwrap(), 0);
        p.finish().unwrap();
    }

    #[test]
    fn o_alias_maps_to_out() {
        let mut p = parse(&["gen-cluster", "-o", "x.json"]).unwrap();
        assert_eq!(p.required("out").unwrap(), "x.json");
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(parse(&[]), Err(ArgError::MissingSubcommand)));
        assert!(matches!(
            parse(&["map", "--phys"]),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            parse(&["map", "phys"]),
            Err(ArgError::UnexpectedToken(_))
        ));
        assert!(matches!(
            parse(&["map", "--a", "1", "--a", "2"]),
            Err(ArgError::Duplicate(_))
        ));
    }

    #[test]
    fn trace_check_takes_operands() {
        let p = parse(&["trace-check", "a.jsonl", "dir"]).unwrap();
        assert_eq!(p.finish().unwrap(), ["a.jsonl", "dir"]);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let mut p = parse(&["batch", "--quiet", "--reps", "3"]).unwrap();
        assert!(p.flag("quiet"));
        assert_eq!(p.parse_or("reps", 0u32).unwrap(), 3);
        let mut p = parse(&["batch", "--reps", "3"]).unwrap();
        assert!(!p.flag("quiet"));
        // Trailing boolean flag needs no value either.
        let mut p = parse(&["batch", "--quiet"]).unwrap();
        assert!(p.flag("quiet"));
        // Non-boolean flags keep their strict grammar.
        assert!(matches!(
            parse(&["map", "--phys"]),
            Err(ArgError::MissingValue(_))
        ));
    }

    #[test]
    fn missing_required_flag_reports_name() {
        let mut p = parse(&["map"]).unwrap();
        let Err(CliError::Usage(err)) = p.required("venv") else {
            panic!("a missing flag is a usage error");
        };
        assert!(err.contains("--venv"));
    }

    #[test]
    fn bad_numeric_value_reports_flag() {
        let mut p = parse(&["map", "--seed", "notanumber"]).unwrap();
        let Err(CliError::Usage(err)) = p.parse_or("seed", 0u64) else {
            panic!("an unparsable value is a usage error");
        };
        assert!(err.contains("--seed"));
    }
}
