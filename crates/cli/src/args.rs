//! Tiny dependency-free argument parsing: `--key value` flags after a
//! subcommand, plus positional operands for the subcommands that take
//! them.

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
    /// Parses tokens (exclusive of the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Parsed, ArgError> {
        let mut iter = tokens.into_iter();
        let subcommand = iter.next().ok_or(ArgError::MissingSubcommand)?;
        if subcommand.starts_with('-') && subcommand != "-h" && subcommand != "--help" {
            return Err(ArgError::UnexpectedToken(subcommand));
        }
        let mut flags = BTreeMap::new();
        let mut operands = Vec::new();
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                if OPERAND_SUBCOMMANDS.contains(&subcommand.as_str()) {
                    operands.push(tok);
                    continue;
                }
                return Err(ArgError::UnexpectedToken(tok));
            };
            // `-o` style shorthand: we normalize `--o` too; only `-o` is
            // special-cased below for ergonomics.
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

    /// Parses tokens, accepting `-o` as an alias for `--out`.
    pub fn parse_with_aliases<I: IntoIterator<Item = String>>(
        tokens: I,
    ) -> Result<Parsed, ArgError> {
        let normalized: Vec<String> = tokens
            .into_iter()
            .map(|t| if t == "-o" { "--out".to_string() } else { t })
            .collect();
        Parsed::parse(normalized)
    }

    /// Required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Optional flag parsed to a type, with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }

    /// `true` iff a boolean flag (one of `BOOLEAN_FLAGS`) was given.
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(
            BOOLEAN_FLAGS.contains(&key),
            "--{key} is not registered as a boolean flag"
        );
        self.flags.contains_key(key)
    }

    /// Positional operands, in order (only for subcommands that take them).
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Every flag key; `run` checks them against the subcommand's table.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse_with_aliases(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let p = parse(&["map", "--phys", "a.json", "--seed", "7"]).unwrap();
        assert_eq!(p.subcommand, "map");
        assert_eq!(p.required("phys").unwrap(), "a.json");
        assert_eq!(p.parse_or("seed", 0u64).unwrap(), 7);
        assert_eq!(p.parse_or("reps", 5u32).unwrap(), 5);
    }

    #[test]
    fn o_alias_maps_to_out() {
        let p = parse(&["gen-cluster", "-o", "x.json"]).unwrap();
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
        assert_eq!(p.operands(), ["a.jsonl", "dir"]);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let p = parse(&["batch", "--quiet", "--reps", "3"]).unwrap();
        assert!(p.flag("quiet"));
        assert_eq!(p.parse_or("reps", 0u32).unwrap(), 3);
        let p = parse(&["batch", "--reps", "3"]).unwrap();
        assert!(!p.flag("quiet"));
        // Trailing boolean flag needs no value either.
        let p = parse(&["batch", "--quiet"]).unwrap();
        assert!(p.flag("quiet"));
        // Non-boolean flags keep their strict grammar.
        assert!(matches!(
            parse(&["map", "--phys"]),
            Err(ArgError::MissingValue(_))
        ));
    }

    #[test]
    fn missing_required_flag_reports_name() {
        let p = parse(&["map"]).unwrap();
        let err = p.required("venv").unwrap_err();
        assert!(err.contains("--venv"));
    }

    #[test]
    fn bad_numeric_value_reports_flag() {
        let p = parse(&["map", "--seed", "notanumber"]).unwrap();
        let err = p.parse_or("seed", 0u64).unwrap_err();
        assert!(err.contains("--seed"));
    }
}
