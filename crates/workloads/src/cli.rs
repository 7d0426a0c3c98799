//! The one command-line grammar every binary in the workspace parses.
//!
//! Every `--name` argument must be a declared flag (no value) or option
//! (takes a value, `--name value` or `--name=value`, repeatable); a
//! literal `--` ends the options. Anything else is a [`CliError`], which
//! each binary reports with its usage text and exit status 2. Values are
//! read through [`CliArgs::get`] and [`CliArgs::list`], whose errors name
//! the option, so a malformed value is a usage error too, never a panic
//! further down.

use crate::{Scale, Workload};
use multiscalar::SimConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

/// The argument vocabulary of one binary.
#[derive(Clone, Copy, Debug)]
pub struct CliSpec {
    /// Boolean flags, spelled with their leading dashes (e.g. `--list`).
    pub flags: &'static [&'static str],
    /// Value-taking options, spelled with their leading dashes. Options
    /// may repeat; values accumulate in order.
    pub options: &'static [&'static str],
}

/// Parsed arguments: which flags were present, option values in order of
/// appearance, and positional arguments in order.
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    /// Flags seen on the command line.
    pub flags: BTreeSet<String>,
    /// Option values, keyed by option name, in appearance order.
    pub options: BTreeMap<String, Vec<String>>,
    /// Positional arguments in order.
    pub positional: Vec<String>,
}

impl CliArgs {
    /// Whether `flag` (with dashes) was present.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains(flag)
    }

    /// All values given for `option` (with dashes), in order.
    pub fn values(&self, option: &str) -> &[String] {
        self.options.get(option).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The last value given for `option`, if any.
    pub fn value(&self, option: &str) -> Option<&str> {
        self.values(option).last().map(String::as_str)
    }

    /// The last value given for `option`, read by `read`; `None` when the
    /// option is absent.
    ///
    /// # Errors
    /// Returns a [`CliError`] naming the option and the value when `read`
    /// rejects it.
    pub fn get<T>(
        &self,
        option: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        self.value(option).map(|v| read(v).ok_or_else(|| invalid(option, v))).transpose()
    }

    /// The last value given for `option` as a comma-separated list, each
    /// item trimmed and read by `read`; `None` when the option is absent.
    ///
    /// # Errors
    /// Returns a [`CliError`] naming the option and the item when `read`
    /// rejects any item (an empty list has one empty item).
    pub fn list<T>(
        &self,
        option: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, CliError> {
        self.value(option)
            .map(|v| {
                v.split(',').map(|s| read(s.trim()).ok_or_else(|| invalid(option, s))).collect()
            })
            .transpose()
    }

    /// The workloads of `suite` that `--workloads` names (a
    /// comma-separated list, case-insensitive, in the order given), or
    /// the whole suite when the option is absent.
    ///
    /// # Errors
    /// Returns a [`CliError`] naming the first unknown workload.
    pub fn workloads<'a>(&self, suite: &'a [Workload]) -> Result<Vec<&'a Workload>, CliError> {
        let find = |n: &str| suite.iter().find(|w| w.name.eq_ignore_ascii_case(n));
        Ok(self.list("--workloads", find)?.unwrap_or_else(|| suite.iter().collect()))
    }

    /// `--scale test|full` (case-insensitive), or `default` without it.
    ///
    /// # Errors
    /// Returns a [`CliError`] naming any other value.
    pub fn scale(&self, default: Scale) -> Result<Scale, CliError> {
        Ok(self.get("--scale", Scale::parse)?.unwrap_or(default))
    }
}

/// Reads a number greater than zero (`--reps`, `--seeds`, …).
pub fn positive<T: FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// Reads a processing-unit count, 1 to [`SimConfig::MAX_UNITS`]
/// (`--units`, `ms<N>` machine names, …).
pub fn units(v: &str) -> Option<usize> {
    positive(v).filter(|&n| n <= SimConfig::MAX_UNITS)
}

/// Reads any value [`FromStr`] accepts (`--jobs`, `--seed-base`, names, …).
pub fn parsed<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn invalid(option: &str, value: &str) -> CliError {
    CliError(format!("invalid value `{value}` for `{option}`"))
}

/// A command line the spec, or a value read from it, rejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(String);

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError(msg.to_string())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses `args` (without the program name) against `spec`.
///
/// A literal `--` ends option parsing; everything after it is
/// positional. Any other argument starting with `-` that is not a
/// declared flag or option is rejected.
///
/// # Errors
/// Returns a [`CliError`] naming the offending argument for unknown
/// flags, a missing option value, or a value supplied to a plain flag.
pub fn parse_cli(
    spec: &CliSpec,
    args: impl IntoIterator<Item = String>,
) -> Result<CliArgs, CliError> {
    let mut parsed = CliArgs::default();
    let mut it = args.into_iter();
    let mut options_done = false;
    while let Some(arg) = it.next() {
        if options_done || arg == "-" || !arg.starts_with('-') {
            parsed.positional.push(arg);
            continue;
        }
        if arg == "--" {
            options_done = true;
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        if spec.flags.contains(&name.as_str()) {
            if inline.is_some() {
                return Err(CliError(format!("flag `{name}` does not take a value")));
            }
            parsed.flags.insert(name);
        } else if spec.options.contains(&name.as_str()) {
            let value = match inline {
                Some(v) => v,
                None => {
                    it.next().ok_or_else(|| CliError(format!("option `{name}` needs a value")))?
                }
            };
            parsed.options.entry(name).or_default().push(value);
        } else {
            return Err(CliError(format!("unknown option `{arg}`")));
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CliSpec =
        CliSpec { flags: &["--list"], options: &["--policy", "--workloads", "--units", "--scale"] };

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        parse_cli(&SPEC, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_options_and_positionals_separate() {
        let a = parse(&["--list", "--policy", "size=8", "--policy=size=16", "prog.s"]).unwrap();
        assert!(a.has("--list"));
        assert_eq!(a.values("--policy"), ["size=8", "size=16"]);
        assert_eq!(a.value("--policy"), Some("size=16"));
        assert_eq!(a.positional, ["prog.s"]);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let e = parse(&["--lsit", "prog.s"]).unwrap_err();
        assert!(e.to_string().contains("--lsit"), "{e}");
    }

    #[test]
    fn missing_option_value_is_rejected() {
        let e = parse(&["--policy"]).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
    }

    #[test]
    fn flag_with_value_is_rejected() {
        let e = parse(&["--list=yes"]).unwrap_err();
        assert!(e.to_string().contains("does not take a value"), "{e}");
    }

    #[test]
    fn double_dash_ends_option_parsing() {
        let a = parse(&["--", "--lsit"]).unwrap();
        assert_eq!(a.positional, ["--lsit"]);
    }

    #[test]
    fn typed_values_and_lists_name_the_option_on_error() {
        let a = parse(&["--units", "0"]).unwrap();
        let e = a.get("--units", positive::<usize>).unwrap_err();
        assert!(e.to_string().contains("--units") && e.to_string().contains("`0`"), "{e}");
        assert_eq!(a.get("--units", parsed::<usize>), Ok(Some(0)));
        assert_eq!(a.get("--policy", parsed::<usize>), Ok(None));

        let a = parse(&["--units", "4, 8"]).unwrap();
        assert_eq!(a.list("--units", positive::<usize>), Ok(Some(vec![4, 8])));
        for bad in ["4,", "", "4,x"] {
            let a = parse(&["--units", bad]).unwrap();
            let e = a.list("--units", positive::<usize>).unwrap_err();
            assert!(e.to_string().contains("--units"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn unit_counts_stop_at_the_machine_bound() {
        assert_eq!(units("1"), Some(1));
        assert_eq!(units("64"), Some(SimConfig::MAX_UNITS));
        for bad in ["0", "65", "100000", "-4", "four"] {
            assert_eq!(units(bad), None, "{bad}");
        }
    }

    #[test]
    fn scale_reads_either_case_and_defaults() {
        assert_eq!(parse(&[]).unwrap().scale(Scale::Full), Ok(Scale::Full));
        assert_eq!(parse(&["--scale", "TEST"]).unwrap().scale(Scale::Full), Ok(Scale::Test));
        assert!(parse(&["--scale", "huge"]).unwrap().scale(Scale::Full).is_err());
    }

    #[test]
    fn workloads_resolve_against_the_suite_in_order() {
        let suite = crate::suite(Scale::Test);
        let all = parse(&[]).unwrap().workloads(&suite).unwrap();
        assert_eq!(all.len(), suite.len());
        let two = parse(&["--workloads", "WC, cmp"]).unwrap().workloads(&suite).unwrap();
        assert_eq!(two.iter().map(|w| w.name).collect::<Vec<_>>(), ["Wc", "Cmp"]);
        let Err(e) = parse(&["--workloads", "wc,nosuch"]).unwrap().workloads(&suite) else {
            panic!("an unknown workload must be rejected")
        };
        assert!(e.to_string().contains("nosuch"), "{e}");
    }
}
