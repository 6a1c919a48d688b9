//! Shared hand-rolled CLI argument helpers.
//!
//! Both front-end binaries (`selfmaint` and `experiments`) parse their
//! small flag surfaces by hand — the project adds no dependency for it.
//! The helpers used to be copy-pasted between the two; they live here
//! once now, and they are *strict*: a flag value that fails to parse is
//! a hard usage error (exit 2), never a silent fall-back to the
//! default. `selfmaint run --days thirty` telling you about its mistake
//! beats it quietly simulating 30 days.

use std::fmt::Display;
use std::str::FromStr;

/// Is the bare flag `name` present?
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value following `--name`, if both are present.
pub fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parse the value of `--name`, falling back to `default` only when the
/// flag is *absent*. A present-but-unparseable value is an error — the
/// error text names the flag, the offending value, and why it failed.
pub fn parse_opt<T>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    match opt(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|e| format!("invalid value {raw:?} for {name}: {e}")),
    }
}

/// Parse the value of an *optional* `--name` with no default: `None`
/// when absent, `Some(v)` when present and valid, and an error when
/// present but unparseable.
pub fn parse_opt_maybe<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: FromStr,
    T::Err: Display,
{
    match opt(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|e| format!("invalid value {raw:?} for {name}: {e}")),
    }
}

/// [`parse_opt`], exiting with the conventional usage status (2) on a
/// bad value. For `main`-adjacent code only.
#[expect(
    clippy::print_stderr,
    reason = "usage errors must reach stderr before the exit; only binaries call the *_or_exit helpers"
)]
pub fn parse_opt_or_exit<T>(args: &[String], name: &str, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    parse_opt(args, name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// [`parse_opt_maybe`], exiting with status 2 on a bad value.
#[expect(
    clippy::print_stderr,
    reason = "usage errors must reach stderr before the exit; only binaries call the *_or_exit helpers"
)]
pub fn parse_opt_maybe_or_exit<T>(args: &[String], name: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    parse_opt_maybe(args, name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_and_opt_basics() {
        let a = args(&["--csv", "--seed", "7"]);
        assert!(flag(&a, "--csv"));
        assert!(!flag(&a, "--jsonl"));
        assert_eq!(opt(&a, "--seed"), Some("7"));
        assert_eq!(opt(&a, "--days"), None);
        // Flag at the end with no value.
        assert_eq!(opt(&args(&["--seed"]), "--seed"), None);
    }

    #[test]
    fn absent_flag_yields_default() {
        assert_eq!(parse_opt::<u64>(&args(&[]), "--days", 30), Ok(30));
    }

    #[test]
    fn present_valid_value_parses() {
        let a = args(&["--days", "14"]);
        assert_eq!(parse_opt::<u64>(&a, "--days", 30), Ok(14));
    }

    #[test]
    fn present_invalid_value_is_a_hard_error_not_the_default() {
        let a = args(&["--days", "thirty"]);
        let err = parse_opt::<u64>(&a, "--days", 30).unwrap_err();
        assert!(err.contains("\"thirty\""), "error names the value: {err}");
        assert!(err.contains("--days"), "error names the flag: {err}");
    }

    #[test]
    fn maybe_variant_distinguishes_absent_from_invalid() {
        assert_eq!(parse_opt_maybe::<usize>(&args(&[]), "--incident"), Ok(None));
        assert_eq!(
            parse_opt_maybe::<usize>(&args(&["--incident", "3"]), "--incident"),
            Ok(Some(3))
        );
        assert!(parse_opt_maybe::<usize>(&args(&["--incident", "x"]), "--incident").is_err());
    }
}
