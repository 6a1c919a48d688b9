//! The rule registry: the names [`crate::semantic`] and
//! [`crate::suppress`] report under.

/// Every `Ev` variant needs a `prof_attribution` arm and a reachable
/// journal/trace emission.
pub const EVENT_COVERAGE: &str = "event-coverage";
/// Nested `Mutex` acquisitions must follow `lint-locks.txt`.
pub const LOCK_ORDER: &str = "lock-order";
/// Meta: malformed/unused `lint:allow` suppressions.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// Every rule name, in the registry's canonical order.
pub const ALL_RULES: &[&str] = &[EVENT_COVERAGE, LOCK_ORDER, ALLOW_HYGIENE];

/// Rules a `lint:allow` may name (the meta rule is not suppressible —
/// a suppression of the suppression checker would be circular).
pub const SUPPRESSIBLE_RULES: &[&str] = &[EVENT_COVERAGE, LOCK_ORDER];

/// One-line description per rule, for `--list-rules`.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        EVENT_COVERAGE => "Ev variant without prof_attribution arm or reachable journal emission",
        LOCK_ORDER => "nested Mutex acquisition violating the declared lint-locks.txt order",
        ALLOW_HYGIENE => "malformed or unused lint:allow suppression",
        _ => "unknown rule",
    }
}
