//! Shared parsing for the `ESLAM_*` environment-override family.
//!
//! Every process-wide override (`ESLAM_MATCH_KERNEL`, `ESLAM_PREFETCH`,
//! `ESLAM_BACKEND`, `ESLAM_BANDS`, `ESLAM_TELEMETRY`, and the path
//! `ESLAM_ATLAS`, read by [`raw_value`]) follows one contract: unset,
//! empty and `auto` mean "no override — use the configured/detected
//! value" (paths have no `auto` keyword);
//! any other value must parse, and a typo panics loudly (so a CI-matrix
//! typo fails the job instead of silently testing the auto-detected
//! path). This module is that contract in one place; each subsystem
//! supplies only its value-set parser. The aggregated typed view of
//! all overrides lives in `eslam_core::overrides`.

/// Reads the forced value of `var`, if any.
///
/// * Unset, empty/whitespace, or `auto` (case-insensitive) → `None`
///   ("no override").
/// * Otherwise the trimmed, ASCII-lowercased value is handed to
///   `parse`; `Some(v)` is the forced value.
/// * `parse` returning `None` panics with
///   `unrecognised {var}={raw:?} (expected {expected})`, quoting the
///   original (untrimmed) value.
///
/// # Examples
///
/// ```
/// use eslam_features::envopt::forced;
///
/// // Unset variables force nothing.
/// let v = forced("ESLAM_DOCTEST_UNSET", "on or off", |s| match s {
///     "on" => Some(true),
///     "off" => Some(false),
///     _ => None,
/// });
/// assert_eq!(v, None);
/// ```
pub fn forced<T>(var: &str, expected: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let Ok(raw) = std::env::var(var) else {
        return None;
    };
    let value = raw.trim().to_ascii_lowercase();
    if value.is_empty() || value == "auto" {
        return None;
    }
    match parse(&value) {
        Some(v) => Some(v),
        None => panic!("unrecognised {var}={raw:?} (expected {expected})"),
    }
}

/// Reads `var` verbatim (trimmed, **not** lowercased) — for overrides
/// whose value is a path rather than a keyword, where case matters.
/// Unset or empty/whitespace → `None`; there is no `auto` keyword for
/// paths (a file literally named `auto` stays addressable).
pub fn raw_value(var: &str) -> Option<String> {
    let raw = std::env::var(var).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutations are process-global; each test uses its own unique
    // variable name so parallel execution cannot interleave.

    #[test]
    fn unset_empty_and_auto_force_nothing() {
        let parse = |s: &str| (s == "x").then_some(1);
        assert_eq!(forced("ESLAM_TEST_ENVOPT_UNSET", "x", parse), None);
        for v in ["", "  ", "auto", "AUTO", " Auto "] {
            std::env::set_var("ESLAM_TEST_ENVOPT_AUTO", v);
            assert_eq!(forced("ESLAM_TEST_ENVOPT_AUTO", "x", parse), None, "{v:?}");
        }
        std::env::remove_var("ESLAM_TEST_ENVOPT_AUTO");
    }

    #[test]
    fn values_are_trimmed_and_lowercased_before_parsing() {
        std::env::set_var("ESLAM_TEST_ENVOPT_CASE", "  ON ");
        let v = forced("ESLAM_TEST_ENVOPT_CASE", "on or off", |s| {
            (s == "on").then_some(true)
        });
        assert_eq!(v, Some(true));
        std::env::remove_var("ESLAM_TEST_ENVOPT_CASE");
    }

    #[test]
    #[should_panic(expected = "unrecognised ESLAM_TEST_ENVOPT_BAD=\"warp\"")]
    fn unparseable_values_panic_with_the_original_text() {
        std::env::set_var("ESLAM_TEST_ENVOPT_BAD", "warp");
        let _ = forced("ESLAM_TEST_ENVOPT_BAD", "on or off", |_| None::<bool>);
    }

    #[test]
    fn raw_values_keep_case_and_have_no_auto_keyword() {
        assert_eq!(raw_value("ESLAM_TEST_ENVOPT_RAW_UNSET"), None);
        std::env::set_var("ESLAM_TEST_ENVOPT_RAW", " /Maps/Auto.atlas ");
        assert_eq!(
            raw_value("ESLAM_TEST_ENVOPT_RAW").as_deref(),
            Some("/Maps/Auto.atlas")
        );
        std::env::set_var("ESLAM_TEST_ENVOPT_RAW", "auto");
        assert_eq!(raw_value("ESLAM_TEST_ENVOPT_RAW").as_deref(), Some("auto"));
        std::env::remove_var("ESLAM_TEST_ENVOPT_RAW");
    }
}
