//! Structured diagnostics shared by the audit scanner and model validators.
//!
//! Both static-analysis passes report through one [`Diagnostic`] shape: a
//! stable `SNxxx` code, a severity, a location (file:line for source lints,
//! a parameter path for model checks), a human message, and a fix hint.
//! Returning these instead of panicking lets callers surface *every*
//! problem with a configuration before a run starts, render them for
//! humans or machines, and test for exact codes.
//!
//! # Examples
//!
//! ```
//! use starnuma_types::{Diagnostic, Severity};
//!
//! let d = Diagnostic::error(
//!     "SN101",
//!     "SystemParams.mem_base",
//!     "local memory latency must be positive",
//!     "set mem_base to a positive nanosecond value (paper Table I: 80 ns)",
//! );
//! assert_eq!(d.code, "SN101");
//! assert_eq!(d.severity, Severity::Error);
//! assert!(d.to_string().contains("SN101"));
//! ```

use core::fmt;

use crate::json::{obj, Value};

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; does not fail validation.
    Warning,
    /// The model or source violates an invariant; fails validation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding from a lint pass or a model validator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable rule code (`SN001`–`SN004` source lints, `SN1xx` model checks).
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Where: `path/to/file.rs:line` or a parameter path like
    /// `RunConfig.pool_capacity_frac`.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
            hint: hint.into(),
        }
    }

    /// Whether this finding fails validation.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// The diagnostic as a JSON object: `code`, `severity`, `location`,
    /// `message`, `hint`, in that order.
    pub fn to_value(&self) -> Value {
        obj([
            ("code", self.code.into()),
            ("severity", self.severity.to_string().into()),
            ("location", self.location.as_str().into()),
            ("message", self.message.as_str().into()),
            ("hint", self.hint.as_str().into()),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}\n  hint: {}",
            self.severity, self.code, self.location, self.message, self.hint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_code_location_and_hint() {
        let d = Diagnostic::error(
            "SN103",
            "PolicyConfig.hi_min",
            "hi_min > hi_init",
            "lower hi_min",
        );
        let s = d.to_string();
        assert!(s.contains("error[SN103]"));
        assert!(s.contains("PolicyConfig.hi_min"));
        assert!(s.contains("hint: lower hi_min"));
    }

    #[test]
    fn warnings_do_not_fail_validation() {
        let w = Diagnostic::warning("SN105", "x", "m", "h");
        assert!(!w.is_error());
        assert!(Diagnostic::error("SN105", "x", "m", "h").is_error());
    }

    #[test]
    fn json_is_escaped() {
        let d = Diagnostic::error("SN001", "a\"b", "line\nbreak", "tab\there");
        let j = d.to_value().render();
        assert!(j.contains("a\\\"b"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("tab\\there"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }
}
