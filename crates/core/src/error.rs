//! The crate-wide error type.
//!
//! The [`Comparator`] facade validates its configuration once, at
//! construction, and this module gives it a single error enum to return.
//! Fallible entry points of other crates (constraint discovery, the
//! cleaning FD constructor) return the same enum.
//!
//! [`Comparator`]: crate::comparator::Comparator

pub use crate::score::ConfigError;
use std::fmt;
use std::time::Duration;

/// Any error an `ic-core` entry point can return.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The scoring configuration is unusable (NaN/out-of-range λ, …).
    Config(ConfigError),
    /// A strict comparison did not finish within its budget: the wall-clock
    /// budget or node limit expired before the result was complete
    /// (signature run timed out, or exact search stopped non-optimal).
    Budget {
        /// The configured wall-clock budget, if one was set.
        budget: Option<Duration>,
        /// Wall-clock time actually spent before giving up.
        elapsed: Duration,
    },
    /// An instance does not fit the comparator's catalog: it was created
    /// for a different number of relations, so tuple/relation ids would be
    /// interpreted against the wrong schema.
    SchemaMismatch {
        /// Relations in the comparator's catalog schema.
        expected: usize,
        /// Relations the offending instance was created with.
        found: usize,
    },
    /// A name lookup against the catalog schema failed: the caller named a
    /// relation or attribute the schema does not define (e.g.
    /// `ic-cleaning`'s fallible FD constructor).
    UnknownName {
        /// What kind of name failed to resolve: `"relation"` or
        /// `"attribute"`.
        kind: &'static str,
        /// The name that did not resolve.
        name: String,
    },
}

impl Error {
    /// A stable machine-readable code naming the failure class — the
    /// contract service layers (e.g. `ic-serve`) map onto typed wire error
    /// payloads. One string per variant; existing strings never change.
    pub fn code(&self) -> &'static str {
        match self {
            Self::Config(_) => "config",
            Self::Budget { .. } => "budget",
            Self::SchemaMismatch { .. } => "schema_mismatch",
            Self::UnknownName { .. } => "unknown_name",
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::Budget { budget, elapsed } => match budget {
                Some(b) => write!(
                    f,
                    "budget of {b:?} exhausted after {elapsed:?} without a complete result"
                ),
                None => write!(
                    f,
                    "search stopped after {elapsed:?} without a complete result"
                ),
            },
            Self::SchemaMismatch { expected, found } => write!(
                f,
                "instance does not match the catalog schema: expected {expected} relations, \
                 instance was built for {found}"
            ),
            Self::UnknownName { kind, name } => {
                write!(f, "unknown {kind} {name:?} (not in the catalog schema)")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = Error::from(ConfigError::LambdaOutOfRange(1.5));
        assert!(e.to_string().contains("1.5"));
        assert!(std::error::Error::source(&e).is_some());

        let b = Error::Budget {
            budget: Some(Duration::from_millis(5)),
            elapsed: Duration::from_millis(7),
        };
        assert!(b.to_string().contains("5ms"));
        assert!(std::error::Error::source(&b).is_none());

        let s = Error::SchemaMismatch {
            expected: 2,
            found: 3,
        };
        assert!(s.to_string().contains("2 relations"));

        let u = Error::UnknownName {
            kind: "relation",
            name: "Nope".into(),
        };
        assert!(u.to_string().contains("unknown relation \"Nope\""));
        assert_eq!(u.code(), "unknown_name");
    }
}
