use std::error::Error;
use std::fmt;

/// Errors produced by linear-algebra operations in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Cholesky factorization failed because the matrix is not positive
    /// definite even after adding the maximum jitter.
    NotPositiveDefinite {
        /// The jitter magnitude that was reached before giving up.
        max_jitter: f64,
    },
    /// An operation received an empty matrix or vector where data is required.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { max_jitter } => write!(
                f,
                "matrix is not positive definite (jitter up to {max_jitter:e} did not help)"
            ),
            LinalgError::Empty => write!(f, "operation requires non-empty data"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::NotPositiveDefinite { max_jitter: 1e-4 };
        assert!(e.to_string().contains("positive definite"));
        assert!(e.to_string().contains("1e-4"));
        assert!(LinalgError::Empty.to_string().contains("non-empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
