//! Error type for the arbordb engine.

use std::fmt;

use micrograph_common::CommonError;

/// Errors produced by the arbordb engine.
#[derive(Debug)]
pub enum ArborError {
    /// Storage-layer failure (I/O, corruption, missing page).
    Store(CommonError),
    /// A node or relationship id referenced a non-existent or deleted record.
    RecordNotFound(String),
    /// Unknown label / relationship type / property key name.
    UnknownName(String),
    /// The operation is invalid in the current state.
    InvalidState(String),
    /// Malformed bulk-load input.
    Malformed(String),
}

impl fmt::Display for ArborError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArborError::Store(e) => write!(f, "storage error: {e}"),
            ArborError::RecordNotFound(m) => write!(f, "record not found: {m}"),
            ArborError::UnknownName(m) => write!(f, "unknown name: {m}"),
            ArborError::InvalidState(m) => write!(f, "invalid state: {m}"),
            ArborError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for ArborError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArborError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommonError> for ArborError {
    fn from(e: CommonError) -> Self {
        ArborError::Store(e)
    }
}

impl From<std::io::Error> for ArborError {
    fn from(e: std::io::Error) -> Self {
        ArborError::Store(CommonError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ArborError::RecordNotFound("node 3".into())
            .to_string()
            .contains("node 3"));
        assert!(ArborError::UnknownName("label x".into())
            .to_string()
            .contains("label x"));
        let io = ArborError::from(std::io::Error::other("disk gone"));
        assert!(io.to_string().contains("disk gone"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
