//! Error type for the Helios scheduler.

use helios_fl::FlError;
use std::error::Error;
use std::fmt;

/// Error returned by fallible Helios operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum HeliosError {
    /// An underlying federated-learning operation failed.
    Fl(FlError),
    /// Identification produced an unusable straggler set.
    Identification {
        /// Description of the problem.
        what: String,
    },
    /// No feasible model volume exists for a straggler.
    InfeasibleVolume {
        /// Offending client index.
        client: usize,
        /// Description of the violated constraint.
        what: String,
    },
    /// A configuration value is invalid.
    InvalidConfig {
        /// Description of the problem.
        what: String,
    },
}

impl fmt::Display for HeliosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeliosError::Fl(e) => write!(f, "federated operation failed: {e}"),
            HeliosError::Identification { what } => {
                write!(f, "straggler identification failed: {what}")
            }
            HeliosError::InfeasibleVolume { client, what } => {
                write!(f, "no feasible volume for client {client}: {what}")
            }
            HeliosError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl Error for HeliosError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HeliosError::Fl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlError> for HeliosError {
    fn from(e: FlError) -> Self {
        HeliosError::Fl(e)
    }
}

impl From<helios_nn::NnError> for HeliosError {
    fn from(e: helios_nn::NnError) -> Self {
        HeliosError::Fl(FlError::from(e))
    }
}

/// Adapts Helios errors onto the `helios_fl` error type, so the
/// strategy's round hooks propagate them with `?`.
impl From<HeliosError> for FlError {
    fn from(e: HeliosError) -> Self {
        match e {
            HeliosError::Fl(inner) => inner,
            other => FlError::InvalidStrategyConfig {
                what: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = HeliosError::InfeasibleVolume {
            client: 3,
            what: "memory".into(),
        };
        assert!(e.to_string().contains("client 3"));
        assert!(e.source().is_none());
        let e = HeliosError::from(FlError::InvalidStrategyConfig { what: "x".into() });
        assert!(e.source().is_some());
    }
}
