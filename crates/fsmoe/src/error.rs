use std::error::Error;
use std::fmt;

/// Error type for MoE layer construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum MoeError {
    /// A configuration field was invalid.
    BadConfig {
        /// Which field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// An input tensor's shape did not match the configuration.
    BadInput {
        /// What was expected.
        expected: String,
        /// What was received.
        actual: Vec<usize>,
    },
    /// `backward` was called before `forward` (no saved activations).
    NoForwardState,
    /// A tensor operation failed.
    Tensor(tensor::TensorError),
    /// A collective operation failed.
    Comm(collectives::CommError),
    /// A checkpoint file could not be read or written.
    CheckpointIo {
        /// Path involved.
        path: String,
        /// Underlying I/O failure.
        reason: String,
    },
    /// A checkpoint's contents failed validation (truncated JSON,
    /// non-finite weights, …) and must not be restored.
    CorruptCheckpoint {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for MoeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoeError::BadConfig { field, reason } => {
                write!(f, "bad config field {field}: {reason}")
            }
            MoeError::BadInput { expected, actual } => {
                write!(f, "bad input: expected {expected}, got shape {actual:?}")
            }
            MoeError::NoForwardState => write!(f, "backward called before forward"),
            MoeError::Tensor(e) => write!(f, "tensor error: {e}"),
            MoeError::Comm(e) => write!(f, "communication error: {e}"),
            MoeError::CheckpointIo { path, reason } => {
                write!(f, "checkpoint I/O failed at {path}: {reason}")
            }
            MoeError::CorruptCheckpoint { reason } => {
                write!(f, "corrupt checkpoint rejected: {reason}")
            }
        }
    }
}

impl Error for MoeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MoeError::Tensor(e) => Some(e),
            MoeError::Comm(e) => Some(e),
            MoeError::BadConfig { .. }
            | MoeError::BadInput { .. }
            | MoeError::NoForwardState
            | MoeError::CheckpointIo { .. }
            | MoeError::CorruptCheckpoint { .. } => None,
        }
    }
}

impl From<tensor::TensorError> for MoeError {
    fn from(e: tensor::TensorError) -> Self {
        MoeError::Tensor(e)
    }
}

impl From<collectives::CommError> for MoeError {
    fn from(e: collectives::CommError) -> Self {
        MoeError::Comm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MoeError::BadConfig {
            field: "top_k",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("top_k"));
        assert!(e.source().is_none());

        let t = MoeError::from(tensor::TensorError::InvalidK { k: 3, axis_len: 2 });
        assert!(t.source().is_some());
        assert!(t.to_string().contains("tensor error"));

        let io = MoeError::CheckpointIo {
            path: "/tmp/ckpt.json".into(),
            reason: "permission denied".into(),
        };
        assert!(io.to_string().contains("/tmp/ckpt.json"));
        assert!(io.source().is_none());

        let corrupt = MoeError::CorruptCheckpoint {
            reason: "non-finite value in gate tensor".into(),
        };
        assert!(corrupt.to_string().contains("corrupt checkpoint"));
        assert!(corrupt.to_string().contains("non-finite"));
        assert_eq!(corrupt.clone(), corrupt);
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<MoeError>();
    }
}
