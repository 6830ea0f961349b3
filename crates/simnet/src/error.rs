use std::error::Error;
use std::fmt;

/// Error type for simulator construction and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A task referenced an unknown task id as a dependency.
    UnknownTask {
        /// The offending id value.
        id: usize,
    },
    /// A task referenced an unknown resource.
    UnknownResource {
        /// The offending id value.
        id: usize,
    },
    /// A task was given a negative or non-finite duration.
    BadDuration {
        /// Task name.
        task: String,
        /// Offending duration.
        duration: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownTask { id } => write!(f, "unknown task id {id}"),
            SimError::UnknownResource { id } => write!(f, "unknown resource id {id}"),
            SimError::BadDuration { task, duration } => {
                write!(f, "task {task:?} has invalid duration {duration}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        assert!(!SimError::UnknownTask { id: 3 }.to_string().is_empty());
    }
}
