use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Error type for communicator and topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A group was requested over ranks outside the world.
    RankOutOfRange {
        /// Offending rank.
        rank: usize,
        /// World size.
        world_size: usize,
    },
    /// A group rank list was empty or contained duplicates.
    InvalidGroup {
        /// Human-readable reason.
        reason: String,
    },
    /// The caller is not a member of the group it tried to use.
    NotAMember {
        /// Caller's global rank.
        rank: usize,
    },
    /// Buffer length is incompatible with the collective.
    BadBufferLength {
        /// Name of the collective.
        op: &'static str,
        /// Provided length.
        len: usize,
        /// Group size it must relate to.
        group_size: usize,
    },
    /// A parallelism configuration does not tile the cluster.
    BadParallelism {
        /// Human-readable reason.
        reason: String,
    },
    /// A collective's deadline expired before every member joined.
    Timeout {
        /// Name of the collective that timed out.
        op: &'static str,
        /// Global ranks that had not joined (or drained) when the
        /// deadline expired.
        waiting_on: Vec<usize>,
        /// The budget the op was given: the deadline its communicator
        /// or group was armed with ([`crate::CommWorld::with_deadline`]).
        deadline: Duration,
        /// How long the caller actually waited before giving up —
        /// always `>= deadline`, the overshoot being poll granularity.
        elapsed: Duration,
    },
    /// A member of the group is known to be dead, so the collective can
    /// never complete. When the reporting rank *is* the dead rank, this
    /// is the error its own call returns.
    RankDown {
        /// The dead rank's global rank.
        rank: usize,
    },
    /// The group was poisoned: a member panicked mid-collective (or
    /// committed an SPMD violation), leaving the rendezvous state
    /// indeterminate. All subsequent collectives on the group fail.
    Poisoned {
        /// Global rank that poisoned the group.
        rank: usize,
    },
    /// The caller's op is behind the group's op stream: peers gave up on
    /// this exchange and moved past it, so the caller's deposit can never
    /// rendezvous with the intended peers. Retrying cannot succeed — the
    /// stream only advances; the caller must skip the op too
    /// ([`crate::GroupComm::skip_op`]) or fail upward.
    Abandoned {
        /// Name of the collective.
        op: &'static str,
        /// The caller's op-stream position.
        op_id: u64,
        /// The group's (strictly greater) current round id.
        stream_id: u64,
    },
    /// The world's membership changed: an eviction completed and this
    /// world is fenced. No collective on it can ever complete again —
    /// survivors must rebind through
    /// [`crate::Communicator::reconfigured`], which hands them a fresh
    /// communicator over the shrunken world (contiguous ranks, rebuilt
    /// groups, op streams starting from zero).
    Reconfigured {
        /// The membership epoch the world advanced to.
        epoch: u64,
    },
    /// Two ranks proposed evicting *different* victims in the same
    /// membership epoch. Exactly one eviction can be agreed per epoch;
    /// the losing proposer must re-propose after reconfiguring.
    EvictConflict {
        /// The victim this caller proposed.
        proposed: usize,
        /// The victim already under agreement.
        agreed: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankOutOfRange { rank, world_size } => {
                write!(f, "rank {rank} out of range for world of {world_size}")
            }
            CommError::InvalidGroup { reason } => write!(f, "invalid group: {reason}"),
            CommError::NotAMember { rank } => {
                write!(f, "rank {rank} is not a member of the group")
            }
            CommError::BadBufferLength {
                op,
                len,
                group_size,
            } => write!(
                f,
                "{op}: buffer length {len} incompatible with group size {group_size}"
            ),
            CommError::BadParallelism { reason } => {
                write!(f, "bad parallelism configuration: {reason}")
            }
            CommError::Timeout {
                op,
                waiting_on,
                deadline,
                elapsed,
            } => {
                write!(
                    f,
                    "{op}: deadline of {:.1}ms expired after {:.1}ms waiting on ranks {waiting_on:?}",
                    deadline.as_secs_f64() * 1e3,
                    elapsed.as_secs_f64() * 1e3
                )
            }
            CommError::RankDown { rank } => {
                write!(f, "rank {rank} is down; collective cannot complete")
            }
            CommError::Poisoned { rank } => {
                write!(f, "group poisoned by rank {rank} dying mid-collective")
            }
            CommError::Abandoned {
                op,
                op_id,
                stream_id,
            } => write!(
                f,
                "{op}: op {op_id} abandoned by peers (group op stream at {stream_id})"
            ),
            CommError::Reconfigured { epoch } => write!(
                f,
                "world reconfigured to membership epoch {epoch}; rebind via Communicator::reconfigured()"
            ),
            CommError::EvictConflict { proposed, agreed } => write!(
                f,
                "eviction conflict: proposed victim {proposed} but rank {agreed} is already under agreement"
            ),
        }
    }
}

impl Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CommError::RankOutOfRange {
            rank: 9,
            world_size: 4
        }
        .to_string()
        .contains("9"));
        assert!(CommError::BadBufferLength {
            op: "all_to_all",
            len: 7,
            group_size: 4
        }
        .to_string()
        .contains("all_to_all"));
        let timeout = CommError::Timeout {
            op: "all_to_all",
            waiting_on: vec![1, 3],
            deadline: Duration::from_millis(500),
            elapsed: Duration::from_millis(512),
        };
        assert!(timeout.to_string().contains("all_to_all"));
        assert!(timeout.to_string().contains("[1, 3]"));
        assert!(timeout.to_string().contains("500.0ms"));
        assert!(timeout.to_string().contains("512.0ms"));
        assert!(CommError::RankDown { rank: 2 }.to_string().contains("2"));
        assert!(CommError::Poisoned { rank: 5 }
            .to_string()
            .contains("poisoned"));
        let abandoned = CommError::Abandoned {
            op: "all_to_all",
            op_id: 3,
            stream_id: 5,
        };
        assert!(abandoned.to_string().contains("all_to_all"));
        assert!(abandoned.to_string().contains("abandoned"));
        assert!(abandoned.to_string().contains("3"));
        assert!(abandoned.to_string().contains("5"));
        let reconfigured = CommError::Reconfigured { epoch: 7 };
        assert!(reconfigured.to_string().contains("epoch 7"));
        assert!(reconfigured.to_string().contains("reconfigured"));
        let conflict = CommError::EvictConflict {
            proposed: 2,
            agreed: 3,
        };
        assert!(conflict.to_string().contains("2"));
        assert!(conflict.to_string().contains("3"));
        assert!(conflict.to_string().contains("conflict"));
    }

    #[test]
    fn fault_variants_are_clone_and_eq() {
        let t = CommError::Timeout {
            op: "barrier",
            waiting_on: vec![0],
            deadline: Duration::from_millis(10),
            elapsed: Duration::from_millis(11),
        };
        assert_eq!(t.clone(), t);
        assert_ne!(
            CommError::RankDown { rank: 1 },
            CommError::Poisoned { rank: 1 }
        );
        let a = CommError::Abandoned {
            op: "barrier",
            op_id: 0,
            stream_id: 1,
        };
        assert_eq!(a.clone(), a);
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CommError>();
    }
}
