//! Cooperative solve budgets: deadlines, edge limits, and cancellation.
//!
//! The fixpoint solver is monotone and always terminates, but "terminates"
//! can still mean arbitrarily long on a pathological or adversarial
//! program. A [`Budget`] bounds a run *cooperatively*: the solver checks it
//! at iteration boundaries, so a completed run is byte-identical with or
//! without a budget — the checks are read-only and never alter the rule
//! schedule — while an exceeded run returns a typed [`SolveError`] instead
//! of hanging.
//!
//! Check placement (and why determinism holds):
//!
//! - **edge limit & cancellation**: after every statement firing. Both are
//!   cheap — an `O(1)` edge-count read and one relaxed atomic load.
//! - **deadline**: before the first iteration and then every
//!   [`TIME_CHECK_INTERVAL`] firings, because `Instant::now()` is
//!   comparatively expensive.
//!
//! Neither check mutates solver state, so two runs with the same inputs
//! that both complete produce identical edge sets; runs that exceed the
//! same budget kind return the same [`SolveError`] value (the *error* is
//! deterministic even though the partial state at abort is not — partial
//! state is discarded).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many iterations pass between deadline checks.
pub const TIME_CHECK_INTERVAL: u32 = 256;

/// A cooperative resource budget for one solver run.
///
/// Cloning shares the cancellation flag (that is the point: hand a clone to
/// the solver, keep [`cancel_handle`](Budget::cancel_handle) to flip it
/// from another thread). The default budget is unlimited.
///
/// # Examples
///
/// ```
/// use structcast::Budget;
/// use std::time::Duration;
///
/// let b = Budget::unlimited()
///     .with_deadline_in(Duration::from_millis(500))
///     .with_max_edges(1_000_000);
/// assert!(!b.is_unlimited());
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    /// Absolute wall-clock deadline; `None` = no time limit.
    pub deadline: Option<Instant>,
    /// Maximum points-to edges the run may derive; `None` = no limit.
    /// Exceeding means *strictly more than* `max_edges` edges exist.
    pub max_edges: Option<usize>,
    /// Cooperative cancellation flag, polled at check points.
    pub cancel: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits (the default for every config).
    pub fn unlimited() -> Budget {
        Budget {
            deadline: None,
            max_edges: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `d` from now. `Duration::ZERO` makes every run
    /// fail immediately with [`SolveError::DeadlineExceeded`] — useful for
    /// testing the error path.
    pub fn with_deadline_in(self, d: Duration) -> Budget {
        self.with_deadline(Instant::now() + d)
    }

    /// Caps the number of points-to edges the run may derive.
    pub fn with_max_edges(mut self, max: usize) -> Budget {
        self.max_edges = Some(max);
        self
    }

    /// True when no limit of any kind is set and the cancel flag can never
    /// be observed set (nothing else holds the flag).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_edges.is_none()
            && !self.cancel.load(Ordering::Relaxed)
            && Arc::strong_count(&self.cancel) == 1
    }

    /// The shared cancellation flag: store `true` to make the solver
    /// return [`SolveError::Cancelled`] at its next check point.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The cheap per-iteration check: cancellation, then the edge cap.
    /// Returns the violation, if any.
    #[inline]
    pub fn exceeded(&self, edges: usize) -> Option<SolveError> {
        if self.cancel.load(Ordering::Relaxed) {
            return Some(SolveError::Cancelled);
        }
        if let Some(max) = self.max_edges {
            if edges > max {
                return Some(SolveError::EdgeLimit { limit: max });
            }
        }
        None
    }

    /// The (pricier) wall-clock check, run every
    /// [`TIME_CHECK_INTERVAL`] iterations.
    #[inline]
    pub fn time_exceeded(&self) -> Option<SolveError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(SolveError::DeadlineExceeded),
            _ => None,
        }
    }
}

/// Why a budgeted solve was aborted. The value is deterministic for a
/// given program + budget kind; partial solver state
/// is discarded on abort, so an aborted session can keep solving other
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The wall-clock deadline passed before the fixpoint was reached.
    DeadlineExceeded,
    /// More than `limit` points-to edges were derived.
    EdgeLimit {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// The budget's cancellation flag was set.
    Cancelled,
}

impl SolveError {
    /// The stable machine-readable kind string used by the query
    /// protocol's error grammar (`{"error": {"kind": ...}}`).
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::DeadlineExceeded => "deadline",
            SolveError::EdgeLimit { .. } => "edge_limit",
            SolveError::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DeadlineExceeded => write!(f, "solve deadline exceeded"),
            SolveError::EdgeLimit { limit } => {
                write!(f, "solve exceeded the edge limit ({limit})")
            }
            SolveError::Cancelled => write!(f, "solve cancelled"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.exceeded(usize::MAX).is_none());
        assert!(b.time_exceeded().is_none());
    }

    #[test]
    fn edge_cap_is_strictly_greater_than() {
        let b = Budget::unlimited().with_max_edges(10);
        assert!(!b.is_unlimited());
        assert!(b.exceeded(10).is_none(), "at the cap is still fine");
        assert_eq!(b.exceeded(11), Some(SolveError::EdgeLimit { limit: 10 }));
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let b = Budget::unlimited().with_deadline_in(Duration::ZERO);
        assert_eq!(b.time_exceeded(), Some(SolveError::DeadlineExceeded));
        let b = Budget::unlimited().with_deadline_in(Duration::from_secs(3600));
        assert!(b.time_exceeded().is_none());
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        assert!(!clone.is_unlimited(), "a second handle can cancel it");
        b.cancel_handle().store(true, Ordering::Relaxed);
        assert_eq!(clone.exceeded(0), Some(SolveError::Cancelled));
        // Cancellation wins over the edge cap when both apply.
        let both = clone.with_max_edges(0);
        assert_eq!(both.exceeded(1), Some(SolveError::Cancelled));
    }

    #[test]
    fn error_display_and_kinds() {
        assert_eq!(SolveError::DeadlineExceeded.kind(), "deadline");
        assert_eq!(SolveError::EdgeLimit { limit: 3 }.kind(), "edge_limit");
        assert_eq!(SolveError::Cancelled.kind(), "cancelled");
        assert!(SolveError::EdgeLimit { limit: 3 }.to_string().contains("(3)"));
        let e: Box<dyn std::error::Error> = Box::new(SolveError::Cancelled);
        assert_eq!(e.to_string(), "solve cancelled");
    }
}
