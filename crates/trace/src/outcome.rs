//! Structured run outcomes for the verification engine.
//!
//! The paper's §4.2 acknowledges that a switched re-execution is a
//! hostile environment: negating a branch can send the program into an
//! infinite loop (handled by the "expired timer" — our step budget) or
//! crash it outright (wild index, spurious call, division by zero).
//! [`RunOutcome`] classifies how each switched run ended so the verifier
//! can count, report, and degrade gracefully instead of panicking, and
//! [`CrashKind`] names the specific failure class of a crashed run.

use std::fmt;

/// The specific failure class of a crashed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CrashKind {
    /// Array access with a negative or too-large index.
    OobIndex,
    /// Call to a function the program does not define (possible only on
    /// unchecked programs; checked programs catch this statically).
    MissingCallee,
    /// Integer division or remainder by zero.
    DivByZero,
    /// Operand/shape mismatch: wrong operand types, array used as a
    /// scalar, unknown variable, non-integer index.
    TypeError,
    /// Call depth exceeded the interpreter's stack limit.
    StackOverflow,
    /// A variable was read before any assignment reached it.
    UninitRead,
    /// A host-level panic escaped the interpreter and was caught at the
    /// isolation boundary (only injected faults do this in practice).
    Panic,
}

impl CrashKind {
    /// Stable machine-readable name, used in run-outcome text
    /// (`crashed(div-by-zero)`) and journals. Fault plans spell crash
    /// actions their own way (`oob`, `div-zero`, …) in the plan's action
    /// table.
    pub fn as_str(self) -> &'static str {
        match self {
            CrashKind::OobIndex => "oob-index",
            CrashKind::MissingCallee => "missing-callee",
            CrashKind::DivByZero => "div-by-zero",
            CrashKind::TypeError => "type-error",
            CrashKind::StackOverflow => "stack-overflow",
            CrashKind::UninitRead => "uninit-read",
            CrashKind::Panic => "panic",
        }
    }
}

impl fmt::Display for CrashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How one switched re-execution fared, as the verifier sees it.
///
/// `Completed` is the only outcome under which a verdict can be judged
/// from the switched trace; every other value makes the verification
/// fail conservatively (`NotId`), mirroring the paper's rule that an
/// expired timer "aggressively concludes the verification fails".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The switched run terminated normally with the switch landed.
    Completed,
    /// The step budget (the paper's timer) expired, even after every
    /// escalation attempt.
    BudgetExhausted,
    /// The run crashed with the given failure class.
    Crashed(CrashKind),
    /// The run terminated normally but the switch never landed (the
    /// instance was not reached — e.g. an earlier switch changed the
    /// path, or the occurrence lies beyond the run).
    SwitchNotLanded,
    /// A checkpoint failed validation (or resumption itself failed) and
    /// no from-scratch fallback was possible.
    CheckpointInvalid,
}

impl RunOutcome {
    /// Whether a verdict may be judged from the switched trace.
    pub fn is_usable(self) -> bool {
        self == RunOutcome::Completed
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => f.write_str("completed"),
            RunOutcome::BudgetExhausted => f.write_str("budget-exhausted"),
            RunOutcome::Crashed(kind) => write!(f, "crashed({kind})"),
            RunOutcome::SwitchNotLanded => f.write_str("switch-not-landed"),
            RunOutcome::CheckpointInvalid => f.write_str("checkpoint-invalid"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_completed_is_usable() {
        assert!(RunOutcome::Completed.is_usable());
        for o in [
            RunOutcome::BudgetExhausted,
            RunOutcome::Crashed(CrashKind::OobIndex),
            RunOutcome::SwitchNotLanded,
            RunOutcome::CheckpointInvalid,
        ] {
            assert!(!o.is_usable(), "{o}");
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(RunOutcome::Completed.to_string(), "completed");
        assert_eq!(
            RunOutcome::Crashed(CrashKind::DivByZero).to_string(),
            "crashed(div-by-zero)"
        );
        assert_eq!(CrashKind::StackOverflow.to_string(), "stack-overflow");
        assert_eq!(CrashKind::Panic.as_str(), "panic");
    }
}
