//! # omislice-lang
//!
//! A small, deterministic, C-like imperative language that serves as the
//! analysis substrate for the `omislice` fault locator (a reproduction of
//! *"Towards Locating Execution Omission Errors"*, PLDI 2007).
//!
//! The original paper instruments x86 binaries with Valgrind; this crate
//! replaces that substrate with a language whose programs have **stable
//! statement identities** ([`ast::StmtId`]), so that dynamic dependence
//! graphs, region trees, and predicate switching can be defined precisely
//! at the statement level — exactly the granularity the paper works at.
//!
//! ## Language summary
//!
//! * Items: `fn name(params) { ... }` and `global g = <literal>;`
//!   (including fixed-size integer arrays `global a = [0; 16];`).
//! * Statements: `let`, assignment, array store, `if`/`else`, `while`,
//!   `break`, `continue`, `return`, `print(e)`, and call statements.
//! * Expressions: integer/boolean literals, variables, array loads, calls,
//!   `input()` (reads the next integer from the test input), unary `-`/`!`,
//!   and the usual binary operators. `&&`/`||` evaluate both operands
//!   (no short-circuit), so expression evaluation introduces no hidden
//!   control dependences — every control dependence in a trace comes from
//!   an `if` or `while` predicate, matching the paper's model.
//!
//! ## Quick example
//!
//! ```
//! use omislice_lang::parse_program;
//!
//! let src = r#"
//!     fn main() {
//!         let x = input();
//!         if x > 0 { print(x); } else { print(0 - x); }
//!     }
//! "#;
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.functions().count(), 1);
//! ```

pub mod ast;
pub mod check;
pub mod diagnostics;
pub mod generate;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;

pub use ast::{BinOp, UnOp};
pub use ast::{
    Block, Expr, ExprId, ExprKind, FnDecl, Global, GlobalInit, Item, Program, Stmt, StmtId,
    StmtKind,
};
pub use check::{check_program, CheckError};
pub use diagnostics::{render_diagnostic, render_frontend_error};
pub use generate::{generate_case, GenOptions, GeneratedCase};
pub use index::{
    FnId, FnInfo, ProgramIndex, StmtInfo, StmtRole, VarId, VarInfo, VarKind, VarTable,
};
pub use parser::{parse_program, ParseError};
pub use span::{SourceMap, Span};

/// Parses and semantically checks a program in one step.
///
/// This is the entry point most tools want: it guarantees that the returned
/// [`Program`] has a `main` function, that all calls resolve with the right
/// arity, and that `break`/`continue` appear only inside loops.
///
/// # Errors
///
/// Returns [`FrontendError::Parse`] for syntax errors and
/// [`FrontendError::Check`] for semantic errors.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), omislice_lang::FrontendError> {
/// let program = omislice_lang::compile("fn main() { print(42); }")?;
/// assert_eq!(program.stmt_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn compile(source: &str) -> Result<Program, FrontendError> {
    let _span = omislice_obs::span("parse");
    let program = parse_program(source)?;
    check_program(&program)?;
    Ok(program)
}

/// Error produced by [`compile`]: either a syntax or a semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// The source text failed to parse.
    Parse(ParseError),
    /// The program parsed but failed semantic validation.
    Check(CheckError),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "parse error: {e}"),
            FrontendError::Check(e) => write!(f, "check error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontendError::Parse(e) => Some(e),
            FrontendError::Check(e) => Some(e),
        }
    }
}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<CheckError> for FrontendError {
    fn from(e: CheckError) -> Self {
        FrontendError::Check(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_accepts_valid_program() {
        let p = compile("fn main() { let x = 1; print(x); }").unwrap();
        assert_eq!(p.stmt_count(), 2);
    }

    #[test]
    fn compile_rejects_syntax_error() {
        let err = compile("fn main() { let = ; }").unwrap_err();
        assert!(matches!(err, FrontendError::Parse(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn compile_rejects_missing_main() {
        let err = compile("fn helper() { print(1); }").unwrap_err();
        assert!(matches!(err, FrontendError::Check(_)));
    }

    #[test]
    fn frontend_error_exposes_source() {
        use std::error::Error;
        let err = compile("fn main() { let = ; }").unwrap_err();
        assert!(err.source().is_some());
    }
}
