//! SenseScript — the sensing-task description language of SOR.
//!
//! §II-A of the paper: "How to sense, i.e., what data to acquire, is
//! described using the Lua scripting language … The interpreter can
//! interpret both Lua's own functions and the functions we defined for
//! data acquisition. … Note that security can be enforced here by only
//! allowing a white list of unharmful functions to be called."
//!
//! SenseScript is a from-scratch Lua-subset implementation with exactly
//! the properties the paper relies on:
//!
//! - **Procedural syntax with tables**: `local`, `if/elseif/else`,
//!   `while`, numeric `for`, functions with closures, associative
//!   tables (`{1, 2, x = 3}`), the operators of Lua (including `..`
//!   concatenation, `~=`, `#`).
//! - **Host-function whitelist**: scripts can only call functions
//!   registered through [`host::HostRegistry`] — the data-acquisition
//!   functions of the paper (`get_light_readings()`, `get_location()`,
//!   …) are provided by the mobile frontend crate; anything else is a
//!   runtime error, never an escape hatch.
//! - **Bounded execution**: an instruction budget aborts runaway scripts
//!   (a malformed `while true do end` cannot wedge a task thread).
//!
//! # Example
//!
//! ```
//! use sor_script::{Interpreter, Value};
//!
//! let src = r#"
//!     local sum = 0
//!     for i = 1, 10 do
//!         sum = sum + i
//!     end
//!     return sum
//! "#;
//! let mut interp = Interpreter::new();
//! let result = interp.run(src)?;
//! assert_eq!(result, Value::Number(55.0));
//! # Ok::<(), sor_script::ScriptError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod bytecode;
pub mod host;
pub mod interp;
pub mod lexer;
pub mod ops;
pub mod parser;
pub mod stdlib;
pub mod token;
pub mod value;

pub use bytecode::{compile, CacheOutcome, CacheStats, CompiledModule, Prepared, ScriptCache, Vm};
pub use host::{HostContext, HostFn, HostRegistry};
pub use interp::Interpreter;
pub use value::Value;

/// Source position for diagnostics (1-based line, 1-based column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors from lexing, parsing or executing SenseScript.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// A character the lexer does not understand.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Where it was found.
        at: Pos,
    },
    /// An unterminated string literal.
    UnterminatedString {
        /// Where the string started.
        at: Pos,
    },
    /// A malformed numeric literal.
    BadNumber {
        /// The raw text.
        text: String,
        /// Where it started.
        at: Pos,
    },
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// Human rendering of the found token.
        found: String,
        /// What was expected.
        expected: &'static str,
        /// Where.
        at: Pos,
    },
    /// A runtime type error, e.g. adding a string to a table.
    TypeError {
        /// Description of the violation.
        message: String,
        /// Where (statement/expression position).
        at: Pos,
    },
    /// Use of a variable that was never defined (strict mode: SenseScript
    /// has no implicit global creation on *read*).
    UndefinedVariable {
        /// The name.
        name: String,
        /// Where.
        at: Pos,
    },
    /// A call to a host function that is not on the whitelist.
    ForbiddenFunction {
        /// The name the script tried to call.
        name: String,
        /// Where.
        at: Pos,
    },
    /// The instruction budget was exhausted.
    BudgetExhausted {
        /// The budget that was configured.
        budget: u64,
        /// The statement or expression being charged when the budget
        /// ran out.
        at: Pos,
    },
    /// Script function calls nested deeper than the configured limit.
    CallDepthExceeded {
        /// The configured maximum depth.
        limit: usize,
        /// The call site that exceeded the limit.
        at: Pos,
    },
    /// A host function reported an error.
    HostError {
        /// Host-provided description.
        message: String,
        /// The call site of the host function.
        at: Pos,
    },
    /// `error("...")` was called from the script.
    Explicit {
        /// The error value rendered to text.
        message: String,
        /// The call site of `error` / `assert`.
        at: Pos,
    },
    /// Wrong number/type of arguments to a builtin.
    BadArguments {
        /// The function.
        function: String,
        /// Description of the problem.
        message: String,
        /// The call site of the builtin.
        at: Pos,
    },
}

impl ScriptError {
    /// The source position the error is attached to. Every variant
    /// carries one, so task logs and lint output can always point at a
    /// line and column.
    pub fn pos(&self) -> Pos {
        match self {
            ScriptError::UnexpectedChar { at, .. }
            | ScriptError::UnterminatedString { at }
            | ScriptError::BadNumber { at, .. }
            | ScriptError::UnexpectedToken { at, .. }
            | ScriptError::TypeError { at, .. }
            | ScriptError::UndefinedVariable { at, .. }
            | ScriptError::ForbiddenFunction { at, .. }
            | ScriptError::BudgetExhausted { at, .. }
            | ScriptError::CallDepthExceeded { at, .. }
            | ScriptError::HostError { at, .. }
            | ScriptError::Explicit { at, .. }
            | ScriptError::BadArguments { at, .. } => *at,
        }
    }
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::UnexpectedChar { ch, at } => {
                write!(f, "unexpected character {ch:?} at {at}")
            }
            ScriptError::UnterminatedString { at } => {
                write!(f, "unterminated string starting at {at}")
            }
            ScriptError::BadNumber { text, at } => {
                write!(f, "malformed number {text:?} at {at}")
            }
            ScriptError::UnexpectedToken { found, expected, at } => {
                write!(f, "expected {expected} but found {found} at {at}")
            }
            ScriptError::TypeError { message, at } => write!(f, "type error at {at}: {message}"),
            ScriptError::UndefinedVariable { name, at } => {
                write!(f, "undefined variable `{name}` at {at}")
            }
            ScriptError::ForbiddenFunction { name, at } => {
                write!(f, "call to non-whitelisted function `{name}` at {at}")
            }
            ScriptError::BudgetExhausted { budget, at } => {
                write!(f, "script exceeded its instruction budget of {budget} at {at}")
            }
            ScriptError::CallDepthExceeded { limit, at } => {
                write!(f, "script exceeded the call-depth limit of {limit} at {at}")
            }
            ScriptError::HostError { message, at } => {
                write!(f, "host function failed at {at}: {message}")
            }
            ScriptError::Explicit { message, at } => {
                write!(f, "script error at {at}: {message}")
            }
            ScriptError::BadArguments { function, message, at } => {
                write!(f, "bad arguments to {function} at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for ScriptError {}
