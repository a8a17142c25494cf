//! The SenseScript bytecode instruction set.
//!
//! A compact stack-machine ISA with an explicit fuel discipline that
//! reproduces the tree-walker's instruction accounting exactly:
//!
//! * **Cost-1 instructions** carry a [`Pos`] and charge one unit of
//!   fuel when executed — one per AST node the tree-walker would have
//!   charged for ([`Instr::Fuel`] stands in for statement entries and
//!   loop-iteration charges, which have no value-producing node).
//! * **Cost-0 instructions** (jumps, stores, environment bookkeeping,
//!   `*Raw` variants) are pure plumbing the tree-walker never charged
//!   for, so they never touch the fuel counter.
//!
//! Statement charges are emitted pre-order (a `Fuel` before the
//! statement's operand code, exactly where the tree-walker charges);
//! expression charges ride on the value-producing instruction itself,
//! which executes post-order. Both orderings charge the same node
//! multiset on a completed evaluation, and the post-order set is
//! always a subset of the pre-order set at any intermediate error
//! point — which is why the VM's count can never exceed the
//! tree-walker's (the `vm_corpus` gate enforces equality on success).

use crate::ast::{BinOp, UnOp};
use crate::Pos;

/// One bytecode instruction. Jump targets are absolute indices into
/// the owning prototype's code vector; `u32` indices point into the
/// module's constant, name, and prototype pools.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    // ---- cost 1: each charges one fuel unit at `Pos` ----
    /// Pure charge: a statement entry or loop-iteration step.
    Fuel(Pos),
    /// Push the interned constant (a literal expression node).
    Const(u32, Pos),
    /// Push a slot-resolved local.
    LoadSlot(u16, Pos),
    /// Push a dynamically scoped name (env chain walk); errors with
    /// `UndefinedVariable` when no scope and no global defines it.
    LoadDyn(u32, Pos),
    /// Apply a unary operator to the top of stack.
    Unary(UnOp, Pos),
    /// Apply a non-short-circuit binary operator to the top two.
    Binary(BinOp, Pos),
    /// `and`: charge; if top is falsy jump (keeping it as the result),
    /// else pop and fall through to the right operand.
    AndJump(u32, Pos),
    /// `or`: charge; if top is truthy jump (keeping it), else pop.
    OrJump(u32, Pos),
    /// Pop key and table, push `t[k]`.
    IndexGet(Pos),
    /// Push a fresh empty table (the constructor node's charge).
    NewTable(Pos),
    /// Push a closure over prototype `[0]`, capturing the current
    /// environment (a function-literal expression).
    MakeClosure(u32, Pos),
    /// Call a named callee: env chain, then stdlib, then the host
    /// whitelist, else `ForbiddenFunction`. Pops `argc` arguments.
    CallNamed {
        /// Interned callee name.
        name: u32,
        /// Argument count on the stack.
        argc: u8,
        /// Call-site position.
        pos: Pos,
    },
    /// Call the value under the arguments. Pops the callee plus
    /// `argc` arguments.
    CallValue {
        /// Argument count on the stack (callee sits above them).
        argc: u8,
        /// Call-site position.
        pos: Pos,
    },
    /// Generic-for step: if the iterator has a next entry, charge one
    /// fuel (the per-iteration charge), push value (two-variable form)
    /// then key; else pop the iterator state and jump to `exit`.
    IterNext {
        /// Jump target once exhausted.
        exit: u32,
        /// Charge position (the iterable's position).
        pos: Pos,
        /// Whether the loop binds a value variable too.
        push_value: bool,
    },
    /// Numeric-for step: while in range, charge one fuel, push the
    /// control number, and advance; once out of range pop the loop
    /// state and jump to `exit`.
    ForNext {
        /// Jump target once out of range.
        exit: u32,
        /// Charge position (the start expression's position).
        pos: Pos,
    },

    // ---- cost 0: plumbing the tree-walker never charged for ----
    /// Push a constant without charging (synthesised operands, e.g. a
    /// numeric-for's implicit step of 1).
    ConstRaw(u32),
    /// Push nil without charging (implicit `return` values).
    NilRaw,
    /// Push a slot without charging (named-call callee fetch, which
    /// the tree-walker resolves without evaluating a `Var` node).
    LoadSlotRaw(u16),
    /// Discard the top of stack (expression-statement result).
    Pop,
    /// Pop into a slot-resolved local.
    StoreSlot(u16),
    /// Pop and assign the innermost scope that defines the name, else
    /// create a global at the root (Lua assignment semantics).
    StoreDyn(u32),
    /// Pop and define the name in the current environment (a `local`
    /// declaration under dynamic scoping).
    DeclareDyn(u32),
    /// Push a child environment (block entry in env-mode functions).
    PushEnv,
    /// Pop the innermost environment (block exit).
    PopEnv,
    /// Unconditional jump.
    Jump(u32),
    /// Pop the condition; jump when falsy.
    JumpIfFalse(u32),
    /// Assert the top of stack is a number (numeric-for operand
    /// validation; `TypeError` at `Pos` otherwise). Leaves it in place.
    CheckNum(Pos),
    /// Pop step, stop, and start; reject a zero step (`TypeError` at
    /// `Pos`); push numeric loop state.
    ForPrep(Pos),
    /// Pop a table (else `TypeError` at `Pos`) and push its iteration
    /// snapshot as generic-for loop state.
    IterPrep(Pos),
    /// Discard the innermost loop state (`break` out of a `for`).
    PopLoop,
    /// Pop value, key, and table below them; `t[k] = v` assignment.
    IndexSet(Pos),
    /// Pop a value and append it to the table at top of stack
    /// (constructor array part).
    AppendArray,
    /// Pop a value and set it under the interned name on the table at
    /// top of stack (constructor `name = v` entry).
    SetField(u32),
    /// Pop key and value and place them per the constructor
    /// numeric-key rule on the table below (`[expr] = v` entry;
    /// `TypeError` at `Pos` for invalid key types).
    SetFieldExpr(Pos),
    /// Like [`Instr::MakeClosure`] but uncharged (`local function`
    /// statements, whose closure creation the tree-walker performs
    /// without evaluating an expression node).
    MakeClosureRaw(u32),
    /// Pop the return value and leave the frame (`return` statements;
    /// the statement's own charge was a preceding `Fuel`).
    Return,
    /// Leave the frame with nil, uncharged (falling off the end).
    ReturnNil,
}

/// An interned constant. Kept `Send + Sync` (strings as `Arc<str>`)
/// so a [`crate::bytecode::CompiledModule`] can sit in the shared
/// cross-phone compilation cache; the VM materialises per-run
/// [`crate::Value`]s from these once per execution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Const {
    /// `nil`.
    Nil,
    /// `true` / `false`.
    Bool(bool),
    /// A numeric literal.
    Num(f64),
    /// A string literal.
    Str(std::sync::Arc<str>),
}
