//! Lowers a parsed AST to bytecode.
//!
//! Each function is compiled in one of two binding modes (see
//! [`Mode`]): literal-free bodies get flat slot frames with
//! compile-time lexical resolution; bodies that create closures fall
//! back to dynamic by-name environments that replicate the
//! tree-walker's scope chains instruction for instruction. The split
//! is per function, so a hot literal-free helper inside a
//! closure-heavy script still runs on the fast path.
//!
//! Fuel emission mirrors the interpreter's charge points exactly: one
//! [`Instr::Fuel`] per statement entry (pre-order), one charged
//! instruction per expression node (post-order), and the loop-step
//! instructions charge once per iteration. On a completed run the two
//! engines therefore count identical instruction totals — the
//! `vm_corpus` gate enforces this over the whole corpus.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{BinOp, Block, Expr, Stmt, TableKey, Target};

use super::instr::{Const, Instr};
use super::module::{CompiledModule, FnProto, Mode};

/// Compiles a parsed block into an immutable, shareable module.
/// Prototype 0 is the main chunk; function literals become further
/// prototypes referenced by `MakeClosure` instructions.
pub fn compile(block: &Block) -> CompiledModule {
    let mut c = Compiler::default();
    let main = c.compile_function(&[], block);
    debug_assert_eq!(main, 0, "main chunk must be prototype 0");
    CompiledModule { consts: c.consts, names: c.names, protos: c.protos }
}

/// Hashable identity of a constant for pool interning (`f64` by bit
/// pattern, so `0.0` and `-0.0` intern separately and NaN is stable).
#[derive(Hash, PartialEq, Eq)]
enum ConstKey {
    Nil,
    Bool(bool),
    Num(u64),
    Str(String),
}

#[derive(Default)]
struct Compiler {
    consts: Vec<Const>,
    const_ids: HashMap<ConstKey, u32>,
    names: Vec<Arc<str>>,
    name_ids: HashMap<String, u32>,
    protos: Vec<FnProto>,
}

impl Compiler {
    fn intern_const(&mut self, key: ConstKey) -> u32 {
        if let Some(&id) = self.const_ids.get(&key) {
            return id;
        }
        let c = match &key {
            ConstKey::Nil => Const::Nil,
            ConstKey::Bool(b) => Const::Bool(*b),
            ConstKey::Num(bits) => Const::Num(f64::from_bits(*bits)),
            ConstKey::Str(s) => Const::Str(Arc::from(s.as_str())),
        };
        let id = self.consts.len() as u32;
        self.consts.push(c);
        self.const_ids.insert(key, id);
        id
    }

    fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(Arc::from(name));
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// Compiles one function (or the main chunk) and returns its
    /// prototype index. Reserves the slot up front so the main chunk
    /// is always prototype 0 even though nested literals finish first.
    fn compile_function(&mut self, params: &[String], body: &Block) -> u32 {
        let idx = self.protos.len() as u32;
        self.protos.push(FnProto {
            code: Vec::new(),
            params: Vec::new(),
            n_slots: 0,
            mode: Mode::Env,
        });
        let mode = if block_creates_functions(body) { Mode::Env } else { Mode::Slot };
        let param_ids: Vec<u32> = params.iter().map(|p| self.intern_name(p)).collect();

        let mut f = FnCompiler {
            shared: self,
            code: Vec::new(),
            mode,
            scopes: vec![HashMap::new()],
            next_slot: 0,
            env_depth: 0,
            loops: Vec::new(),
        };
        if mode == Mode::Slot {
            // Params live in slots 0..n, in the same lexical block as
            // the body's top-level locals (the tree-walker defines both
            // in the call scope).
            for p in params {
                f.declare_slot(p);
            }
        }
        f.block(body);
        f.code.push(Instr::ReturnNil);
        let (code, n_slots) = (f.code, f.next_slot);
        let proto = &mut self.protos[idx as usize];
        proto.code = code;
        proto.params = param_ids;
        proto.n_slots = n_slots;
        proto.mode = mode;
        idx
    }
}

/// Per-loop compile state: where `break` jumps to and how much scope
/// unwinding it must emit to get there.
struct LoopCtx {
    /// `for` loops keep iteration state on the loop stack; `break`
    /// must discard it (`while` loops keep nothing).
    is_for: bool,
    /// Environment depth at the jump target, so `break` inside nested
    /// blocks pops back down before leaving.
    env_depth: u32,
    /// `Jump` indices to patch to the loop exit.
    break_jumps: Vec<usize>,
}

struct FnCompiler<'a> {
    shared: &'a mut Compiler,
    code: Vec<Instr>,
    mode: Mode,
    /// Lexical blocks for slot resolution (slot mode; also tracked in
    /// env mode but unused there).
    scopes: Vec<HashMap<String, u16>>,
    /// Monotonic slot allocator — slots are never reused, which keeps
    /// resolution trivially correct under shadowing.
    next_slot: u16,
    /// Compile-time environment nesting (env mode), for `break`
    /// unwinding.
    env_depth: u32,
    loops: Vec<LoopCtx>,
}

impl FnCompiler<'_> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t)
            | Instr::AndJump(t, _)
            | Instr::OrJump(t, _)
            | Instr::ForNext { exit: t, .. }
            | Instr::IterNext { exit: t, .. } => *t = target,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    fn declare_slot(&mut self, name: &str) -> u16 {
        let slot = self.next_slot;
        self.next_slot = self.next_slot.checked_add(1).expect("script exceeds 65536 locals");
        self.scopes.last_mut().expect("scope stack never empty").insert(name.to_string(), slot);
        slot
    }

    fn resolve_slot(&self, name: &str) -> Option<u16> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    /// Compiles a nested block with its own lexical scope: a child
    /// environment in env mode, a shadowing slot scope in slot mode.
    /// `bind` runs after scope entry to declare loop variables.
    fn scoped_block(&mut self, body: &Block, bind: impl FnOnce(&mut Self)) {
        self.enter_scope();
        bind(self);
        self.block(body);
        self.exit_scope();
    }

    fn enter_scope(&mut self) {
        self.scopes.push(HashMap::new());
        if self.mode == Mode::Env {
            self.emit(Instr::PushEnv);
            self.env_depth += 1;
        }
    }

    fn exit_scope(&mut self) {
        self.scopes.pop();
        if self.mode == Mode::Env {
            self.emit(Instr::PopEnv);
            self.env_depth -= 1;
        }
    }

    fn block(&mut self, block: &Block) {
        for stmt in block {
            self.stmt(stmt);
        }
    }

    /// Declares `name` and emits the store for a value already on the
    /// stack (locals and loop variables).
    fn declare_and_store(&mut self, name: &str) {
        if self.mode == Mode::Slot {
            let slot = self.declare_slot(name);
            self.emit(Instr::StoreSlot(slot));
        } else {
            let n = self.shared.intern_name(name);
            self.emit(Instr::DeclareDyn(n));
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        self.emit(Instr::Fuel(stmt.pos()));
        match stmt {
            Stmt::Local { name, init, .. } => {
                match init {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Instr::NilRaw);
                    }
                }
                // Declared after the initializer compiles, so `local x
                // = x` reads the outer binding (interpreter order).
                self.declare_and_store(name);
            }
            Stmt::LocalFunction { name, params, body, .. } => {
                // A function literal forced env mode for this body.
                let n = self.shared.intern_name(name);
                // Pre-declare as nil so the body can recurse, then
                // rebind to the closure — the tree-walker's two
                // `define` calls.
                self.emit(Instr::NilRaw);
                self.emit(Instr::DeclareDyn(n));
                let proto = self.shared.compile_function(params, body);
                self.emit(Instr::MakeClosureRaw(proto));
                self.emit(Instr::DeclareDyn(n));
            }
            Stmt::Assign { target, value, pos } => {
                self.expr(value);
                match target {
                    Target::Name(name) => match self.resolve_slot(name) {
                        Some(slot) if self.mode == Mode::Slot => {
                            self.emit(Instr::StoreSlot(slot));
                        }
                        _ => {
                            let n = self.shared.intern_name(name);
                            self.emit(Instr::StoreDyn(n));
                        }
                    },
                    Target::Index { table, key } => {
                        // Interpreter evaluation order: value, table, key.
                        self.expr(table);
                        self.expr(key);
                        self.emit(Instr::IndexSet(*pos));
                    }
                }
            }
            Stmt::ExprStmt(e) => {
                self.expr(e);
                self.emit(Instr::Pop);
            }
            Stmt::If { arms, otherwise } => {
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    self.expr(cond);
                    let skip = self.emit(Instr::JumpIfFalse(0));
                    self.scoped_block(body, |_| {});
                    end_jumps.push(self.emit(Instr::Jump(0)));
                    self.patch(skip);
                }
                if let Some(body) = otherwise {
                    self.scoped_block(body, |_| {});
                }
                for j in end_jumps {
                    self.patch(j);
                }
            }
            Stmt::While { cond, body } => {
                let head = self.here();
                self.expr(cond);
                let exit_jump = self.emit(Instr::JumpIfFalse(0));
                // The tree-walker charges once more per iteration at
                // the condition's position, after it proves truthy.
                self.emit(Instr::Fuel(cond.pos()));
                self.loops.push(LoopCtx {
                    is_for: false,
                    env_depth: self.env_depth,
                    break_jumps: Vec::new(),
                });
                self.scoped_block(body, |_| {});
                self.emit(Instr::Jump(head));
                self.patch(exit_jump);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j);
                }
            }
            Stmt::NumericFor { var, start, stop, step, body } => {
                let pos = start.pos();
                self.expr(start);
                self.emit(Instr::CheckNum(pos));
                self.expr(stop);
                self.emit(Instr::CheckNum(stop.pos()));
                match step {
                    Some(e) => {
                        self.expr(e);
                        self.emit(Instr::CheckNum(e.pos()));
                    }
                    None => {
                        let one = self.shared.intern_const(ConstKey::Num(1f64.to_bits()));
                        self.emit(Instr::ConstRaw(one));
                    }
                }
                self.emit(Instr::ForPrep(pos));
                let head = self.here();
                let next = self.emit(Instr::ForNext { exit: 0, pos });
                self.loops.push(LoopCtx {
                    is_for: true,
                    env_depth: self.env_depth,
                    break_jumps: Vec::new(),
                });
                self.scoped_block(body, |f| f.declare_and_store(var));
                self.emit(Instr::Jump(head));
                self.patch(next);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j);
                }
            }
            Stmt::GenericFor { key_var, value_var, iterable, body } => {
                let pos = iterable.pos();
                self.expr(iterable);
                self.emit(Instr::IterPrep(pos));
                let head = self.here();
                let next =
                    self.emit(Instr::IterNext { exit: 0, pos, push_value: value_var.is_some() });
                self.loops.push(LoopCtx {
                    is_for: true,
                    env_depth: self.env_depth,
                    break_jumps: Vec::new(),
                });
                // IterNext leaves [value, key] with the key on top;
                // binding key first then value makes the value win for
                // `for x, x in t`, as the tree-walker's map insert does.
                self.scoped_block(body, |f| {
                    f.declare_and_store(key_var);
                    if let Some(v) = value_var {
                        f.declare_and_store(v);
                    }
                });
                self.emit(Instr::Jump(head));
                self.patch(next);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch(j);
                }
            }
            Stmt::Break(_) => {
                match self.loops.last() {
                    Some(ctx) => {
                        let pops = self.env_depth - ctx.env_depth;
                        let is_for = ctx.is_for;
                        for _ in 0..pops {
                            self.emit(Instr::PopEnv);
                        }
                        if is_for {
                            self.emit(Instr::PopLoop);
                        }
                        let j = self.emit(Instr::Jump(0));
                        self.loops.last_mut().expect("checked above").break_jumps.push(j);
                    }
                    None => {
                        // A stray `break` propagates Flow::Break to the
                        // top of the function, which the tree-walker
                        // turns into a nil result.
                        self.emit(Instr::ReturnNil);
                    }
                }
            }
            Stmt::Return(e, _) => {
                match e {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Instr::NilRaw);
                    }
                }
                self.emit(Instr::Return);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Nil(pos) => {
                let c = self.shared.intern_const(ConstKey::Nil);
                self.emit(Instr::Const(c, *pos));
            }
            Expr::Bool(b, pos) => {
                let c = self.shared.intern_const(ConstKey::Bool(*b));
                self.emit(Instr::Const(c, *pos));
            }
            Expr::Number(n, pos) => {
                let c = self.shared.intern_const(ConstKey::Num(n.to_bits()));
                self.emit(Instr::Const(c, *pos));
            }
            Expr::Str(s, pos) => {
                let c = self.shared.intern_const(ConstKey::Str(s.clone()));
                self.emit(Instr::Const(c, *pos));
            }
            Expr::Var(name, pos) => match self.resolve_slot(name) {
                Some(slot) if self.mode == Mode::Slot => {
                    self.emit(Instr::LoadSlot(slot, *pos));
                }
                _ => {
                    let n = self.shared.intern_name(name);
                    self.emit(Instr::LoadDyn(n, *pos));
                }
            },
            Expr::Unary { op, expr, pos } => {
                self.expr(expr);
                self.emit(Instr::Unary(*op, *pos));
            }
            Expr::Binary { op, lhs, rhs, pos } => match op {
                BinOp::And => {
                    self.expr(lhs);
                    let short = self.emit(Instr::AndJump(0, *pos));
                    self.expr(rhs);
                    self.patch(short);
                }
                BinOp::Or => {
                    self.expr(lhs);
                    let short = self.emit(Instr::OrJump(0, *pos));
                    self.expr(rhs);
                    self.patch(short);
                }
                _ => {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.emit(Instr::Binary(*op, *pos));
                }
            },
            Expr::Index { table, key, pos } => {
                self.expr(table);
                self.expr(key);
                self.emit(Instr::IndexGet(*pos));
            }
            Expr::Table { array, hash, pos } => {
                // The constructor node's own charge comes first (the
                // tree-walker charges it before evaluating entries).
                self.emit(Instr::NewTable(*pos));
                for e in array {
                    self.expr(e);
                    self.emit(Instr::AppendArray);
                }
                for (k, ve) in hash {
                    self.expr(ve);
                    match k {
                        TableKey::Name(n) => {
                            let n = self.shared.intern_name(n);
                            self.emit(Instr::SetField(n));
                        }
                        TableKey::Expr(ke) => {
                            self.expr(ke);
                            self.emit(Instr::SetFieldExpr(ke.pos()));
                        }
                    }
                }
            }
            Expr::Function { params, body, pos } => {
                let proto = self.shared.compile_function(params, body);
                self.emit(Instr::MakeClosure(proto, *pos));
            }
            Expr::Call { callee, args, pos } => {
                for a in args {
                    self.expr(a);
                }
                let argc = u8::try_from(args.len()).expect("more than 255 call arguments");
                if let Expr::Var(name, _) = callee.as_ref() {
                    // The tree-walker resolves a named callee *after*
                    // evaluating the arguments and without charging for
                    // the name — hence the raw load here.
                    match self.resolve_slot(name) {
                        Some(slot) if self.mode == Mode::Slot => {
                            self.emit(Instr::LoadSlotRaw(slot));
                            self.emit(Instr::CallValue { argc, pos: *pos });
                        }
                        _ => {
                            let n = self.shared.intern_name(name);
                            self.emit(Instr::CallNamed { name: n, argc, pos: *pos });
                        }
                    }
                } else {
                    self.expr(callee);
                    self.emit(Instr::CallValue { argc, pos: *pos });
                }
            }
        }
    }
}

/// Whether a block contains a function literal (`function` expression
/// or `local function` statement) outside nested function bodies —
/// the trigger for env-mode compilation. Nested bodies pick their own
/// mode, so the walk stops at each literal rather than descending.
fn block_creates_functions(block: &Block) -> bool {
    block.iter().any(stmt_creates_functions)
}

fn stmt_creates_functions(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::LocalFunction { .. } => true,
        Stmt::Local { init, .. } => init.as_ref().is_some_and(expr_creates_functions),
        Stmt::Assign { target, value, .. } => {
            expr_creates_functions(value)
                || match target {
                    Target::Name(_) => false,
                    Target::Index { table, key } => {
                        expr_creates_functions(table) || expr_creates_functions(key)
                    }
                }
        }
        Stmt::ExprStmt(e) => expr_creates_functions(e),
        Stmt::If { arms, otherwise } => {
            arms.iter().any(|(c, b)| expr_creates_functions(c) || block_creates_functions(b))
                || otherwise.as_ref().is_some_and(block_creates_functions)
        }
        Stmt::While { cond, body } => expr_creates_functions(cond) || block_creates_functions(body),
        Stmt::NumericFor { start, stop, step, body, .. } => {
            expr_creates_functions(start)
                || expr_creates_functions(stop)
                || step.as_ref().is_some_and(expr_creates_functions)
                || block_creates_functions(body)
        }
        Stmt::GenericFor { iterable, body, .. } => {
            expr_creates_functions(iterable) || block_creates_functions(body)
        }
        Stmt::Break(_) => false,
        Stmt::Return(e, _) => e.as_ref().is_some_and(expr_creates_functions),
    }
}

fn expr_creates_functions(e: &Expr) -> bool {
    match e {
        Expr::Function { .. } => true,
        Expr::Nil(_) | Expr::Bool(..) | Expr::Number(..) | Expr::Str(..) | Expr::Var(..) => false,
        Expr::Unary { expr, .. } => expr_creates_functions(expr),
        Expr::Binary { lhs, rhs, .. } => expr_creates_functions(lhs) || expr_creates_functions(rhs),
        Expr::Index { table, key, .. } => {
            expr_creates_functions(table) || expr_creates_functions(key)
        }
        Expr::Table { array, hash, .. } => {
            array.iter().any(expr_creates_functions)
                || hash.iter().any(|(k, v)| {
                    expr_creates_functions(v)
                        || matches!(k, TableKey::Expr(ke) if expr_creates_functions(ke))
                })
        }
        Expr::Call { callee, args, .. } => {
            expr_creates_functions(callee) || args.iter().any(expr_creates_functions)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::module::Mode;
    use super::*;
    use crate::parser::parse;

    fn module(src: &str) -> CompiledModule {
        compile(&parse(src).expect("test script parses"))
    }

    #[test]
    fn literal_free_main_compiles_to_slot_mode() {
        let m = module("local x = 1\nreturn x + 1");
        assert_eq!(m.protos[0].mode, Mode::Slot);
        assert!(m.protos[0].n_slots >= 1);
        assert!(m.protos[0].code.iter().any(|i| matches!(i, Instr::LoadSlot(..))));
        assert!(!m.protos[0].code.iter().any(|i| matches!(i, Instr::PushEnv)));
    }

    #[test]
    fn function_literal_forces_env_mode_in_enclosing_body_only() {
        let m = module("local f = function(a) return a end\nreturn f(1)");
        assert_eq!(m.protos[0].mode, Mode::Env, "main creates a closure");
        assert_eq!(m.protos[1].mode, Mode::Slot, "the literal itself is literal-free");
        assert_eq!(m.protos[1].params.len(), 1);
    }

    #[test]
    fn constants_are_interned_once() {
        let m = module("return 5 + 5 + 5");
        let fives = m.consts.iter().filter(|c| matches!(c, Const::Num(n) if *n == 5.0)).count();
        assert_eq!(fives, 1);
    }

    #[test]
    fn every_proto_ends_in_a_return() {
        let m = module("local function f() end\nif true then return f() end");
        for p in &m.protos {
            assert!(matches!(p.code.last(), Some(Instr::Return | Instr::ReturnNil)), "{p:?}");
        }
    }

    #[test]
    fn jump_targets_stay_in_bounds() {
        let src = r#"
            local s = 0
            for i = 1, 10 do
                if i % 2 == 0 then s = s + i else s = s - 1 end
                while s > 100 do break end
            end
            for k, v in {1, 2, a = 3} do s = s + v end
            return s
        "#;
        let m = module(src);
        for p in &m.protos {
            let len = p.code.len() as u32;
            for i in &p.code {
                let target = match i {
                    Instr::Jump(t)
                    | Instr::JumpIfFalse(t)
                    | Instr::AndJump(t, _)
                    | Instr::OrJump(t, _)
                    | Instr::ForNext { exit: t, .. }
                    | Instr::IterNext { exit: t, .. } => Some(*t),
                    _ => None,
                };
                if let Some(t) = target {
                    assert!(t < len, "jump to {t} out of {len} in {i:?}");
                }
            }
        }
    }
}
