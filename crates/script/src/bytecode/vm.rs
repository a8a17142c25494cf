//! The SenseScript bytecode virtual machine.
//!
//! Mirrors the tree-walking [`crate::Interpreter`]'s public surface
//! (host whitelist, virtual-time context, instruction budget, call
//! depth limit) and its observable semantics bit for bit: same return
//! values, same error kinds, same `print` output and virtual time,
//! and an identical instruction count on every completed run. The
//! budget doubles as a **fuel limit**: the frontend clamps it to the
//! static analyzer's cost bound, so a compromised or miscompiled
//! script is cut off at the first instruction past what was proven.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::host::{HostContext, HostRegistry};
use crate::interp::{DEFAULT_BUDGET, DEFAULT_MAX_DEPTH};
use crate::ops;
use crate::stdlib;
use crate::value::Value;
use crate::{Pos, ScriptError};

use super::instr::{Const, Instr};
use super::module::{CompiledModule, Mode};

/// A dynamic scope for env-mode frames: by-name bindings plus a parent
/// link, replicating the tree-walker's scope chain.
#[derive(Debug, Default)]
struct Env {
    vars: HashMap<String, Value>,
    parent: Option<EnvRef>,
}

type EnvRef = Rc<RefCell<Env>>;

fn child_env(parent: &EnvRef) -> EnvRef {
    Rc::new(RefCell::new(Env { vars: HashMap::new(), parent: Some(Rc::clone(parent)) }))
}

fn env_lookup(env: &EnvRef, name: &str) -> Option<Value> {
    let mut cur = Rc::clone(env);
    loop {
        if let Some(v) = cur.borrow().vars.get(name) {
            return Some(v.clone());
        }
        let parent = cur.borrow().parent.clone();
        match parent {
            Some(p) => cur = p,
            None => return None,
        }
    }
}

/// Assigns in the innermost env that defines `name`; false if none do.
fn env_assign_existing(env: &EnvRef, name: &str, value: &Value) -> bool {
    let mut cur = Rc::clone(env);
    loop {
        if let Some(slot) = cur.borrow_mut().vars.get_mut(name) {
            *slot = value.clone();
            return true;
        }
        let parent = cur.borrow().parent.clone();
        match parent {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// Defines `name` at the root of `env`'s chain (global creation on
/// assignment, as the tree-walker does).
fn env_define_global(env: &EnvRef, name: &str, value: Value) {
    let mut root = Rc::clone(env);
    loop {
        let parent = root.borrow().parent.clone();
        match parent {
            Some(p) => root = p,
            None => break,
        }
    }
    root.borrow_mut().vars.insert(name.to_string(), value);
}

/// A compiled closure: a prototype index plus the captured environment.
/// Scripts see it as an ordinary function value.
pub struct VmClosure {
    proto: usize,
    env: EnvRef,
}

impl std::fmt::Debug for VmClosure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmClosure").field("proto", &self.proto).finish()
    }
}

/// Per-frame loop state (numeric range or generic-for snapshot).
enum LoopState {
    Num { i: f64, stop: f64, step: f64 },
    Iter { entries: Vec<(Value, Value)>, idx: usize },
}

/// The bytecode VM. Interchangeable with [`crate::Interpreter`] for
/// running compiled scripts — same construction, same knobs, same
/// result accessors.
///
/// # Example
///
/// ```
/// use sor_script::{compile, parser::parse, Value, Vm};
///
/// let block = parse("local s = 0\nfor i = 1, 10 do s = s + i end\nreturn s")?;
/// let module = std::sync::Arc::new(compile(&block));
/// let mut vm = Vm::new();
/// assert_eq!(vm.run_module(&module)?, Value::Number(55.0));
/// # Ok::<(), sor_script::ScriptError>(())
/// ```
#[derive(Debug)]
pub struct Vm {
    host: HostRegistry,
    ctx: HostContext,
    budget: u64,
    remaining: u64,
    max_depth: usize,
    depth: usize,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// A VM with an empty whitelist and the default budget.
    pub fn new() -> Self {
        Vm {
            host: HostRegistry::new(),
            ctx: HostContext::new(),
            budget: DEFAULT_BUDGET,
            remaining: DEFAULT_BUDGET,
            max_depth: DEFAULT_MAX_DEPTH,
            depth: 0,
        }
    }

    /// A VM with a pre-built whitelist.
    pub fn with_host(host: HostRegistry) -> Self {
        Vm { host, ..Self::new() }
    }

    /// Sets the fuel limit for subsequent runs. The frontend passes the
    /// static analyzer's cost bound here (clamped to the default
    /// budget), making the proven bound an enforced runtime contract.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Sets the maximum script-call nesting depth for subsequent runs.
    pub fn set_max_depth(&mut self, depth: usize) {
        self.max_depth = depth;
    }

    /// Mutable access to the whitelist.
    pub fn host_mut(&mut self) -> &mut HostRegistry {
        &mut self.host
    }

    /// The whitelist.
    pub fn host(&self) -> &HostRegistry {
        &self.host
    }

    /// Captured `print` output of the last run.
    pub fn output(&self) -> &[String] {
        &self.ctx.output
    }

    /// Virtual clock after the last run (seconds).
    pub fn virtual_time(&self) -> f64 {
        self.ctx.virtual_time
    }

    /// Fuel consumed by the last (or current) run. Matches the
    /// tree-walker's [`crate::Interpreter::instructions_used`] exactly
    /// on completed runs — the `vm_corpus` gate holds the two equal
    /// over the corpus.
    pub fn instructions_used(&self) -> u64 {
        self.budget - self.remaining
    }

    /// Executes a compiled module's main chunk with a fresh context,
    /// fuel tank, and global environment, returning the script's
    /// `return` value (nil if it fell off the end).
    ///
    /// # Errors
    ///
    /// Any runtime [`ScriptError`]; out-of-fuel surfaces as
    /// [`ScriptError::BudgetExhausted`], same as the tree-walker.
    pub fn run_module(&mut self, module: &Arc<CompiledModule>) -> Result<Value, ScriptError> {
        self.ctx = HostContext::new();
        self.remaining = self.budget;
        self.depth = 0;
        // Materialise the shared (Send+Sync) constant pool into cheap
        // per-run runtime values once.
        let consts: Vec<Value> = module
            .consts
            .iter()
            .map(|c| match c {
                Const::Nil => Value::Nil,
                Const::Bool(b) => Value::Bool(*b),
                Const::Num(n) => Value::Number(*n),
                Const::Str(s) => Value::str(s.as_ref()),
            })
            .collect();
        let root: EnvRef = Rc::new(RefCell::new(Env::default()));
        let main = &module.protos[0];
        let slots = vec![Value::Nil; main.n_slots as usize];
        // The main chunk runs directly in the root environment (the
        // tree-walker executes the top block in the global scope).
        self.exec_frame(module, &consts, 0, slots, root)
    }

    fn charge(&mut self, at: Pos) -> Result<(), ScriptError> {
        if self.remaining == 0 {
            return Err(ScriptError::BudgetExhausted { budget: self.budget, at });
        }
        self.remaining -= 1;
        Ok(())
    }

    fn call_value(
        &mut self,
        m: &CompiledModule,
        consts: &[Value],
        f: Value,
        args: &[Value],
        pos: Pos,
    ) -> Result<Value, ScriptError> {
        match f {
            Value::Compiled(closure) => {
                if self.depth >= self.max_depth {
                    return Err(ScriptError::CallDepthExceeded { limit: self.max_depth, at: pos });
                }
                self.depth += 1;
                let proto = &m.protos[closure.proto];
                let result = match proto.mode {
                    Mode::Slot => {
                        let mut slots = vec![Value::Nil; proto.n_slots as usize];
                        for (i, slot) in slots.iter_mut().enumerate().take(proto.params.len()) {
                            *slot = args.get(i).cloned().unwrap_or(Value::Nil);
                        }
                        self.exec_frame(m, consts, closure.proto, slots, Rc::clone(&closure.env))
                    }
                    Mode::Env => {
                        let env = child_env(&closure.env);
                        for (i, &p) in proto.params.iter().enumerate() {
                            env.borrow_mut().vars.insert(
                                m.names[p as usize].to_string(),
                                args.get(i).cloned().unwrap_or(Value::Nil),
                            );
                        }
                        self.exec_frame(m, consts, closure.proto, Vec::new(), env)
                    }
                }?;
                self.depth -= 1;
                Ok(result)
            }
            other => Err(ScriptError::TypeError {
                message: format!("attempt to call a {} value", other.type_name()),
                at: pos,
            }),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_frame(
        &mut self,
        m: &CompiledModule,
        consts: &[Value],
        proto: usize,
        mut slots: Vec<Value>,
        base_env: EnvRef,
    ) -> Result<Value, ScriptError> {
        let code = &m.protos[proto].code;
        let mut pc = 0usize;
        let mut stack: Vec<Value> = Vec::new();
        let mut envs: Vec<EnvRef> = vec![base_env];
        let mut loops: Vec<LoopState> = Vec::new();
        // Small helpers keep the dispatch arms flat. Stack discipline
        // is guaranteed by the compiler, so underflows are bugs — the
        // expect messages say which invariant broke.
        macro_rules! pop {
            () => {
                stack.pop().expect("compiler bug: value stack underflow")
            };
        }
        loop {
            let instr = &code[pc];
            pc += 1;
            match instr {
                Instr::Fuel(p) => self.charge(*p)?,
                Instr::Const(i, p) => {
                    self.charge(*p)?;
                    stack.push(consts[*i as usize].clone());
                }
                Instr::ConstRaw(i) => stack.push(consts[*i as usize].clone()),
                Instr::NilRaw => stack.push(Value::Nil),
                Instr::LoadSlot(s, p) => {
                    self.charge(*p)?;
                    stack.push(slots[*s as usize].clone());
                }
                Instr::LoadSlotRaw(s) => stack.push(slots[*s as usize].clone()),
                Instr::LoadDyn(n, p) => {
                    self.charge(*p)?;
                    let name = &m.names[*n as usize];
                    let cur = envs.last().expect("base env never popped");
                    match env_lookup(cur, name) {
                        Some(v) => stack.push(v),
                        None => {
                            return Err(ScriptError::UndefinedVariable {
                                name: name.to_string(),
                                at: *p,
                            })
                        }
                    }
                }
                Instr::Unary(op, p) => {
                    self.charge(*p)?;
                    let v = pop!();
                    stack.push(ops::apply_unary(*op, v, *p)?);
                }
                Instr::Binary(op, p) => {
                    self.charge(*p)?;
                    let r = pop!();
                    let l = pop!();
                    stack.push(ops::apply_binary(*op, l, r, *p)?);
                }
                Instr::AndJump(t, p) => {
                    self.charge(*p)?;
                    if stack.last().expect("compiler bug: and without lhs").truthy() {
                        pop!();
                    } else {
                        pc = *t as usize;
                    }
                }
                Instr::OrJump(t, p) => {
                    self.charge(*p)?;
                    if stack.last().expect("compiler bug: or without lhs").truthy() {
                        pc = *t as usize;
                    } else {
                        pop!();
                    }
                }
                Instr::IndexGet(p) => {
                    self.charge(*p)?;
                    let k = pop!();
                    let t = pop!();
                    stack.push(ops::index_get(&t, &k, *p)?);
                }
                Instr::NewTable(p) => {
                    self.charge(*p)?;
                    stack.push(Value::table(Vec::new(), HashMap::new()));
                }
                Instr::MakeClosure(pi, p) => {
                    self.charge(*p)?;
                    let env = Rc::clone(envs.last().expect("base env never popped"));
                    stack.push(Value::Compiled(Rc::new(VmClosure { proto: *pi as usize, env })));
                }
                Instr::MakeClosureRaw(pi) => {
                    let env = Rc::clone(envs.last().expect("base env never popped"));
                    stack.push(Value::Compiled(Rc::new(VmClosure { proto: *pi as usize, env })));
                }
                Instr::CallNamed { name, argc, pos } => {
                    self.charge(*pos)?;
                    let args = stack.split_off(stack.len() - *argc as usize);
                    let nm = &m.names[*name as usize];
                    // Same resolution order as the tree-walker: scope
                    // chain, stdlib builtins, host whitelist.
                    let cur = envs.last().expect("base env never popped");
                    let result = if let Some(v) = env_lookup(cur, nm) {
                        self.call_value(m, consts, v, &args, *pos)?
                    } else if let Some(res) = stdlib::call(nm, &args, &mut self.ctx, *pos) {
                        res?
                    } else if let Some(f) = self.host.get(nm) {
                        f(&mut self.ctx, &args)
                            .map_err(|message| ScriptError::HostError { message, at: *pos })?
                    } else {
                        return Err(ScriptError::ForbiddenFunction {
                            name: nm.to_string(),
                            at: *pos,
                        });
                    };
                    stack.push(result);
                }
                Instr::CallValue { argc, pos } => {
                    self.charge(*pos)?;
                    let callee = pop!();
                    let args = stack.split_off(stack.len() - *argc as usize);
                    let result = self.call_value(m, consts, callee, &args, *pos)?;
                    stack.push(result);
                }
                Instr::Pop => {
                    pop!();
                }
                Instr::StoreSlot(s) => {
                    slots[*s as usize] = pop!();
                }
                Instr::StoreDyn(n) => {
                    let v = pop!();
                    let name = &m.names[*n as usize];
                    let cur = envs.last().expect("base env never popped");
                    if !env_assign_existing(cur, name, &v) {
                        env_define_global(cur, name, v);
                    }
                }
                Instr::DeclareDyn(n) => {
                    let v = pop!();
                    let name = &m.names[*n as usize];
                    envs.last()
                        .expect("base env never popped")
                        .borrow_mut()
                        .vars
                        .insert(name.to_string(), v);
                }
                Instr::PushEnv => {
                    let child = child_env(envs.last().expect("base env never popped"));
                    envs.push(child);
                }
                Instr::PopEnv => {
                    envs.pop();
                }
                Instr::Jump(t) => pc = *t as usize,
                Instr::JumpIfFalse(t) => {
                    if !pop!().truthy() {
                        pc = *t as usize;
                    }
                }
                Instr::CheckNum(p) => {
                    let top = stack.last().expect("compiler bug: checknum on empty stack");
                    if top.as_number().is_none() {
                        return Err(ScriptError::TypeError {
                            message: format!("expected number, got {}", top.type_name()),
                            at: *p,
                        });
                    }
                }
                Instr::ForPrep(p) => {
                    let step = pop!().as_number().expect("checked by CheckNum");
                    let stop = pop!().as_number().expect("checked by CheckNum");
                    let start = pop!().as_number().expect("checked by CheckNum");
                    if step == 0.0 {
                        return Err(ScriptError::TypeError {
                            message: "for-loop step must be non-zero".to_string(),
                            at: *p,
                        });
                    }
                    loops.push(LoopState::Num { i: start, stop, step });
                }
                Instr::ForNext { exit, pos } => {
                    let LoopState::Num { i, stop, step } =
                        loops.last_mut().expect("compiler bug: ForNext without ForPrep")
                    else {
                        unreachable!("compiler bug: ForNext on iterator state")
                    };
                    if (*step > 0.0 && *i <= *stop) || (*step < 0.0 && *i >= *stop) {
                        // The per-iteration charge, then the control
                        // value for the loop variable binding.
                        self.charge(*pos)?;
                        stack.push(Value::Number(*i));
                        *i += *step;
                    } else {
                        loops.pop();
                        pc = *exit as usize;
                    }
                }
                Instr::IterPrep(p) => {
                    let v = pop!();
                    let Value::Table(t) = v else {
                        return Err(ScriptError::TypeError {
                            message: format!("generic for expects a table, got {}", v.type_name()),
                            at: *p,
                        });
                    };
                    loops.push(LoopState::Iter { entries: ops::iteration_snapshot(&t), idx: 0 });
                }
                Instr::IterNext { exit, pos, push_value } => {
                    let LoopState::Iter { entries, idx } =
                        loops.last_mut().expect("compiler bug: IterNext without IterPrep")
                    else {
                        unreachable!("compiler bug: IterNext on numeric state")
                    };
                    if *idx < entries.len() {
                        let (k, v) = entries[*idx].clone();
                        *idx += 1;
                        self.charge(*pos)?;
                        // Key on top: the binding sequence stores key
                        // first, then value.
                        if *push_value {
                            stack.push(v);
                        }
                        stack.push(k);
                    } else {
                        loops.pop();
                        pc = *exit as usize;
                    }
                }
                Instr::PopLoop => {
                    loops.pop();
                }
                Instr::IndexSet(p) => {
                    let k = pop!();
                    let t = pop!();
                    let v = pop!();
                    ops::index_set(&t, &k, v, *p)?;
                }
                Instr::AppendArray => {
                    let v = pop!();
                    let Some(Value::Table(t)) = stack.last() else {
                        unreachable!("compiler bug: AppendArray without table")
                    };
                    t.borrow_mut().array.push(v);
                }
                Instr::SetField(n) => {
                    let v = pop!();
                    let Some(Value::Table(t)) = stack.last() else {
                        unreachable!("compiler bug: SetField without table")
                    };
                    t.borrow_mut().hash.insert(m.names[*n as usize].to_string(), v);
                }
                Instr::SetFieldExpr(p) => {
                    let k = pop!();
                    let v = pop!();
                    let Some(Value::Table(t)) = stack.last() else {
                        unreachable!("compiler bug: SetFieldExpr without table")
                    };
                    let mut t = t.borrow_mut();
                    match ops::constructor_slot(&k, t.array.len(), *p)? {
                        ops::ConstructorSlot::Append => t.array.push(v),
                        ops::ConstructorSlot::Hash(key) => {
                            t.hash.insert(key, v);
                        }
                    }
                }
                Instr::Return => return Ok(pop!()),
                Instr::ReturnNil => return Ok(Value::Nil),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::compiler::compile;
    use super::*;
    use crate::interp::Interpreter;
    use crate::parser::parse;

    fn run_vm(src: &str) -> Result<Value, ScriptError> {
        let module = Arc::new(compile(&parse(src).expect("test script parses")));
        Vm::new().run_module(&module)
    }

    /// Both engines, same source: equal results and instruction counts.
    fn assert_engines_agree(src: &str) {
        let mut interp = Interpreter::new();
        let tree = interp.run(src).expect("tree-walker succeeds");
        let module = Arc::new(compile(&parse(src).unwrap()));
        let mut vm = Vm::new();
        let byte = vm.run_module(&module).expect("vm succeeds");
        assert_eq!(tree, byte, "results diverge for {src:?}");
        assert_eq!(
            interp.instructions_used(),
            vm.instructions_used(),
            "instruction counts diverge for {src:?}"
        );
        assert_eq!(interp.output(), vm.output(), "print output diverges for {src:?}");
    }

    #[test]
    fn slot_mode_basics_match_tree_walker() {
        for src in [
            "return 1 + 2 * 3",
            "local x = 1\nx = x + 1\nreturn x",
            "local s = 0\nfor i = 1, 10 do s = s + i end\nreturn s",
            "local s = 0\nfor i = 10, 1, -3 do s = s + i end\nreturn s",
            "local i = 0\nwhile i < 5 do i = i + 1 end\nreturn i",
            "local t = {10, 20, x = 7}\nreturn t[2] + t.x + #t",
            "return 'a' .. 'b' .. 1",
            "return nil and error('never') or 7",
            "local s = ''\nfor k, v in {b = 2, a = 1} do s = s .. k .. v end\nreturn s",
            "if 1 > 2 then return 'a' elseif 2 > 1 then return 'b' else return 'c' end",
            "print('x', 1)\nreturn 0",
        ] {
            assert_engines_agree(src);
        }
    }

    #[test]
    fn env_mode_closures_match_tree_walker() {
        assert_engines_agree(
            r#"
            local function make_counter()
                local n = 0
                return function()
                    n = n + 1
                    return n
                end
            end
            local c = make_counter()
            c()
            c()
            return c()
        "#,
        );
        assert_engines_agree(
            r#"
            local function fib(n)
                if n < 2 then return n end
                return fib(n - 1) + fib(n - 2)
            end
            return fib(12)
        "#,
        );
        assert_engines_agree(
            r#"
            local function apply(f, x) return f(x) end
            return apply(function(v) return v * 10 end, 4)
        "#,
        );
    }

    #[test]
    fn global_creation_on_assignment_matches() {
        assert_engines_agree("if true then g = 5 end\nreturn g");
        assert_engines_agree("x = 5\nlocal x = 1\nreturn x");
    }

    #[test]
    fn error_kinds_match_tree_walker() {
        for src in [
            "return never_defined",
            "for i = 1, 5, 0 do end",
            "local t = {}\nt[100] = 1",
            "for k, v in 5 do end",
            "local x = 5\nx()",
            "os_execute('rm')",
        ] {
            let tree = Interpreter::new().run(src).expect_err("tree-walker errors");
            let byte = run_vm(src).expect_err("vm errors");
            assert_eq!(
                std::mem::discriminant(&tree),
                std::mem::discriminant(&byte),
                "error kinds diverge for {src:?}: {tree:?} vs {byte:?}"
            );
        }
    }

    #[test]
    fn fuel_exhaustion_is_deterministic() {
        let module = Arc::new(compile(&parse("while true do end").unwrap()));
        let mut vm = Vm::new();
        vm.set_budget(10_000);
        assert!(matches!(
            vm.run_module(&module),
            Err(ScriptError::BudgetExhausted { budget: 10_000, .. })
        ));
        assert_eq!(vm.instructions_used(), 10_000);
        // Same module, same fuel: the identical outcome again.
        assert!(matches!(
            vm.run_module(&module),
            Err(ScriptError::BudgetExhausted { budget: 10_000, .. })
        ));
    }

    #[test]
    fn vm_never_exceeds_tree_walker_fuel_on_errors() {
        // On error paths the VM's post-order expression charging may
        // under-count relative to the pre-order tree-walker, never
        // over-count.
        for src in ["return 1 + never_defined", "local t = {1, unbound, 3}"] {
            let mut interp = Interpreter::new();
            interp.run(src).expect_err("errors");
            let module = Arc::new(compile(&parse(src).unwrap()));
            let mut vm = Vm::new();
            vm.run_module(&module).expect_err("errors");
            assert!(
                vm.instructions_used() <= interp.instructions_used(),
                "vm overcharged for {src:?}"
            );
        }
    }

    #[test]
    fn depth_limit_matches() {
        let src = r#"
            local function down(n)
                if n == 0 then return 0 end
                return down(n - 1)
            end
            return down(100000)
        "#;
        assert!(matches!(
            run_vm(src),
            Err(ScriptError::CallDepthExceeded { limit: DEFAULT_MAX_DEPTH, .. })
        ));
    }

    #[test]
    fn break_unwinds_envs_and_loop_state() {
        assert_engines_agree(
            r#"
            local out = 0
            for i = 1, 10 do
                if i == 4 then
                    local hidden = 1
                    break
                end
                out = out + i
            end
            while true do break end
            return out
        "#,
        );
        // A closure in scope forces env mode for the whole chunk.
        assert_engines_agree(
            r#"
            local f = function() return 1 end
            local out = 0
            for i = 1, 10 do
                if i == 4 then break end
                out = out + f()
            end
            return out
        "#,
        );
    }

    #[test]
    fn host_functions_and_virtual_time_match() {
        let src = "local r = light(3)\nreturn mean(r)";
        let register = |host: &mut HostRegistry| {
            host.register("light", |ctx, args| {
                let n = args.first().and_then(Value::as_number).unwrap_or(1.0) as usize;
                ctx.virtual_time += n as f64 * 0.5;
                Ok(Value::number_array(&vec![7.0; n]))
            });
        };
        let mut interp = Interpreter::new();
        register(interp.host_mut());
        let tree = interp.run(src).unwrap();

        let module = Arc::new(compile(&parse(src).unwrap()));
        let mut vm = Vm::new();
        register(vm.host_mut());
        let byte = vm.run_module(&module).unwrap();

        assert_eq!(tree, byte);
        assert!((interp.virtual_time() - vm.virtual_time()).abs() < 1e-12);
        assert_eq!(interp.instructions_used(), vm.instructions_used());
    }

    #[test]
    fn same_name_loop_vars_take_the_value() {
        assert_engines_agree("local s = 0\nfor x, x in {5, 6} do s = s + x end\nreturn s");
    }

    #[test]
    fn table_constructor_expr_keys_match() {
        assert_engines_agree(
            "local t = {[1] = 'a', [2] = 'b', [10] = 'c'}\nreturn t[2] .. t['10']",
        );
    }
}
