//! The SenseScript tree-walking interpreter.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, Block, Expr, Stmt, TableKey, Target};
use crate::host::{HostContext, HostRegistry};
use crate::ops;
use crate::parser::parse;
use crate::stdlib;
use crate::value::{Closure, Value};
use crate::{Pos, ScriptError};

/// A lexical scope: locals plus a parent link.
#[derive(Debug, Default)]
pub struct Scope {
    vars: HashMap<String, Value>,
    parent: Option<ScopeRef>,
}

/// Shared handle to a scope (closures capture these).
pub type ScopeRef = Rc<RefCell<Scope>>;

fn child_scope(parent: &ScopeRef) -> ScopeRef {
    Rc::new(RefCell::new(Scope { vars: HashMap::new(), parent: Some(Rc::clone(parent)) }))
}

fn lookup(scope: &ScopeRef, name: &str) -> Option<Value> {
    let s = scope.borrow();
    if let Some(v) = s.vars.get(name) {
        return Some(v.clone());
    }
    s.parent.as_ref().and_then(|p| lookup(p, name))
}

/// Sets `name` in the innermost scope that already defines it; returns
/// false if no scope does.
fn assign_existing(scope: &ScopeRef, name: &str, value: &Value) -> bool {
    let mut s = scope.borrow_mut();
    if let Some(slot) = s.vars.get_mut(name) {
        *slot = value.clone();
        return true;
    }
    match &s.parent {
        Some(p) => assign_existing(p, name, value),
        None => false,
    }
}

fn define(scope: &ScopeRef, name: &str, value: Value) {
    scope.borrow_mut().vars.insert(name.to_string(), value);
}

enum Flow {
    Normal,
    Break,
    Return(Value),
}

/// Default instruction budget: generous for sensing scripts, tight
/// enough to abort runaway loops quickly.
pub const DEFAULT_BUDGET: u64 = 1_000_000;

/// Default maximum script-call nesting (protects the host stack; a
/// sensing script has no business recursing hundreds deep).
pub const DEFAULT_MAX_DEPTH: usize = 100;

/// The interpreter: a host whitelist, a virtual-time context, and an
/// instruction budget.
///
/// # Example
///
/// ```
/// use sor_script::{Interpreter, Value};
///
/// let mut interp = Interpreter::new();
/// interp.host_mut().register("get_fake_reading", |_ctx, _args| {
///     Ok(Value::Number(21.5))
/// });
/// let v = interp.run("return get_fake_reading() * 2")?;
/// assert_eq!(v, Value::Number(43.0));
/// # Ok::<(), sor_script::ScriptError>(())
/// ```
#[derive(Debug)]
pub struct Interpreter {
    host: HostRegistry,
    ctx: HostContext,
    budget: u64,
    remaining: u64,
    max_depth: usize,
    depth: usize,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Interpreter with an empty whitelist and the default budget.
    pub fn new() -> Self {
        Interpreter {
            host: HostRegistry::new(),
            ctx: HostContext::new(),
            budget: DEFAULT_BUDGET,
            remaining: DEFAULT_BUDGET,
            max_depth: DEFAULT_MAX_DEPTH,
            depth: 0,
        }
    }

    /// Interpreter with a pre-built whitelist.
    pub fn with_host(host: HostRegistry) -> Self {
        Interpreter { host, ..Self::new() }
    }

    /// Sets the instruction budget for subsequent runs.
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

    /// Parses and executes `src`, returning the script's `return` value
    /// (or [`Value::Nil`] if it fell off the end). Output and virtual
    /// time are reset per run.
    ///
    /// # Errors
    ///
    /// Any [`ScriptError`] from lexing, parsing or execution.
    pub fn run(&mut self, src: &str) -> Result<Value, ScriptError> {
        let block = parse(src)?;
        self.run_block(&block)
    }

    /// Runs an already-parsed block with a fresh context, budget, and
    /// global scope — for embedders that parse the AST themselves.
    ///
    /// # Errors
    ///
    /// Any [`ScriptError`] from execution.
    pub fn run_block(&mut self, block: &Block) -> Result<Value, ScriptError> {
        self.ctx = HostContext::new();
        self.remaining = self.budget;
        self.depth = 0;
        let globals: ScopeRef = Rc::new(RefCell::new(Scope::default()));
        match self.exec_block(block, &globals)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Nil),
        }
    }

    /// Instructions consumed by the last (or current) run: one per
    /// statement executed, expression evaluated, and loop iteration.
    /// The static cost pass in [`crate::analysis`] upper-bounds this.
    pub fn instructions_used(&self) -> u64 {
        self.budget - self.remaining
    }

    fn charge(&mut self, at: Pos) -> Result<(), ScriptError> {
        if self.remaining == 0 {
            return Err(ScriptError::BudgetExhausted { budget: self.budget, at });
        }
        self.remaining -= 1;
        Ok(())
    }

    fn exec_block(&mut self, block: &Block, scope: &ScopeRef) -> Result<Flow, ScriptError> {
        for stmt in block {
            match self.exec_stmt(stmt, scope)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, scope: &ScopeRef) -> Result<Flow, ScriptError> {
        self.charge(stmt.pos())?;
        match stmt {
            Stmt::Local { name, init, .. } => {
                let v = match init {
                    Some(e) => self.eval(e, scope)?,
                    None => Value::Nil,
                };
                define(scope, name, v);
                Ok(Flow::Normal)
            }
            Stmt::LocalFunction { name, params, body, .. } => {
                // Define the name first so the body can recurse.
                define(scope, name, Value::Nil);
                let closure = Value::Function(Rc::new(Closure {
                    params: params.clone(),
                    body: body.clone(),
                    env: Rc::clone(scope),
                }));
                define(scope, name, closure);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value, pos } => {
                let v = self.eval(value, scope)?;
                match target {
                    Target::Name(name) => {
                        if !assign_existing(scope, name, &v) {
                            // Lua semantics: assignment to an unknown name
                            // creates a global.
                            let mut root = Rc::clone(scope);
                            loop {
                                let parent = root.borrow().parent.clone();
                                match parent {
                                    Some(p) => root = p,
                                    None => break,
                                }
                            }
                            define(&root, name, v);
                        }
                    }
                    Target::Index { table, key } => {
                        let t = self.eval(table, scope)?;
                        let k = self.eval(key, scope)?;
                        ops::index_set(&t, &k, v, *pos)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::If { arms, otherwise } => {
                for (cond, body) in arms {
                    if self.eval(cond, scope)?.truthy() {
                        return self.exec_block(body, &child_scope(scope));
                    }
                }
                if let Some(body) = otherwise {
                    return self.exec_block(body, &child_scope(scope));
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, scope)?.truthy() {
                    self.charge(cond.pos())?;
                    match self.exec_block(body, &child_scope(scope))? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::NumericFor { var, start, stop, step, body } => {
                let pos = start.pos();
                let start_v = self.expect_number(start, scope)?;
                let stop_v = self.expect_number(stop, scope)?;
                let step_v = match step {
                    Some(e) => self.expect_number(e, scope)?,
                    None => 1.0,
                };
                if step_v == 0.0 {
                    return Err(ScriptError::TypeError {
                        message: "for-loop step must be non-zero".to_string(),
                        at: pos,
                    });
                }
                let mut i = start_v;
                while (step_v > 0.0 && i <= stop_v) || (step_v < 0.0 && i >= stop_v) {
                    self.charge(pos)?;
                    let inner = child_scope(scope);
                    define(&inner, var, Value::Number(i));
                    match self.exec_block(body, &inner)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal => {}
                    }
                    i += step_v;
                }
                Ok(Flow::Normal)
            }
            Stmt::GenericFor { key_var, value_var, iterable, body } => {
                let v = self.eval(iterable, scope)?;
                let Value::Table(t) = v else {
                    return Err(ScriptError::TypeError {
                        message: format!("generic for expects a table, got {}", v.type_name()),
                        at: iterable.pos(),
                    });
                };
                // Snapshot entries so body mutations can't invalidate
                // iteration (and can't deadlock the RefCell).
                let entries = ops::iteration_snapshot(&t);
                for (k, v) in entries {
                    self.charge(iterable.pos())?;
                    let inner = child_scope(scope);
                    define(&inner, key_var, k);
                    if let Some(vv) = value_var {
                        define(&inner, vv, v);
                    }
                    match self.exec_block(body, &inner)? {
                        Flow::Break => break,
                        Flow::Return(rv) => return Ok(Flow::Return(rv)),
                        Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Return(e, _) => {
                let v = match e {
                    Some(e) => self.eval(e, scope)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
        }
    }

    fn expect_number(&mut self, e: &Expr, scope: &ScopeRef) -> Result<f64, ScriptError> {
        let v = self.eval(e, scope)?;
        v.as_number().ok_or_else(|| ScriptError::TypeError {
            message: format!("expected number, got {}", v.type_name()),
            at: e.pos(),
        })
    }

    fn eval(&mut self, e: &Expr, scope: &ScopeRef) -> Result<Value, ScriptError> {
        self.charge(e.pos())?;
        match e {
            Expr::Nil(_) => Ok(Value::Nil),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Number(n, _) => Ok(Value::Number(*n)),
            Expr::Str(s, _) => Ok(Value::str(s)),
            Expr::Var(name, pos) => lookup(scope, name)
                .ok_or_else(|| ScriptError::UndefinedVariable { name: name.clone(), at: *pos }),
            Expr::Unary { op, expr, pos } => {
                let v = self.eval(expr, scope)?;
                ops::apply_unary(*op, v, *pos)
            }
            Expr::Binary { op, lhs, rhs, pos } => match op {
                BinOp::And => {
                    let l = self.eval(lhs, scope)?;
                    if l.truthy() {
                        self.eval(rhs, scope)
                    } else {
                        Ok(l)
                    }
                }
                BinOp::Or => {
                    let l = self.eval(lhs, scope)?;
                    if l.truthy() {
                        Ok(l)
                    } else {
                        self.eval(rhs, scope)
                    }
                }
                _ => {
                    let l = self.eval(lhs, scope)?;
                    let r = self.eval(rhs, scope)?;
                    ops::apply_binary(*op, l, r, *pos)
                }
            },
            Expr::Index { table, key, pos } => {
                let t = self.eval(table, scope)?;
                let k = self.eval(key, scope)?;
                ops::index_get(&t, &k, *pos)
            }
            Expr::Table { array, hash, .. } => {
                let mut arr = Vec::with_capacity(array.len());
                for e in array {
                    arr.push(self.eval(e, scope)?);
                }
                let mut map = HashMap::new();
                for (k, ve) in hash {
                    let v = self.eval(ve, scope)?;
                    match k {
                        TableKey::Name(n) => {
                            map.insert(n.clone(), v);
                        }
                        TableKey::Expr(ke) => {
                            let kv = self.eval(ke, scope)?;
                            // Numeric keys in constructors extend the
                            // array part when contiguous.
                            match ops::constructor_slot(&kv, arr.len(), ke.pos())? {
                                ops::ConstructorSlot::Append => arr.push(v),
                                ops::ConstructorSlot::Hash(key) => {
                                    map.insert(key, v);
                                }
                            }
                        }
                    }
                }
                Ok(Value::table(arr, map))
            }
            Expr::Function { params, body, .. } => Ok(Value::Function(Rc::new(Closure {
                params: params.clone(),
                body: body.clone(),
                env: Rc::clone(scope),
            }))),
            Expr::Call { callee, args, pos } => {
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a, scope)?);
                }
                // Named calls may hit locals, builtins, or the host
                // whitelist (in that order).
                if let Expr::Var(name, _) = callee.as_ref() {
                    if let Some(v) = lookup(scope, name) {
                        return self.call_value(v, &arg_vals, *pos);
                    }
                    if let Some(res) = stdlib::call(name, &arg_vals, &mut self.ctx, *pos) {
                        return res;
                    }
                    if let Some(f) = self.host.get(name) {
                        return f(&mut self.ctx, &arg_vals)
                            .map_err(|message| ScriptError::HostError { message, at: *pos });
                    }
                    return Err(ScriptError::ForbiddenFunction { name: name.clone(), at: *pos });
                }
                let f = self.eval(callee, scope)?;
                self.call_value(f, &arg_vals, *pos)
            }
        }
    }

    fn call_value(&mut self, f: Value, args: &[Value], pos: Pos) -> Result<Value, ScriptError> {
        match f {
            Value::Function(closure) => {
                if self.depth >= self.max_depth {
                    return Err(ScriptError::CallDepthExceeded { limit: self.max_depth, at: pos });
                }
                self.depth += 1;
                let inner = child_scope(&closure.env);
                for (i, p) in closure.params.iter().enumerate() {
                    define(&inner, p, args.get(i).cloned().unwrap_or(Value::Nil));
                }
                let result = match self.exec_block(&closure.body, &inner)? {
                    Flow::Return(v) => Ok(v),
                    _ => Ok(Value::Nil),
                };
                self.depth -= 1;
                result
            }
            other => Err(ScriptError::TypeError {
                message: format!("attempt to call a {} value", other.type_name()),
                at: pos,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Result<Value, ScriptError> {
        Interpreter::new().run(src)
    }

    fn num(src: &str) -> f64 {
        run(src).unwrap().as_number().expect("number result")
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(num("return 1 + 2 * 3"), 7.0);
        assert_eq!(num("return (1 + 2) * 3"), 9.0);
        assert_eq!(num("return 2 ^ 3 ^ 2"), 512.0); // right assoc
        assert_eq!(num("return 7 % 3"), 1.0);
        assert_eq!(num("return -7 % 3"), 2.0); // floored modulo
        assert_eq!(num("return -2 ^ 2"), -4.0);
    }

    #[test]
    fn locals_and_assignment() {
        assert_eq!(num("local x = 1\nx = x + 1\nreturn x"), 2.0);
    }

    #[test]
    fn global_creation_on_assignment() {
        // Assignment to an undeclared name creates a global (Lua rules);
        // the inner scope's write is visible outside.
        assert_eq!(num("if true then g = 5 end\nreturn g"), 5.0);
    }

    #[test]
    fn undefined_read_is_error() {
        assert!(matches!(run("return never_defined"), Err(ScriptError::UndefinedVariable { .. })));
    }

    #[test]
    fn if_elseif_else() {
        let src = |n: i32| {
            format!(
                "local x = {n}\nif x < 0 then return \"neg\" elseif x == 0 then return \"zero\" else return \"pos\" end"
            )
        };
        assert_eq!(run(&src(-5)).unwrap(), Value::str("neg"));
        assert_eq!(run(&src(0)).unwrap(), Value::str("zero"));
        assert_eq!(run(&src(3)).unwrap(), Value::str("pos"));
    }

    #[test]
    fn while_loop_with_break() {
        assert_eq!(
            num("local i = 0\nwhile true do i = i + 1\nif i >= 5 then break end end\nreturn i"),
            5.0
        );
    }

    #[test]
    fn numeric_for_up_down_step() {
        assert_eq!(num("local s = 0\nfor i = 1, 4 do s = s + i end\nreturn s"), 10.0);
        assert_eq!(
            num("local s = 0\nfor i = 10, 1, -3 do s = s + i end\nreturn s"),
            10.0 + 7.0 + 4.0 + 1.0
        );
        assert_eq!(num("local s = 0\nfor i = 5, 1 do s = s + 1 end\nreturn s"), 0.0);
    }

    #[test]
    fn zero_step_for_is_error() {
        assert!(matches!(run("for i = 1, 5, 0 do end"), Err(ScriptError::TypeError { .. })));
    }

    #[test]
    fn tables_and_length() {
        assert_eq!(num("local t = {10, 20, 30}\nreturn t[2]"), 20.0);
        assert_eq!(num("local t = {10, 20, 30}\nreturn #t"), 3.0);
        assert_eq!(num("local t = {x = 7}\nreturn t.x"), 7.0);
        assert_eq!(num("local t = {}\nt[1] = 5\nt[2] = 6\nreturn t[1] + t[2]"), 11.0);
        assert_eq!(num("local t = {}\nt.key = 3\nreturn t['key']"), 3.0);
    }

    #[test]
    fn sparse_write_rejected() {
        assert!(matches!(run("local t = {}\nt[100] = 1"), Err(ScriptError::TypeError { .. })));
    }

    #[test]
    fn missing_index_is_nil() {
        assert_eq!(run("local t = {1}\nreturn t[5]").unwrap(), Value::Nil);
        assert_eq!(run("local t = {}\nreturn t.missing").unwrap(), Value::Nil);
    }

    #[test]
    fn functions_and_recursion() {
        let src = r#"
            local function fib(n)
                if n < 2 then return n end
                return fib(n - 1) + fib(n - 2)
            end
            return fib(12)
        "#;
        assert_eq!(num(src), 144.0);
    }

    #[test]
    fn closures_capture_environment() {
        let src = r#"
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
        "#;
        assert_eq!(num(src), 3.0);
    }

    #[test]
    fn higher_order_functions() {
        let src = r#"
            local function apply(f, x) return f(x) end
            return apply(function(v) return v * 10 end, 4)
        "#;
        assert_eq!(num(src), 40.0);
    }

    #[test]
    fn string_operations() {
        assert_eq!(run("return 'a' .. 'b' .. 1").unwrap(), Value::str("ab1"));
        assert_eq!(run("return 'abc' < 'abd'").unwrap(), Value::Bool(true));
        assert_eq!(num("return #'hello'"), 5.0);
    }

    #[test]
    fn logical_short_circuit_returns_operand() {
        assert_eq!(num("return false or 5"), 5.0);
        assert_eq!(num("return nil and error('never') or 7"), 7.0);
        assert_eq!(run("return 1 and 2").unwrap(), Value::Number(2.0));
    }

    #[test]
    fn generic_for_iterates_array_part() {
        let src = r#"
            local t = {10, 20, 30}
            local s = 0
            local ksum = 0
            for i, v in t do
                s = s + v
                ksum = ksum + i
            end
            return s + ksum
        "#;
        assert_eq!(num(src), 66.0); // 60 values + 1+2+3 keys
    }

    #[test]
    fn generic_for_iterates_hash_part_sorted() {
        let src = r#"
            local t = {b = 2, a = 1, c = 3}
            local keys = ""
            local sum = 0
            for k, v in t do
                keys = keys .. k
                sum = sum + v
            end
            return keys .. sum
        "#;
        assert_eq!(run(src).unwrap(), Value::str("abc6"));
    }

    #[test]
    fn generic_for_single_variable_and_break() {
        let src = r#"
            local t = {5, 6, 7, 8}
            local count = 0
            for i in t do
                if i == 3 then break end
                count = count + 1
            end
            return count
        "#;
        assert_eq!(num(src), 2.0);
    }

    #[test]
    fn generic_for_return_propagates() {
        let src = r#"
            local t = {1, 2, 3}
            for _, v in t do
                if v == 2 then return v * 100 end
            end
            return -1
        "#;
        assert_eq!(num(src), 200.0);
    }

    #[test]
    fn generic_for_over_non_table_is_error() {
        assert!(matches!(run("for k, v in 5 do end"), Err(ScriptError::TypeError { .. })));
    }

    #[test]
    fn generic_for_body_mutation_is_safe() {
        // Appending while iterating must not loop forever (we iterate a
        // snapshot).
        let src = r#"
            local t = {1, 2}
            local n = 0
            for _, v in t do
                insert(t, v)
                n = n + 1
            end
            return n
        "#;
        assert_eq!(num(src), 2.0);
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let mut interp = Interpreter::new();
        interp.set_budget(10_000);
        assert!(matches!(
            interp.run("while true do end"),
            Err(ScriptError::BudgetExhausted { budget: 10_000, .. })
        ));
        assert_eq!(interp.instructions_used(), 10_000);
    }

    #[test]
    fn forbidden_function_rejected() {
        assert!(matches!(
            run("os_execute('rm -rf /')"),
            Err(ScriptError::ForbiddenFunction { .. })
        ));
    }

    #[test]
    fn whitelisted_host_function_callable() {
        let mut interp = Interpreter::new();
        interp.host_mut().register("get_light_readings", |ctx, args| {
            let n = args.first().and_then(Value::as_number).unwrap_or(1.0) as usize;
            ctx.virtual_time += n as f64 * 0.2;
            Ok(Value::number_array(&vec![420.0; n]))
        });
        let v = interp.run("local r = get_light_readings(5)\nreturn mean(r)").unwrap();
        assert_eq!(v, Value::Number(420.0));
        assert!((interp.virtual_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn host_error_surfaces() {
        let mut interp = Interpreter::new();
        interp.host_mut().register("flaky", |_, _| Err("sensor timeout".to_string()));
        assert!(matches!(
            interp.run("flaky()"),
            Err(ScriptError::HostError { ref message, at: Pos { line: 1, col: 6 } })
                if message == "sensor timeout"
        ));
    }

    #[test]
    fn locals_shadow_builtins_and_host() {
        let src = r#"
            local mean = function(t) return 999 end
            return mean({1, 2, 3})
        "#;
        assert_eq!(num(src), 999.0);
    }

    #[test]
    fn print_output_captured_per_run() {
        let mut interp = Interpreter::new();
        interp.run("print('a')\nprint('b', 1)").unwrap();
        assert_eq!(interp.output(), &["a".to_string(), "b\t1".to_string()]);
        interp.run("print('fresh')").unwrap();
        assert_eq!(interp.output(), &["fresh".to_string()]);
    }

    #[test]
    fn full_sensing_script_shape() {
        // The Fig. 4 pattern: loop, sample, pace with sleep, report.
        let mut interp = Interpreter::new();
        interp.host_mut().register("get_accel", |ctx, _| {
            ctx.virtual_time += 0.1;
            Ok(Value::number_array(&[0.1, -0.2, 9.8]))
        });
        interp.host_mut().register("report", |ctx, args| {
            ctx.output.push(format!("report:{}", args[0].display()));
            Ok(Value::Nil)
        });
        let src = r#"
            local samples = {}
            for i = 1, 3 do
                local a = get_accel()
                insert(samples, stddev(a))
                sleep(1)
            end
            report(mean(samples))
            return #samples
        "#;
        assert_eq!(interp.run(src).unwrap(), Value::Number(3.0));
        assert_eq!(interp.output().len(), 1);
        assert!(interp.output()[0].starts_with("report:"));
        assert!((interp.virtual_time() - 3.3).abs() < 1e-9);
    }

    #[test]
    fn calling_non_function_value_is_type_error() {
        assert!(matches!(run("local x = 5\nx()"), Err(ScriptError::TypeError { .. })));
    }

    #[test]
    fn nan_comparison_is_false() {
        assert_eq!(run("local nan = 0/0\nreturn nan < 1").unwrap(), Value::Bool(false));
        assert_eq!(run("local nan = 0/0\nreturn nan == nan").unwrap(), Value::Bool(false));
    }

    #[test]
    fn deep_recursion_hits_depth_limit_not_stack() {
        let mut interp = Interpreter::new();
        let src = r#"
            local function down(n)
                if n == 0 then return 0 end
                return down(n - 1)
            end
            return down(100000)
        "#;
        assert!(matches!(
            interp.run(src),
            Err(ScriptError::CallDepthExceeded { limit: DEFAULT_MAX_DEPTH, .. })
        ));
    }

    #[test]
    fn recursion_within_depth_limit_is_fine() {
        let mut interp = Interpreter::new();
        let src = r#"
            local function down(n)
                if n == 0 then return 0 end
                return down(n - 1)
            end
            return down(80)
        "#;
        assert_eq!(interp.run(src).unwrap(), Value::Number(0.0));
    }
}
