//! Pass 3.5: worklist-driven abstract interpretation over the CFGs.
//!
//! A single fixpoint engine ([`solve`]) runs any [`Domain`] — an
//! abstract value lattice with a transfer function — over the
//! per-function [`Cfg`]s built by the [`crate::analysis::cfg`] pass.
//! Three domains ship with it:
//!
//! - [`interval`] — constant/interval propagation for numeric locals.
//!   Its product is a *loop-bounds table*: numeric `for` loops whose
//!   bounds are provably confined to an interval get a finite trip
//!   count, which the cost pass uses to replace ⊤ (W402) verdicts
//!   with real bounds.
//! - [`taint`] — sensor-read provenance. Each capability call stamps
//!   its value with a raw-taint origin; aggregating builtins (`mean`,
//!   `histogram`, …) launder raw into aggregate; a top-level `return`
//!   carrying raw high-sensitivity taint is **E004** (admission
//!   rejects), raw medium-sensitivity is **W501**.
//! - [`liveness`] — backward liveness powering **W204** dead-store
//!   findings (a value written to a local that is overwritten before
//!   any read).
//!
//! [`dead_branches`] adds **W203** for branches statically severed by
//! literal conditions.
//!
//! The engine is deliberately *shallow*: loop headers hold exactly
//! their loop statement, bodies live in successor blocks, so transfer
//! functions look only at a statement's own expressions. Widening
//! kicks in after a few visits to the same block, so interval growth
//! through loops terminates.

pub mod interval;
pub mod liveness;
pub mod taint;

use std::collections::{HashMap, HashSet, VecDeque};

use crate::analysis::cfg::{Cfg, EXIT};
use crate::analysis::consteval::const_truthy;
use crate::analysis::diagnostic::{Diagnostic, DiagnosticCode};
use crate::analysis::resolve::Resolution;
use crate::analysis::CapabilitySet;
use crate::ast::{Block, Expr, Stmt, TableKey, Target};
use crate::Pos;

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along successor edges.
    Forward,
    /// Facts flow from the exit along predecessor edges.
    Backward,
}

/// An abstract domain the engine can run to fixpoint.
pub trait Domain {
    /// The per-program-point fact (an abstract environment).
    type Fact: Clone + PartialEq;

    /// Analysis direction.
    fn direction(&self) -> Direction;

    /// The fact at the boundary block (entry for forward analyses,
    /// exit for backward ones).
    fn boundary(&self) -> Self::Fact;

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Accelerates convergence at frequently-revisited blocks (loop
    /// heads). Must be an upper bound of both arguments; the default
    /// is plain join, correct for finite lattices.
    fn widen(&self, _old: &Self::Fact, joined: Self::Fact) -> Self::Fact {
        joined
    }

    /// Applies one statement's effect to the fact, *shallow*: loop and
    /// branch bodies are separate blocks and must not be entered here.
    fn transfer(&mut self, stmt: &Stmt, fact: &mut Self::Fact);
}

/// Fixpoint result: the fact flowing *into* each block, in analysis
/// direction (`None` = the block is unreachable from the boundary).
#[derive(Debug)]
pub struct Solution<F> {
    /// Per-block input facts.
    pub input: Vec<Option<F>>,
}

/// Visits after which [`Domain::widen`] replaces plain join.
const WIDEN_AFTER: usize = 4;

/// Runs `dom` to fixpoint over `cfg` with a FIFO worklist.
pub fn solve<D: Domain>(cfg: &Cfg<'_>, dom: &mut D) -> Solution<D::Fact> {
    let n = cfg.blocks.len();
    let backward = dom.direction() == Direction::Backward;
    let preds = cfg.preds();
    let (in_edges, out_edges): (Vec<Vec<usize>>, Vec<Vec<usize>>) = if backward {
        (cfg.blocks.iter().map(|b| b.succs.clone()).collect(), preds)
    } else {
        (preds, cfg.blocks.iter().map(|b| b.succs.clone()).collect())
    };
    let start = if backward { EXIT } else { cfg.entry };

    let mut input: Vec<Option<D::Fact>> = (0..n).map(|_| None).collect();
    let mut output: Vec<Option<D::Fact>> = (0..n).map(|_| None).collect();
    let mut visits = vec![0usize; n];
    let mut queued = vec![false; n];
    let mut worklist = VecDeque::new();
    worklist.push_back(start);
    queued[start] = true;

    while let Some(b) = worklist.pop_front() {
        queued[b] = false;
        let mut acc: Option<D::Fact> = if b == start { Some(dom.boundary()) } else { None };
        for &p in &in_edges[b] {
            if let Some(out) = &output[p] {
                acc = Some(match acc {
                    Some(a) => dom.join(&a, out),
                    None => out.clone(),
                });
            }
        }
        let Some(mut new_in) = acc else { continue };
        visits[b] += 1;
        if visits[b] > WIDEN_AFTER {
            if let Some(old) = &input[b] {
                new_in = dom.widen(old, new_in);
            }
        }
        if input[b].as_ref() == Some(&new_in) && output[b].is_some() {
            continue;
        }
        input[b] = Some(new_in.clone());
        let mut f = new_in;
        if backward {
            for s in cfg.blocks[b].stmts.iter().rev() {
                dom.transfer(s, &mut f);
            }
        } else {
            for s in &cfg.blocks[b].stmts {
                dom.transfer(s, &mut f);
            }
        }
        if output[b].as_ref() != Some(&f) {
            output[b] = Some(f);
            for &s in &out_edges[b] {
                if !queued[s] {
                    queued[s] = true;
                    worklist.push_back(s);
                }
            }
        }
    }
    Solution { input }
}

/// One post-fixpoint walk: calls `f(dom, stmt, fact_before)` for every
/// statement of every reachable block, with the fact holding *before*
/// the statement in analysis direction (for backward domains that is
/// the fact *after* it in program order — exactly liveness-out).
pub fn inspect<D: Domain>(
    cfg: &Cfg<'_>,
    dom: &mut D,
    sol: &Solution<D::Fact>,
    mut f: impl FnMut(&mut D, &Stmt, &D::Fact),
) {
    let backward = dom.direction() == Direction::Backward;
    for (i, block) in cfg.blocks.iter().enumerate() {
        let Some(fact) = &sol.input[i] else { continue };
        let mut fact = fact.clone();
        if backward {
            for s in block.stmts.iter().rev() {
                f(dom, s, &fact);
                dom.transfer(s, &mut fact);
            }
        } else {
            for s in &block.stmts {
                f(dom, s, &fact);
                dom.transfer(s, &mut fact);
            }
        }
    }
}

/// How the runtime scope machinery limits what name-keyed analyses
/// may track. One conservative AST walk classifies every name.
#[derive(Debug, Default)]
pub struct NameClasses {
    /// Names assigned without a visible `local` binding — true
    /// globals. Any call may rewrite them; no domain tracks their
    /// value.
    pub globals: HashSet<String>,
    /// Names assigned anywhere inside a function literal. A call can
    /// mutate them behind the analysis's back.
    pub fn_assigned: HashSet<String>,
    /// Names read anywhere inside a function literal. A later call can
    /// observe them, so stores are never dead.
    pub fn_read: HashSet<String>,
}

impl NameClasses {
    /// Whether a value-tracking domain may keep facts for `name`.
    pub fn trackable(&self, name: &str) -> bool {
        !self.globals.contains(name) && !self.fn_assigned.contains(name)
    }

    /// Whether a store to `name` can ever be proven dead.
    pub fn store_observable(&self, name: &str) -> bool {
        self.globals.contains(name)
            || self.fn_assigned.contains(name)
            || self.fn_read.contains(name)
    }
}

/// Classifies every name in the script for the value-tracking and
/// liveness domains.
pub fn classify_names(top: &Block) -> NameClasses {
    let mut c = NameClasses::default();
    let mut scopes: Vec<HashSet<String>> = vec![HashSet::new()];
    walk_block(top, &mut c, &mut scopes, 0);
    c
}

fn walk_block(
    block: &Block,
    c: &mut NameClasses,
    scopes: &mut Vec<HashSet<String>>,
    fn_depth: usize,
) {
    scopes.push(HashSet::new());
    for stmt in block {
        walk_stmt(stmt, c, scopes, fn_depth);
    }
    scopes.pop();
}

fn walk_stmt(stmt: &Stmt, c: &mut NameClasses, scopes: &mut Vec<HashSet<String>>, fn_depth: usize) {
    match stmt {
        Stmt::Local { name, init, .. } => {
            if let Some(e) = init {
                walk_expr(e, c, scopes, fn_depth);
            }
            scopes.last_mut().expect("scope").insert(name.clone());
        }
        Stmt::LocalFunction { name, params, body, .. } => {
            scopes.last_mut().expect("scope").insert(name.clone());
            walk_fn(params, body, c, scopes);
        }
        Stmt::Assign { target, value, .. } => {
            walk_expr(value, c, scopes, fn_depth);
            match target {
                Target::Name(name) => {
                    if fn_depth > 0 {
                        c.fn_assigned.insert(name.clone());
                    }
                    if !scopes.iter().any(|s| s.contains(name)) {
                        c.globals.insert(name.clone());
                    }
                }
                Target::Index { table, key } => {
                    walk_expr(table, c, scopes, fn_depth);
                    walk_expr(key, c, scopes, fn_depth);
                }
            }
        }
        Stmt::ExprStmt(e) => walk_expr(e, c, scopes, fn_depth),
        Stmt::If { arms, otherwise } => {
            for (cond, body) in arms {
                walk_expr(cond, c, scopes, fn_depth);
                walk_block(body, c, scopes, fn_depth);
            }
            if let Some(body) = otherwise {
                walk_block(body, c, scopes, fn_depth);
            }
        }
        Stmt::While { cond, body } => {
            walk_expr(cond, c, scopes, fn_depth);
            walk_block(body, c, scopes, fn_depth);
        }
        Stmt::NumericFor { var, start, stop, step, body } => {
            walk_expr(start, c, scopes, fn_depth);
            walk_expr(stop, c, scopes, fn_depth);
            if let Some(e) = step {
                walk_expr(e, c, scopes, fn_depth);
            }
            scopes.push(HashSet::from([var.clone()]));
            for s in body {
                walk_stmt(s, c, scopes, fn_depth);
            }
            scopes.pop();
        }
        Stmt::GenericFor { key_var, value_var, iterable, body } => {
            walk_expr(iterable, c, scopes, fn_depth);
            let mut vars = HashSet::from([key_var.clone()]);
            if let Some(v) = value_var {
                vars.insert(v.clone());
            }
            scopes.push(vars);
            for s in body {
                walk_stmt(s, c, scopes, fn_depth);
            }
            scopes.pop();
        }
        Stmt::Break(_) => {}
        Stmt::Return(e, _) => {
            if let Some(e) = e {
                walk_expr(e, c, scopes, fn_depth);
            }
        }
    }
}

fn walk_expr(e: &Expr, c: &mut NameClasses, scopes: &mut Vec<HashSet<String>>, fn_depth: usize) {
    match e {
        Expr::Nil(_) | Expr::Bool(..) | Expr::Number(..) | Expr::Str(..) => {}
        Expr::Var(name, _) => {
            if fn_depth > 0 {
                c.fn_read.insert(name.clone());
            }
        }
        Expr::Unary { expr, .. } => walk_expr(expr, c, scopes, fn_depth),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, c, scopes, fn_depth);
            walk_expr(rhs, c, scopes, fn_depth);
        }
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, c, scopes, fn_depth);
            for a in args {
                walk_expr(a, c, scopes, fn_depth);
            }
        }
        Expr::Index { table, key, .. } => {
            walk_expr(table, c, scopes, fn_depth);
            walk_expr(key, c, scopes, fn_depth);
        }
        Expr::Table { array, hash, .. } => {
            for a in array {
                walk_expr(a, c, scopes, fn_depth);
            }
            for (k, v) in hash {
                if let TableKey::Expr(ke) = k {
                    walk_expr(ke, c, scopes, fn_depth);
                }
                walk_expr(v, c, scopes, fn_depth);
            }
        }
        Expr::Function { params, body, .. } => walk_fn(params, body, c, scopes),
    }
}

fn walk_fn(
    params: &[String],
    body: &Block,
    c: &mut NameClasses,
    scopes: &mut Vec<HashSet<String>>,
) {
    scopes.push(params.iter().cloned().collect());
    for s in body {
        walk_stmt(s, c, scopes, 1);
    }
    scopes.pop();
}

/// What the dataflow pass hands back to [`crate::analysis`].
#[derive(Debug, Default)]
pub(crate) struct FlowOutcome {
    /// W203 / W204 / E004 / W501 findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Loop-header position → proved maximal trip count, consumed by
    /// the cost pass for loops whose bounds are not literal constants.
    pub loop_bounds: HashMap<(u32, u32), u64>,
}

/// Runs every dataflow domain over the script and collects findings.
pub(crate) fn pass(top: &Block, res: &Resolution<'_>, caps: &CapabilitySet) -> FlowOutcome {
    let classes = classify_names(top);
    let mut out = FlowOutcome::default();

    // Per-body CFGs: the top level plus every function literal.
    // Build-diagnostics are discarded — the cfg pass already reported
    // them.
    let bodies: Vec<(&Block, Pos)> = std::iter::once((top, Pos { line: 1, col: 1 }))
        .chain(res.functions.iter().map(|f| (f.body, f.pos)))
        .collect();

    for (body, fn_pos) in &bodies {
        let (cfg, _) = Cfg::build(body, *fn_pos);
        interval::loop_bounds(&cfg, &classes, &mut out.loop_bounds);
        liveness::dead_stores(&cfg, &classes, &mut out.diagnostics);
    }

    taint::check(top, res, caps, &mut out.diagnostics);
    dead_branches(top, &mut out.diagnostics);
    out
}

/// W203: branches severed by literal conditions. Walks the AST (the
/// shape is syntactic, no fixpoint needed) flagging `if` arms whose
/// condition is constant-false, arms shadowed by an earlier
/// constant-true condition, and `while` loops that never run.
pub(crate) fn dead_branches(block: &Block, diags: &mut Vec<Diagnostic>) {
    for stmt in block {
        match stmt {
            Stmt::If { arms, otherwise } => {
                let mut taken = false;
                for (cond, body) in arms {
                    if taken {
                        diags.push(Diagnostic::new(
                            DiagnosticCode::DeadBranch,
                            cond.pos(),
                            "this arm can never run: an earlier condition is constant true",
                        ));
                    } else {
                        match const_truthy(cond) {
                            Some(false) => diags.push(Diagnostic::new(
                                DiagnosticCode::DeadBranch,
                                cond.pos(),
                                "this arm can never run: its condition is constant false",
                            )),
                            Some(true) => taken = true,
                            None => {}
                        }
                    }
                    dead_branches(body, diags);
                }
                if let Some(body) = otherwise {
                    if taken {
                        diags.push(Diagnostic::new(
                            DiagnosticCode::DeadBranch,
                            body.first().map(Stmt::pos).unwrap_or_default(),
                            "this `else` can never run: an earlier condition is constant true",
                        ));
                    }
                    dead_branches(body, diags);
                }
            }
            Stmt::While { cond, body } => {
                if const_truthy(cond) == Some(false) {
                    diags.push(Diagnostic::new(
                        DiagnosticCode::DeadBranch,
                        cond.pos(),
                        "this loop body can never run: the condition is constant false",
                    ));
                }
                dead_branches(body, diags);
            }
            Stmt::NumericFor { body, .. } | Stmt::GenericFor { body, .. } => {
                dead_branches(body, diags);
            }
            Stmt::LocalFunction { body, .. } => dead_branches(body, diags),
            Stmt::Local { init: Some(e), .. }
            | Stmt::Assign { value: e, .. }
            | Stmt::ExprStmt(e)
            | Stmt::Return(Some(e), _) => dead_branches_in_expr(e, diags),
            _ => {}
        }
    }
}

fn dead_branches_in_expr(e: &Expr, diags: &mut Vec<Diagnostic>) {
    match e {
        Expr::Function { body, .. } => dead_branches(body, diags),
        Expr::Unary { expr, .. } => dead_branches_in_expr(expr, diags),
        Expr::Binary { lhs, rhs, .. } => {
            dead_branches_in_expr(lhs, diags);
            dead_branches_in_expr(rhs, diags);
        }
        Expr::Call { callee, args, .. } => {
            dead_branches_in_expr(callee, diags);
            for a in args {
                dead_branches_in_expr(a, diags);
            }
        }
        Expr::Index { table, key, .. } => {
            dead_branches_in_expr(table, diags);
            dead_branches_in_expr(key, diags);
        }
        Expr::Table { array, hash, .. } => {
            for a in array {
                dead_branches_in_expr(a, diags);
            }
            for (k, v) in hash {
                if let TableKey::Expr(ke) = k {
                    dead_branches_in_expr(ke, diags);
                }
                dead_branches_in_expr(v, diags);
            }
        }
        _ => {}
    }
}
