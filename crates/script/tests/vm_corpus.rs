//! VM ↔ tree-walker corpus gate.
//!
//! The bytecode VM is the engine the phone runs; the tree-walking
//! interpreter is its reference. Every parseable `tests/lint_corpus/*.ss`
//! script — the shipped field-test and aggregation scripts included —
//! runs through both engines against the same host, once on a fixed
//! host and once per seed on a deterministic pseudo-random sensing host.
//! The engines must agree on value, error kind, `print` output, virtual
//! time, and — on success — the exact instruction count; on an error
//! the VM must never have charged more. A final test pins the fuel
//! semantics: a script whose static bound is within a few instructions
//! of its dynamic count must still complete when the VM's fuel limit is
//! set to that bound.

use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use sor_script::analysis::{analyze, CapabilitySet, Cost};
use sor_script::ast::Block;
use sor_script::parser::parse;
use sor_script::{compile, CompiledModule, HostContext, HostRegistry, Interpreter, Value, Vm};

/// Seeds of the pseudo-random sensing hosts every corpus script runs
/// under, besides the fixed host.
const SEEDS: [u64; 3] = [1, 2, 3];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_corpus")
}

fn corpus_scripts() -> Vec<PathBuf> {
    let mut scripts: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ss"))
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "lint corpus must not be empty");
    scripts
}

const CAPABILITIES: [&str; 10] = [
    "get_temperature_readings",
    "get_humidity_readings",
    "get_light_readings",
    "get_noise_readings",
    "get_wifi_readings",
    "get_pressure_readings",
    "get_accel_readings",
    "get_gps_readings",
    "get_compass_readings",
    "get_location",
];

/// Same fixed host as the lint-corpus bound check: every standard
/// capability serves a small deterministic readings array.
fn fixed_host() -> HostRegistry {
    let mut host = HostRegistry::new();
    let serve = |ctx: &mut HostContext, args: &[Value]| {
        let n = args.first().and_then(Value::as_number).map(|v| v.max(1.0) as usize).unwrap_or(1);
        let vals: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        ctx.virtual_time += n as f64 * 0.1;
        Ok(Value::number_array(&vals))
    };
    for name in CAPABILITIES {
        host.register(name, serve);
    }
    host
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [lo, hi) with 3 decimal digits, sensor-reading style.
    fn reading(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1000.0).round() / 1000.0
    }
}

/// FNV-1a, so a capability's stream depends only on (name, seed, call).
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A host serving every standard sensing capability with seeded
/// pseudo-readings in a plausible range. A fresh registry with the same
/// seed replays the exact same stream, so both engines see identical
/// sensor data call for call.
fn fake_sensing_host(seed: u64) -> HostRegistry {
    const RANGES: [(&str, f64, f64); 9] = [
        ("get_temperature_readings", 15.0, 30.0),
        ("get_humidity_readings", 20.0, 90.0),
        ("get_light_readings", 0.0, 1000.0),
        ("get_noise_readings", 30.0, 100.0),
        ("get_wifi_readings", -90.0, -30.0),
        ("get_pressure_readings", 980.0, 1040.0),
        ("get_accel_readings", -2.0, 2.0),
        ("get_gps_readings", -180.0, 180.0),
        ("get_compass_readings", 0.0, 360.0),
    ];
    let stream = move |name: &str, call: u64| {
        Rng::new(seed ^ name_hash(name) ^ call.wrapping_mul(0x9e37_79b9))
    };
    let mut host = HostRegistry::new();
    for (name, lo, hi) in RANGES {
        let calls = Rc::new(Cell::new(0u64));
        host.register(name, move |ctx, args| {
            let n = args
                .first()
                .and_then(Value::as_number)
                .map(|v| v.clamp(1.0, 4096.0) as usize)
                .unwrap_or(1);
            let mut rng = stream(name, calls.replace(calls.get() + 1));
            let vals: Vec<f64> = (0..n).map(|_| rng.reading(lo, hi)).collect();
            ctx.virtual_time += n as f64 * 0.1;
            Ok(Value::number_array(&vals))
        });
    }
    let calls = Rc::new(Cell::new(0u64));
    host.register("get_location", move |ctx, _args| {
        let mut rng = stream("get_location", calls.replace(calls.get() + 1));
        ctx.virtual_time += 1.0;
        Ok(Value::number_array(&[rng.reading(-90.0, 90.0), rng.reading(-180.0, 180.0)]))
    });
    host
}

/// Structural equality good enough for corpus return values (tables by
/// contents, NaN equal to itself, any function equals any function).
fn structurally_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::Table(x), Value::Table(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.array.len() == y.array.len()
                && x.hash.len() == y.hash.len()
                && x.array.iter().zip(y.array.iter()).all(|(a, b)| structurally_eq(a, b))
                && x.hash.iter().all(|(k, v)| y.hash.get(k).is_some_and(|w| structurally_eq(v, w)))
        }
        (Value::Function(_) | Value::Compiled(_), Value::Function(_) | Value::Compiled(_)) => true,
        _ => a == b,
    }
}

/// Runs one program on both engines, each with a fresh `host()`, and
/// asserts they agree exactly. `case` names the script and host in
/// failure messages.
fn assert_engines_agree(
    case: &str,
    block: &Block,
    module: &Arc<CompiledModule>,
    host: impl Fn() -> HostRegistry,
) {
    let mut interp = Interpreter::with_host(host());
    let tree = interp.run_block(block);
    let mut vm = Vm::with_host(host());
    let byte = vm.run_module(module);

    assert_eq!(interp.output(), vm.output(), "{case}: print output diverges");
    assert!(
        (interp.virtual_time() - vm.virtual_time()).abs() < 1e-12,
        "{case}: virtual time diverges"
    );
    match (&tree, &byte) {
        (Ok(a), Ok(b)) => {
            assert!(
                structurally_eq(a, b),
                "{case}: values diverge: {} vs {}",
                a.display(),
                b.display()
            );
            assert_eq!(
                interp.instructions_used(),
                vm.instructions_used(),
                "{case}: instruction counts diverge"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{case}: error kinds diverge: {a:?} vs {b:?}"
            );
            assert!(
                vm.instructions_used() <= interp.instructions_used(),
                "{case}: vm overcharged on error path"
            );
        }
        (a, b) => panic!("{case}: outcomes diverge: {a:?} vs {b:?}"),
    }
}

#[test]
fn corpus_runs_identically_on_both_engines() {
    let mut executed = 0usize;
    for script in corpus_scripts() {
        let name = script.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&script).expect("corpus script reads");
        // Unparseable corpus entries exercise the linter only; both
        // engines would reject them in the shared parser.
        let Ok(block) = parse(&src) else { continue };
        let module = Arc::new(compile(&block));
        assert_engines_agree(&format!("{name} (fixed host)"), &block, &module, fixed_host);
        for seed in SEEDS {
            assert_engines_agree(&format!("{name} (seed {seed})"), &block, &module, || {
                fake_sensing_host(seed)
            });
        }
        executed += 1;
    }
    assert!(executed >= 10, "expected most of the corpus to execute, got {executed}");
}

#[test]
fn vm_completes_under_fuel_limit_pinned_to_static_bound() {
    // A straight-line script with no host calls: the analyzer's bound
    // counts exactly the nodes the engines charge, so the static bound
    // sits within a few instructions of the dynamic count — the
    // tightest fuel limit the frontend would ever impose.
    let src = "local a = 1\nlocal b = a + 2\nlocal c = b * b\nreturn c - a";
    let caps = CapabilitySet::standard_sensing();
    let report = analyze(src, &caps);
    let Cost::Bounded(bound) = report.cost else { panic!("straight-line script must bound") };

    let module = Arc::new(compile(&parse(src).unwrap()));
    let mut vm = Vm::with_host(fixed_host());
    vm.set_budget(bound);
    let v = vm.run_module(&module).expect("must complete within its own static bound");
    assert_eq!(v, Value::Number(8.0));
    let used = vm.instructions_used();
    assert!(used <= bound, "measured {used} > bound {bound}");
    assert!(
        bound - used <= 4,
        "test premise broken: bound {bound} is not near the dynamic count {used}; \
         pick a script the cost pass counts exactly"
    );

    // One instruction less than the dynamic count must fail — the fuel
    // limit is exact, not approximate.
    let mut starved = Vm::with_host(fixed_host());
    starved.set_budget(used - 1);
    assert!(matches!(
        starved.run_module(&module),
        Err(sor_script::ScriptError::BudgetExhausted { .. })
    ));
}

#[test]
fn bounded_corpus_scripts_respect_bounds_under_vm_fuel() {
    // The frontend clamps VM fuel to the analyzer's bound; this is only
    // sound if every bounded, runnable corpus script completes under
    // that exact fuel limit.
    let caps = CapabilitySet::standard_sensing();
    let mut checked = 0usize;
    for script in corpus_scripts() {
        let src = std::fs::read_to_string(&script).expect("corpus script reads");
        let report = analyze(&src, &caps);
        let Cost::Bounded(bound) = report.cost else { continue };
        let Ok(block) = parse(&src) else { continue };
        let module = Arc::new(compile(&block));
        // Only scripts that succeed on the tree-walker participate.
        if Interpreter::with_host(fixed_host()).run(&src).is_err() {
            continue;
        }
        let mut vm = Vm::with_host(fixed_host());
        vm.set_budget(bound);
        vm.run_module(&module).unwrap_or_else(|e| {
            panic!("{}: ran out of fuel under its own static bound: {e}", script.display())
        });
        checked += 1;
    }
    assert!(checked >= 5, "expected several bounded, runnable corpus scripts, got {checked}");
}
