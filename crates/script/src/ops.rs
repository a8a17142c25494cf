//! Shared runtime semantics of SenseScript operators.
//!
//! Every observable operation that both execution engines — the
//! tree-walking [`crate::interp::Interpreter`] and the bytecode
//! [`crate::bytecode::Vm`] — must agree on bit-for-bit lives here:
//! unary/binary operators (including Lua's floored modulo and
//! NaN-compares-false ordering), table indexing, the table-constructor
//! numeric-key rule, and the generic-for iteration snapshot. The
//! `vm_corpus` differential gate checks the engines against each
//! other; sharing the semantics kernel is what makes that gate
//! hold by construction rather than by parallel maintenance.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ast::{BinOp, UnOp};
use crate::value::{Table, Value};
use crate::{Pos, ScriptError};

/// Applies a unary operator. `-` needs a number, `not` follows Lua
/// truthiness, `#` measures a table's array part or a string's chars.
///
/// # Errors
///
/// [`ScriptError::TypeError`] when the operand type does not fit.
pub fn apply_unary(op: UnOp, v: Value, pos: Pos) -> Result<Value, ScriptError> {
    match op {
        UnOp::Neg => {
            v.as_number().map(|n| Value::Number(-n)).ok_or_else(|| ScriptError::TypeError {
                message: format!("cannot negate a {}", v.type_name()),
                at: pos,
            })
        }
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
        UnOp::Len => match &v {
            Value::Table(t) => Ok(Value::Number(t.borrow().array.len() as f64)),
            Value::Str(s) => Ok(Value::Number(s.chars().count() as f64)),
            other => Err(ScriptError::TypeError {
                message: format!("cannot take length of a {}", other.type_name()),
                at: pos,
            }),
        },
    }
}

/// Applies a non-short-circuit binary operator (`and`/`or` are control
/// flow and stay in the engines). Arithmetic follows Lua 5.1: floored
/// modulo, `^` via `powf`, `..` on strings and numbers only, ordering
/// on numbers and strings with NaN comparisons false.
///
/// # Errors
///
/// [`ScriptError::TypeError`] on operand type mismatches.
pub fn apply_binary(op: BinOp, l: Value, r: Value, pos: Pos) -> Result<Value, ScriptError> {
    use BinOp::*;
    let type_err = |msg: String| ScriptError::TypeError { message: msg, at: pos };
    match op {
        Add | Sub | Mul | Div | Mod | Pow => {
            let (a, b) = match (l.as_number(), r.as_number()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(type_err(format!(
                        "arithmetic on {} and {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            let n = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a - (a / b).floor() * b, // Lua's floored modulo
                Pow => a.powf(b),
                _ => unreachable!(),
            };
            Ok(Value::Number(n))
        }
        Concat => match (&l, &r) {
            (Value::Str(_) | Value::Number(_), Value::Str(_) | Value::Number(_)) => {
                Ok(Value::str(format!("{}{}", l.display(), r.display())))
            }
            _ => {
                Err(type_err(format!("cannot concatenate {} and {}", l.type_name(), r.type_name())))
            }
        },
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt | Le | Gt | Ge => {
            let ord = match (&l, &r) {
                (Value::Number(a), Value::Number(b)) => a.partial_cmp(b),
                (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                _ => {
                    return Err(type_err(format!(
                        "cannot compare {} and {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            let Some(ord) = ord else {
                return Ok(Value::Bool(false)); // NaN comparisons
            };
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        And | Or => unreachable!("short-circuit ops are control flow in the engines"),
    }
}

/// Reads `t[k]`: integral keys ≥ 1 hit the array part (missing → nil),
/// string keys the hash part (missing → nil); anything else is an
/// error, as is indexing a non-table.
///
/// # Errors
///
/// [`ScriptError::TypeError`] on non-table `t` or an invalid key type.
pub fn index_get(t: &Value, k: &Value, pos: Pos) -> Result<Value, ScriptError> {
    let Value::Table(t) = t else {
        return Err(ScriptError::TypeError {
            message: format!("attempt to index a {}", t.type_name()),
            at: pos,
        });
    };
    let t = t.borrow();
    match k {
        Value::Number(n) if n.fract() == 0.0 && *n >= 1.0 => {
            Ok(t.array.get(*n as usize - 1).cloned().unwrap_or(Value::Nil))
        }
        Value::Str(s) => Ok(t.hash.get(s.as_ref()).cloned().unwrap_or(Value::Nil)),
        other => Err(ScriptError::TypeError {
            message: format!("invalid table key of type {}", other.type_name()),
            at: pos,
        }),
    }
}

/// Writes `t[k] = v`: in-bounds array overwrite, `len+1` append, hash
/// insert for string keys; sparse numeric writes are rejected.
///
/// # Errors
///
/// [`ScriptError::TypeError`] on non-table `t`, invalid key type, or a
/// sparse array write.
pub fn index_set(t: &Value, k: &Value, v: Value, pos: Pos) -> Result<(), ScriptError> {
    let Value::Table(t) = t else {
        return Err(ScriptError::TypeError {
            message: format!("attempt to index a {}", t.type_name()),
            at: pos,
        });
    };
    let mut t = t.borrow_mut();
    match k {
        Value::Number(n) if n.fract() == 0.0 && *n >= 1.0 => {
            let idx = *n as usize;
            if idx <= t.array.len() {
                t.array[idx - 1] = v;
            } else if idx == t.array.len() + 1 {
                t.array.push(v);
            } else {
                return Err(ScriptError::TypeError {
                    message: format!("sparse array write at index {idx} (len {})", t.array.len()),
                    at: pos,
                });
            }
            Ok(())
        }
        Value::Str(s) => {
            t.hash.insert(s.to_string(), v);
            Ok(())
        }
        other => Err(ScriptError::TypeError {
            message: format!("invalid table key of type {}", other.type_name()),
            at: pos,
        }),
    }
}

/// Where a `[expr] = value` constructor entry lands, given the current
/// array length: contiguous integral keys extend the array part,
/// everything else becomes a hash entry under the key's display form.
#[derive(Debug, PartialEq, Eq)]
pub enum ConstructorSlot {
    /// Append to the array part.
    Append,
    /// Insert under this hash key.
    Hash(String),
}

/// Classifies a computed table-constructor key (see
/// [`ConstructorSlot`]).
///
/// # Errors
///
/// [`ScriptError::TypeError`] for non-string, non-number keys.
pub fn constructor_slot(
    key: &Value,
    arr_len: usize,
    pos: Pos,
) -> Result<ConstructorSlot, ScriptError> {
    match key {
        Value::Str(s) => Ok(ConstructorSlot::Hash(s.to_string())),
        Value::Number(n) => {
            let idx = *n as usize;
            if n.fract() == 0.0 && idx == arr_len + 1 {
                Ok(ConstructorSlot::Append)
            } else {
                Ok(ConstructorSlot::Hash(Value::Number(*n).display()))
            }
        }
        other => Err(ScriptError::TypeError {
            message: format!("table key must be string or number, got {}", other.type_name()),
            at: pos,
        }),
    }
}

/// Snapshots a table for generic-for iteration: the array part as
/// 1-based numeric keys, then the hash part in sorted key order. Both
/// engines iterate the snapshot, so body mutations cannot invalidate
/// iteration (or deadlock the `RefCell`).
pub fn iteration_snapshot(t: &Rc<RefCell<Table>>) -> Vec<(Value, Value)> {
    let t = t.borrow();
    let mut keys: Vec<String> = t.hash.keys().cloned().collect();
    keys.sort();
    t.array
        .iter()
        .enumerate()
        .map(|(i, v)| (Value::Number(i as f64 + 1.0), v.clone()))
        .chain(keys.into_iter().map(|k| {
            let v = t.hash[&k].clone();
            (Value::str(k), v)
        }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Pos {
        Pos::default()
    }

    #[test]
    fn floored_modulo_matches_lua() {
        let v = apply_binary(BinOp::Mod, Value::Number(-7.0), Value::Number(3.0), p()).unwrap();
        assert_eq!(v, Value::Number(2.0));
    }

    #[test]
    fn nan_ordering_is_false_not_error() {
        let nan = Value::Number(f64::NAN);
        let v = apply_binary(BinOp::Lt, nan, Value::Number(1.0), p()).unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn constructor_slot_extends_contiguously() {
        assert_eq!(constructor_slot(&Value::Number(3.0), 2, p()).unwrap(), ConstructorSlot::Append);
        assert_eq!(
            constructor_slot(&Value::Number(5.0), 2, p()).unwrap(),
            ConstructorSlot::Hash("5".to_string())
        );
        assert!(constructor_slot(&Value::Bool(true), 0, p()).is_err());
    }

    #[test]
    fn snapshot_orders_array_then_sorted_hash() {
        let Value::Table(t) = Value::table(
            vec![Value::Number(10.0)],
            [("b".to_string(), Value::Number(2.0)), ("a".to_string(), Value::Number(1.0))]
                .into_iter()
                .collect(),
        ) else {
            unreachable!()
        };
        let entries = iteration_snapshot(&t);
        assert_eq!(entries[0].0, Value::Number(1.0));
        assert_eq!(entries[1].0, Value::str("a"));
        assert_eq!(entries[2].0, Value::str("b"));
    }
}
