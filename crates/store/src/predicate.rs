//! Row predicates for scans and deletes.

use crate::schema::Schema;
use crate::value::Value;
use crate::StoreError;

/// A boolean expression over one row's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Matches every row.
    True,
    /// Column equals value.
    Eq(String, Value),
    /// Column differs from value.
    Ne(String, Value),
    /// Column strictly less than value.
    Lt(String, Value),
    /// Column less than or equal to value.
    Le(String, Value),
    /// Column strictly greater than value.
    Gt(String, Value),
    /// Column greater than or equal to value.
    Ge(String, Value),
    /// Both sides hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either side holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The inner predicate does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Eq(column.into(), value)
    }

    /// `column < value`.
    pub fn lt(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Lt(column.into(), value)
    }

    /// `column > value`.
    pub fn gt(column: impl Into<String>, value: Value) -> Predicate {
        Predicate::Gt(column.into(), value)
    }

    /// Conjunction.
    pub fn and(self, rhs: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction.
    pub fn or(self, rhs: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates against one row's values (in schema column order).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownColumn`] if a referenced column does not
    /// exist in the schema.
    pub fn matches(&self, schema: &Schema, row: &[Value]) -> Result<bool, StoreError> {
        let col = |name: &str| -> Result<&Value, StoreError> {
            let idx = schema.column_index(name).ok_or_else(|| StoreError::UnknownColumn {
                table: schema.name().to_string(),
                column: name.to_string(),
            })?;
            Ok(&row[idx])
        };
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => col(c)?.total_cmp(v).is_eq(),
            Predicate::Ne(c, v) => !col(c)?.total_cmp(v).is_eq(),
            Predicate::Lt(c, v) => col(c)?.total_cmp(v).is_lt(),
            Predicate::Le(c, v) => col(c)?.total_cmp(v).is_le(),
            Predicate::Gt(c, v) => col(c)?.total_cmp(v).is_gt(),
            Predicate::Ge(c, v) => col(c)?.total_cmp(v).is_ge(),
            Predicate::And(a, b) => a.matches(schema, row)? && b.matches(schema, row)?,
            Predicate::Or(a, b) => a.matches(schema, row)? || b.matches(schema, row)?,
            Predicate::Not(p) => !p.matches(schema, row)?,
        })
    }

    /// If this predicate is exactly `column = value`, returns the pair —
    /// the shape the index fast-path accelerates.
    pub fn as_point_lookup(&self) -> Option<(&str, &Value)> {
        match self {
            Predicate::Eq(c, v) => Some((c.as_str(), v)),
            _ => None,
        }
    }

    /// Every `column = value` conjunct reachable through a chain of
    /// `And`s (a bare `Eq` yields itself). Each such conjunct is a
    /// *necessary* condition, so an index on any of these columns can
    /// prune scan candidates — the full predicate is then re-checked
    /// per candidate row.
    pub fn eq_conjuncts(&self) -> Vec<(&str, &Value)> {
        let mut out = Vec::new();
        self.collect_eq_conjuncts(&mut out);
        out
    }

    fn collect_eq_conjuncts<'a>(&'a self, out: &mut Vec<(&'a str, &'a Value)>) {
        match self {
            Predicate::Eq(c, v) => out.push((c.as_str(), v)),
            Predicate::And(a, b) => {
                a.collect_eq_conjuncts(out);
                b.collect_eq_conjuncts(out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::table::{Row, RowId};

    fn schema() -> Schema {
        Schema::new("t")
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Text)
            .column("score", ColumnType::Float)
    }

    fn row(id: i64, name: &str, score: f64) -> Row {
        Row { id: RowId(0), values: vec![Value::Int(id), Value::text(name), Value::Float(score)] }
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let r = row(5, "bob", 1.5);
        assert!(Predicate::eq("id", Value::Int(5)).matches(&s, &r.values).unwrap());
        assert!(Predicate::lt("score", Value::Float(2.0)).matches(&s, &r.values).unwrap());
        assert!(Predicate::gt("name", Value::text("alice")).matches(&s, &r.values).unwrap());
        assert!(!Predicate::eq("id", Value::Int(6)).matches(&s, &r.values).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let r = row(5, "bob", 1.5);
        let p = Predicate::eq("id", Value::Int(5)).and(Predicate::gt("score", Value::Float(1.0)));
        assert!(p.matches(&s, &r.values).unwrap());
        let q = Predicate::eq("id", Value::Int(9)).or(Predicate::eq("name", Value::text("bob")));
        assert!(q.matches(&s, &r.values).unwrap());
        assert!(!q.clone().negate().matches(&s, &r.values).unwrap());
    }

    #[test]
    fn unknown_column_is_error() {
        let s = schema();
        let r = row(1, "a", 0.0);
        assert!(matches!(
            Predicate::eq("nope", Value::Int(1)).matches(&s, &r.values),
            Err(StoreError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn point_lookup_detection() {
        let p = Predicate::eq("id", Value::Int(5));
        assert!(p.as_point_lookup().is_some());
        let q = p.clone().and(Predicate::True);
        assert!(q.as_point_lookup().is_none());
    }

    #[test]
    fn eq_conjuncts_walk_and_chains() {
        let p = Predicate::eq("a", Value::Int(1))
            .and(Predicate::gt("b", Value::Int(2)).and(Predicate::eq("c", Value::Int(3))));
        let got: Vec<String> = p.eq_conjuncts().iter().map(|(c, _)| c.to_string()).collect();
        assert_eq!(got, vec!["a", "c"]);
        // Eq under Or/Not is not a necessary condition.
        let q = Predicate::eq("a", Value::Int(1)).or(Predicate::eq("b", Value::Int(2)));
        assert!(q.eq_conjuncts().is_empty());
        assert!(Predicate::eq("a", Value::Int(1)).negate().eq_conjuncts().is_empty());
    }

    #[test]
    fn cross_type_int_float_equality() {
        let s = schema();
        let r = row(5, "bob", 2.0);
        assert!(Predicate::eq("score", Value::Int(2)).matches(&s, &r.values).unwrap());
    }
}
