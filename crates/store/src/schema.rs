//! Table schemas.

use std::borrow::Cow;

use crate::value::Value;
use crate::StoreError;

/// Column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Opaque bytes.
    Bytes,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// Stable one-byte tag used by snapshots and log records.
    pub fn wire_tag(self) -> u8 {
        match self {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Text => 2,
            ColumnType::Bytes => 3,
            ColumnType::Bool => 4,
        }
    }

    /// Inverse of [`ColumnType::wire_tag`].
    pub fn from_wire_tag(tag: u8) -> Option<ColumnType> {
        Some(match tag {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Text,
            3 => ColumnType::Bytes,
            4 => ColumnType::Bool,
            _ => return None,
        })
    }

    fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_)) // ints widen into float columns
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::Bytes, Value::Bytes(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (borrowed when it is a literal, as in every server
    /// table, so building a schema allocates no name).
    pub name: Cow<'static, str>,
    /// Column type.
    pub ty: ColumnType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

/// A table schema (builder-style construction).
///
/// # Example
///
/// ```
/// use sor_store::{ColumnType, Schema};
/// let s = Schema::new("users")
///     .column("id", ColumnType::Int)
///     .nullable_column("nickname", ColumnType::Text);
/// assert_eq!(s.columns().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: Cow<'static, str>,
    columns: Vec<Column>,
}

impl Schema {
    /// A schema with no columns yet.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        Schema { name: name.into(), columns: Vec::new() }
    }

    /// Adds a NOT NULL column.
    pub fn column(mut self, name: impl Into<Cow<'static, str>>, ty: ColumnType) -> Self {
        self.columns.push(Column { name: name.into(), ty, nullable: false });
        self
    }

    /// Adds a nullable column.
    pub fn nullable_column(mut self, name: impl Into<Cow<'static, str>>, ty: ColumnType) -> Self {
        self.columns.push(Column { name: name.into(), ty, nullable: true });
        self
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table name as stored, so a database can key its tables by it
    /// without copying a literal.
    pub(crate) fn name_cow(&self) -> Cow<'static, str> {
        self.name.clone()
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validates a row against this schema.
    ///
    /// # Errors
    ///
    /// [`StoreError::SchemaMismatch`] describing the first violation.
    pub fn validate(&self, row: &[Value]) -> Result<(), StoreError> {
        if row.len() != self.columns.len() {
            return Err(StoreError::SchemaMismatch {
                table: self.name.to_string(),
                detail: format!("expected {} values, got {}", self.columns.len(), row.len()),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if v.is_null() {
                if !col.nullable {
                    return Err(StoreError::SchemaMismatch {
                        table: self.name.to_string(),
                        detail: format!("column `{}` is NOT NULL", col.name),
                    });
                }
            } else if !col.ty.matches(v) {
                return Err(StoreError::SchemaMismatch {
                    table: self.name.to_string(),
                    detail: format!("column `{}` expects {:?}, got {v}", col.name, col.ty),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("t")
            .column("id", ColumnType::Int)
            .column("score", ColumnType::Float)
            .nullable_column("note", ColumnType::Text)
    }

    #[test]
    fn valid_rows_pass() {
        let s = schema();
        s.validate(&[Value::Int(1), Value::Float(0.5), Value::text("hi")]).unwrap();
        s.validate(&[Value::Int(1), Value::Float(0.5), Value::Null]).unwrap();
        // Int widens into Float columns.
        s.validate(&[Value::Int(1), Value::Int(2), Value::Null]).unwrap();
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(matches!(
            schema().validate(&[Value::Int(1)]),
            Err(StoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(schema().validate(&[Value::text("x"), Value::Float(0.5), Value::Null]).is_err());
    }

    #[test]
    fn null_in_not_null_column_rejected() {
        assert!(schema().validate(&[Value::Null, Value::Float(0.5), Value::Null]).is_err());
    }

    #[test]
    fn column_index_lookup() {
        let s = schema();
        assert_eq!(s.column_index("score"), Some(1));
        assert_eq!(s.column_index("missing"), None);
    }
}
