//! Cell values.

use sor_proto::wire::{Reader, Writer};
use sor_proto::ProtoError;

/// One table cell. Text and bytes are boxed slices rather than growable
/// buffers, which keeps a cell at 24 bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(Box<str>),
    /// Opaque bytes (the binary sensed-data inbox of §II-B).
    Bytes(Box<[u8]>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Convenience text constructor.
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(s.as_ref().into())
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float view (ints widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Bytes view.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order used by comparison predicates: NULL < everything;
    /// numeric types compare numerically across Int/Float; mismatched
    /// non-numeric types compare by type rank (deterministic, like
    /// SQLite's cross-type ordering).
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use Value::*;
        let rank = |v: &Value| match v {
            Null => 0,
            Int(_) | Float(_) => 1,
            Text(_) => 2,
            Bytes(_) => 3,
            Bool(_) => 4,
        };
        match (self, other) {
            (Null, Null) => Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Bytes [`Value::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        let uvar = |v: u64| (70 - (v | 1).leading_zeros() as usize) / 7;
        match self {
            Value::Null => 1,
            Value::Int(i) => 1 + uvar(sor_proto::varint::zigzag_encode(*i)),
            Value::Float(_) => 9,
            Value::Text(s) => 1 + uvar(s.len() as u64) + s.len(),
            Value::Bytes(b) => 1 + uvar(b.len() as u64) + b.len(),
            Value::Bool(_) => 2,
        }
    }

    /// Appends this value to a wire buffer (tag byte + payload). The
    /// shared cell encoding of snapshots and write-ahead-log records.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            Value::Null => w.put_u8(0),
            Value::Int(i) => {
                w.put_u8(1);
                w.put_ivar(*i);
            }
            Value::Float(x) => {
                w.put_u8(2);
                w.put_f64(*x);
            }
            Value::Text(s) => {
                w.put_u8(3);
                w.put_str(s);
            }
            Value::Bytes(b) => {
                w.put_u8(4);
                w.put_bytes(b);
            }
            Value::Bool(b) => {
                w.put_u8(5);
                w.put_u8(*b as u8);
            }
        }
    }

    /// Reads one value written by [`Value::encode_into`].
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation or an unknown tag.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Value, ProtoError> {
        Ok(match r.get_u8()? {
            0 => Value::Null,
            1 => Value::Int(r.get_ivar()?),
            2 => Value::Float(r.get_f64()?),
            3 => Value::Text(r.get_str()?.into()),
            4 => Value::Bytes(r.get_bytes()?.into()),
            5 => Value::Bool(r.get_u8()? != 0),
            _ => return Err(ProtoError::UnknownMessageType(255)),
        })
    }

    /// An exact hash key for indexing. Floats are excluded (equality on
    /// floats is a bug farm); `None` marks unindexable values.
    pub fn index_key(&self) -> Option<IndexKey> {
        match self {
            Value::Int(i) => Some(IndexKey::Int(*i)),
            Value::Text(s) => Some(IndexKey::Text(s.to_string())),
            Value::Bool(b) => Some(IndexKey::Bool(*b)),
            Value::Null => Some(IndexKey::Null),
            _ => None,
        }
    }
}

/// Hashable projection of indexable values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// NULL bucket.
    Null,
    /// Integer key.
    Int(i64),
    /// Text key.
    Text(String),
    /// Bool key.
    Bool(bool),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}B'", b.len()),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn views_and_widening() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn total_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn index_keys_exclude_floats_and_bytes() {
        assert!(Value::Int(1).index_key().is_some());
        assert!(Value::text("a").index_key().is_some());
        assert!(Value::Float(1.0).index_key().is_none());
        assert!(Value::Bytes(Box::new([1])).index_key().is_none());
    }

    #[test]
    fn encoded_len_is_what_encode_writes() {
        let long = "x".repeat(300);
        let cases = [
            Value::Null,
            Value::Int(0),
            Value::Int(-64),
            Value::Int(64),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.5),
            Value::text(""),
            Value::text(&long),
            Value::Bytes(vec![7; 127].into()),
            Value::Bytes(vec![7; 128].into()),
            Value::Bool(true),
        ];
        for v in cases {
            let mut w = Writer::new();
            v.encode_into(&mut w);
            assert_eq!(v.encoded_len(), w.len(), "{v:?}");
        }
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::text("hi").to_string(), "'hi'");
        assert_eq!(Value::Bytes(Box::new([1, 2, 3])).to_string(), "x'3B'");
    }
}
