//! Hash indexes on equality-queried columns.

use std::collections::HashMap;

use crate::table::RowId;
use crate::value::{IndexKey, Value};

/// A secondary hash index: exact-value → row ids, each bucket kept in
/// ascending id order.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    buckets: HashMap<IndexKey, Vec<RowId>>,
}

impl HashIndex {
    /// Empty index.
    pub fn new() -> Self {
        HashIndex::default()
    }

    /// Adds a row under `value`. Unindexable values (floats/bytes) are
    /// silently skipped — lookups on them fall back to scans.
    pub fn insert(&mut self, value: &Value, id: RowId) {
        if let Some(key) = value.index_key() {
            let ids = self.buckets.entry(key).or_default();
            // Ids are minted in ascending order, so this is a push except
            // when a restore or replay inserts an older id.
            let at = ids.partition_point(|&r| r < id);
            ids.insert(at, id);
        }
    }

    /// Removes a row from under `value`.
    pub fn remove(&mut self, value: &Value, id: RowId) {
        if let Some(key) = value.index_key() {
            if let Some(ids) = self.buckets.get_mut(&key) {
                ids.retain(|&r| r != id);
                if ids.is_empty() {
                    self.buckets.remove(&key);
                }
            }
        }
    }

    /// Row ids matching `value` exactly, in ascending order, or `None`
    /// if the value is not indexable (caller must scan).
    pub fn lookup(&self, value: &Value) -> Option<&[RowId]> {
        let key = value.index_key()?;
        Some(self.buckets.get(&key).map_or(&[], Vec::as_slice))
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = HashIndex::new();
        idx.insert(&Value::Int(5), RowId(0));
        idx.insert(&Value::Int(5), RowId(1));
        idx.insert(&Value::Int(7), RowId(2));
        assert_eq!(idx.lookup(&Value::Int(5)).unwrap(), [RowId(0), RowId(1)]);
        idx.remove(&Value::Int(5), RowId(0));
        assert_eq!(idx.lookup(&Value::Int(5)).unwrap(), [RowId(1)]);
        assert_eq!(idx.key_count(), 2);
        idx.remove(&Value::Int(5), RowId(1));
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn missing_key_is_empty_not_none() {
        let idx = HashIndex::new();
        assert!(idx.lookup(&Value::Int(9)).unwrap().is_empty());
    }

    #[test]
    fn floats_are_not_indexable() {
        let mut idx = HashIndex::new();
        idx.insert(&Value::Float(1.0), RowId(0));
        assert_eq!(idx.lookup(&Value::Float(1.0)), None);
        assert_eq!(idx.key_count(), 0);
    }

    #[test]
    fn null_values_are_indexed() {
        let mut idx = HashIndex::new();
        idx.insert(&Value::Null, RowId(3));
        assert_eq!(idx.lookup(&Value::Null).unwrap(), [RowId(3)]);
    }

    #[test]
    fn buckets_stay_in_id_order() {
        let mut idx = HashIndex::new();
        for id in [4, 9, 2, 7, 0] {
            idx.insert(&Value::Int(1), RowId(id));
        }
        let ids: Vec<u64> = idx.lookup(&Value::Int(1)).unwrap().iter().map(|r| r.0).collect();
        assert_eq!(ids, [0, 2, 4, 7, 9]);
    }
}
