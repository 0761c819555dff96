//! Maps keyed by bean identity.

use std::collections::HashMap;

use sli_datastore::Value;

/// A map keyed by bean identity — (bean type, primary key) — that looks
/// entries up by borrowed parts, so a lookup never builds an owned key.
///
/// Entries are grouped per bean type; a deployment has a handful of types,
/// so the outer level stays tiny.
#[derive(Debug)]
pub struct BeanMap<V> {
    beans: HashMap<String, HashMap<Value, V>>,
}

impl<V> Default for BeanMap<V> {
    fn default() -> BeanMap<V> {
        BeanMap {
            beans: HashMap::new(),
        }
    }
}

impl<V> BeanMap<V> {
    /// The entry for (`bean`, `key`).
    pub fn get(&self, bean: &str, key: &Value) -> Option<&V> {
        self.beans.get(bean)?.get(key)
    }

    /// The entry for (`bean`, `key`), mutably.
    pub fn get_mut(&mut self, bean: &str, key: &Value) -> Option<&mut V> {
        self.beans.get_mut(bean)?.get_mut(key)
    }

    /// Inserts an entry, returning the one it replaced.
    pub fn insert(&mut self, bean: &str, key: Value, value: V) -> Option<V> {
        if !self.beans.contains_key(bean) {
            self.beans.insert(bean.to_owned(), HashMap::new());
        }
        let keys = self.beans.get_mut(bean).expect("just ensured");
        keys.insert(key, value)
    }

    /// Removes and returns the entry for (`bean`, `key`).
    pub fn remove(&mut self, bean: &str, key: &Value) -> Option<V> {
        self.beans.get_mut(bean)?.remove(key)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.beans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_keyed_by_bean_and_key() {
        let mut map = BeanMap::default();
        assert_eq!(map.insert("Account", Value::from(1), 'a'), None);
        assert_eq!(map.insert("Quote", Value::from(1), 'q'), None);
        assert_eq!(map.insert("Account", Value::from(1), 'b'), Some('a'));
        assert_eq!(map.get("Account", &Value::from(1)), Some(&'b'));
        assert_eq!(map.get("Account", &Value::from(2)), None);
        assert_eq!(map.get("Holding", &Value::from(1)), None);
        *map.get_mut("Quote", &Value::from(1)).unwrap() = 'r';
        assert_eq!(map.remove("Quote", &Value::from(1)), Some('r'));
        assert_eq!(map.remove("Quote", &Value::from(1)), None);
        map.clear();
        assert_eq!(map.get("Account", &Value::from(1)), None);
    }
}
