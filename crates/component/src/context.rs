//! The per-transaction instance store.
//!
//! Every application transaction gets a [`TxContext`]: the container's
//! record of which beans the transaction has touched, their in-transaction
//! state, their **before-images** (the memento captured when the state was
//! first faulted in) and their pending life-cycle events (created/removed).
//! This is the paper's "per-transaction transient store"; the BMP container
//! uses it as the usual entity-instance cache, and the SLI runtime reads it
//! at commit time to build the optimistic commit request.

use sli_datastore::Value;

use crate::bean_map::BeanMap;
use crate::memento::Memento;

/// In-transaction state of one enlisted bean.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstanceState {
    /// Current (possibly modified) state, once loaded or created. It shares
    /// the loaded image until the first write copies it.
    pub image: Option<Memento>,
    /// Whether `image` has been populated from the store.
    pub loaded: bool,
    /// Whether the state diverged from the loaded image.
    pub dirty: bool,
    /// Whether this bean was created inside the transaction.
    pub created: bool,
    /// Whether this bean was removed inside the transaction.
    pub removed: bool,
    /// Whether the bean is known to exist (a find succeeded), even before
    /// any load.
    pub exists: bool,
    /// The state first observed by this transaction — the before-image the
    /// optimistic validator compares against the persistent store.
    pub before: Option<Memento>,
}

impl InstanceState {
    /// Snapshot of the current state as a memento (the after-image when
    /// taken at commit). Shares the current image; an instance never
    /// loaded or created yields an empty memento for (`bean`, `key`).
    pub fn to_memento(&self, bean: &str, key: &Value) -> Memento {
        self.image
            .clone()
            .unwrap_or_else(|| Memento::new(bean, key.clone()))
    }

    /// Reads a field of the current state.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.image.as_ref()?.get(field)
    }

    /// Writes a field of the current state (starting from an empty
    /// memento for (`bean`, `key`) if nothing was loaded).
    pub fn set(&mut self, bean: &str, key: &Value, field: &str, value: Value) {
        self.image
            .get_or_insert_with(|| Memento::new(bean, key.clone()))
            .set(field, value);
    }

    /// Loads `image` as this instance's observed state and before-image.
    pub fn load_from(&mut self, image: &Memento) {
        self.image = Some(image.clone());
        self.loaded = true;
        self.exists = true;
        self.dirty = false;
        if self.before.is_none() {
            self.before = Some(image.clone());
        }
    }
}

/// The per-transaction transient store.
#[derive(Debug, Default)]
pub struct TxContext {
    /// Enlisted instances in first-touch order, for deterministic commit
    /// processing.
    entries: Vec<(String, Value, InstanceState)>,
    /// Position of each enlisted instance in `entries`.
    index: BeanMap<usize>,
}

impl TxContext {
    /// Creates an empty context (one application transaction).
    pub fn new() -> TxContext {
        TxContext::default()
    }

    /// Read-only view of an enlisted instance.
    pub fn instance(&self, bean: &str, key: &Value) -> Option<&InstanceState> {
        let &i = self.index.get(bean, key)?;
        Some(&self.entries[i].2)
    }

    /// Mutable view of an enlisted instance.
    pub fn instance_mut(&mut self, bean: &str, key: &Value) -> Option<&mut InstanceState> {
        let &i = self.index.get(bean, key)?;
        Some(&mut self.entries[i].2)
    }

    /// Fetches or creates the instance entry for (`bean`, `key`).
    pub fn enlist(&mut self, bean: &str, key: &Value) -> &mut InstanceState {
        let i = match self.index.get(bean, key) {
            Some(&i) => i,
            None => {
                let i = self.entries.len();
                self.index.insert(bean, key.clone(), i);
                self.entries
                    .push((bean.to_owned(), key.clone(), InstanceState::default()));
                i
            }
        };
        &mut self.entries[i].2
    }

    /// Iterates enlisted instances in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value, &InstanceState)> {
        self.entries
            .iter()
            .map(|(bean, key, st)| (bean.as_str(), key, st))
    }

    /// Number of enlisted instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no bean has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all enlisted state (transaction end).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enlist_is_idempotent_and_ordered() {
        let mut ctx = TxContext::new();
        ctx.enlist("Account", &Value::from("a")).exists = true;
        ctx.enlist("Quote", &Value::from("q"));
        ctx.enlist("Account", &Value::from("a")).dirty = true;
        assert_eq!(ctx.len(), 2);
        let touched: Vec<&str> = ctx.iter().map(|(b, _, _)| b).collect();
        assert_eq!(touched, vec!["Account", "Quote"]);
        let acct = ctx.instance("Account", &Value::from("a")).unwrap();
        assert!(acct.exists && acct.dirty);
    }

    #[test]
    fn load_from_sets_before_image_once() {
        let mut st = InstanceState::default();
        let img1 = Memento::new("Account", Value::from("a")).with_field("balance", 10.0);
        st.load_from(&img1);
        assert!(st.loaded && st.exists && !st.dirty);
        assert_eq!(st.before.as_ref(), Some(&img1));
        // a re-load (e.g. refresh) must NOT overwrite the before-image
        let img2 = Memento::new("Account", Value::from("a")).with_field("balance", 20.0);
        st.load_from(&img2);
        assert_eq!(st.before.as_ref(), Some(&img1));
        assert_eq!(st.get("balance"), Some(&Value::from(20.0)));
    }

    #[test]
    fn to_memento_captures_current_fields() {
        let mut st = InstanceState::default();
        st.set("Account", &Value::from("a"), "balance", Value::from(42.0));
        let m = st.to_memento("Account", &Value::from("a"));
        assert_eq!(m.bean(), "Account");
        assert_eq!(m.get("balance"), Some(&Value::from(42.0)));
    }

    #[test]
    fn clear_resets() {
        let mut ctx = TxContext::new();
        ctx.enlist("A", &Value::from(1));
        assert!(!ctx.is_empty());
        ctx.clear();
        assert!(ctx.is_empty());
        assert_eq!(ctx.iter().count(), 0);
    }

    #[test]
    fn instance_mut_mutates() {
        let mut ctx = TxContext::new();
        ctx.enlist("A", &Value::from(1));
        ctx.instance_mut("A", &Value::from(1)).unwrap().removed = true;
        assert!(ctx.instance("A", &Value::from(1)).unwrap().removed);
        assert!(ctx.instance("B", &Value::from(1)).is_none());
    }
}
