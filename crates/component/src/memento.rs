//! Mementos: serializable bean-state value objects.
//!
//! The EJB specification forbids serializing entity beans (they are passed
//! by reference), so the paper introduces *mementos* — value objects with
//! the same identity as the bean (`getPrimaryKey`) that carry its state
//! between address spaces. The state captured at transaction start is the
//! **before-image**; the state at transaction end is the **after-image**.
//! The optimistic commit protocol ships and compares exactly these images.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sli_simnet::wire::{self, DecodeError, Reader, Writer};

use sli_datastore::{Schema, Value};

/// A snapshot of one entity bean's state.
///
/// Images are shipped and compared by value, so a clone shares the image
/// instead of copying it: a store hit, a transaction's before-image and its
/// commit entry all point at one allocation. The first write to a shared
/// image copies it (copy-on-write), so no holder ever sees another's write.
#[derive(Clone, PartialEq, Eq)]
pub struct Memento(Arc<Image>);

#[derive(Clone, PartialEq, Eq)]
struct Image {
    bean: String,
    key: Value,
    fields: BTreeMap<String, Value>,
}

/// Java serialization's class-descriptor framing around the bean name.
const CLASS_PREFIX: &str = "com.ibm.websphere.samples.trade.ejb.";
const CLASS_SUFFIX: &str = "Memento";
const SERIAL_VERSION_UID: u64 = 0x05CA_1AB1_EC0F_FEE5;

impl fmt::Debug for Memento {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memento")
            .field("bean", &self.0.bean)
            .field("key", &self.0.key)
            .field("fields", &self.0.fields)
            .finish()
    }
}

impl Memento {
    /// Creates a memento for bean type `bean` with identity `key`.
    pub fn new(bean: impl Into<String>, key: Value) -> Memento {
        Memento(Arc::new(Image {
            bean: bean.into(),
            key,
            fields: BTreeMap::new(),
        }))
    }

    /// The bean (entity) type name.
    pub fn bean(&self) -> &str {
        &self.0.bean
    }

    /// The bean identity — the same value the bean's `getPrimaryKey`
    /// returns.
    pub fn primary_key(&self) -> &Value {
        &self.0.key
    }

    /// Sets a field (builder style).
    pub fn with_field(mut self, name: impl Into<String>, value: impl Into<Value>) -> Memento {
        self.set(name, value);
        self
    }

    /// Sets a field in place, first copying the image if it is shared.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        Arc::make_mut(&mut self.0)
            .fields
            .insert(name.into(), value.into());
    }

    /// Reads a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.fields.get(name)
    }

    /// All fields, sorted by name.
    pub fn fields(&self) -> &BTreeMap<String, Value> {
        &self.0.fields
    }

    /// Converts this memento into a row aligned with `schema` (missing
    /// fields become NULL; the key lands in the primary-key column).
    pub fn to_row(&self, schema: &Schema) -> Vec<Value> {
        schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, col)| {
                if i == schema.pk_index() {
                    self.0.key.clone()
                } else {
                    self.get(&col.name).cloned().unwrap_or(Value::Null)
                }
            })
            .collect()
    }

    /// Builds a memento from a row aligned with `schema`.
    pub fn from_row(bean: impl Into<String>, schema: &Schema, row: &[Value]) -> Memento {
        let fields = schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != schema.pk_index())
            .map(|(i, col)| (col.name.clone(), row[i].clone()))
            .collect();
        Memento(Arc::new(Image {
            bean: bean.into(),
            key: row[schema.pk_index()].clone(),
            fields,
        }))
    }

    /// Encodes the memento onto a wire frame.
    ///
    /// The stream starts with a prefix mirroring Java serialization's class
    /// descriptor: the fully-qualified memento class name plus a
    /// serialVersionUID. The paper's mementos travel as serialized Java
    /// objects, whose wire form carries this metadata with every instance.
    pub fn encode(&self, w: &mut Writer) {
        let image = &*self.0;
        w.put_str_parts(&[CLASS_PREFIX, &image.bean, CLASS_SUFFIX]);
        w.put_u64(SERIAL_VERSION_UID);
        w.put_str(&image.bean);
        image.key.encode(w);
        w.put_u32(image.fields.len() as u32);
        for (name, value) in &image.fields {
            w.put_str(name);
            value.encode(w);
        }
    }

    /// Decodes a memento from a wire frame.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation.
    pub fn decode(r: &mut Reader) -> Result<Memento, DecodeError> {
        // The descriptor is checked in place, as a view into the frame.
        let class = r.get_bytes()?;
        let class = wire::utf8(&class)?;
        let _uid = r.get_u64()?;
        let bean = r.get_str()?;
        if !class
            .strip_suffix(CLASS_SUFFIX)
            .is_some_and(|c| c.ends_with(&bean))
        {
            return Err(DecodeError::new("memento class descriptor"));
        }
        let key = Value::decode(r)?;
        let n = r.get_u32()? as usize;
        let mut fields = BTreeMap::new();
        for _ in 0..n {
            let name = r.get_str()?;
            fields.insert(name, Value::decode(r)?);
        }
        Ok(Memento(Arc::new(Image { bean, key, fields })))
    }

    /// The encoded size in bytes — the unit the paper's commit protocols
    /// ship per image. Computed from the image, without encoding it.
    pub fn encoded_len(&self) -> usize {
        let image = &*self.0;
        let str_len = |s: &str| 4 + s.len();
        str_len(CLASS_PREFIX) + image.bean.len() + CLASS_SUFFIX.len()
            + 8 // serialVersionUID
            + str_len(&image.bean)
            + image.key.encoded_len()
            + 4 // field count
            + image
                .fields
                .iter()
                .map(|(name, value)| str_len(name) + value.encoded_len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sli_datastore::{Column, ColumnType};

    fn account_schema() -> Schema {
        Schema::new(
            "account",
            vec![
                Column::new("userid", ColumnType::Varchar),
                Column::new("balance", ColumnType::Double),
                Column::new("logins", ColumnType::Int),
            ],
            "userid",
        )
        .unwrap()
    }

    fn sample() -> Memento {
        Memento::new("Account", Value::from("uid:1"))
            .with_field("balance", 1_000.0)
            .with_field("logins", 3)
    }

    #[test]
    fn identity_and_fields() {
        let m = sample();
        assert_eq!(m.bean(), "Account");
        assert_eq!(m.primary_key(), &Value::from("uid:1"));
        assert_eq!(m.get("balance"), Some(&Value::from(1_000.0)));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn row_round_trip() {
        let schema = account_schema();
        let m = sample();
        let row = m.to_row(&schema);
        assert_eq!(
            row,
            vec![Value::from("uid:1"), Value::from(1_000.0), Value::from(3)]
        );
        let back = Memento::from_row("Account", &schema, &row);
        assert_eq!(back, m);
    }

    #[test]
    fn missing_fields_become_null_in_rows() {
        let schema = account_schema();
        let m = Memento::new("Account", Value::from("uid:2")).with_field("balance", 5.0);
        let row = m.to_row(&schema);
        assert_eq!(row[2], Value::Null);
    }

    #[test]
    fn wire_round_trip() {
        let m = sample();
        let mut w = Writer::new();
        m.encode(&mut w);
        let frame = w.finish();
        assert_eq!(frame.len(), m.encoded_len());
        let back = Memento::decode(&mut Reader::new(frame)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn set_overwrites() {
        let mut m = sample();
        m.set("balance", 2_000.0);
        assert_eq!(m.get("balance"), Some(&Value::from(2_000.0)));
        assert_eq!(m.fields().len(), 2);
    }

    #[test]
    fn before_and_after_images_compare_by_value() {
        let before = sample();
        let mut after = before.clone();
        assert_eq!(before, after);
        after.set("balance", 999.0);
        assert_ne!(before, after);
    }
}
