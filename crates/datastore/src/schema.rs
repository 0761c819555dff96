//! Table schemas: typed columns, primary keys, index declarations.

use std::fmt;
use std::sync::Arc;

use crate::error::DbError;
use crate::value::Value;
use crate::DbResult;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit float (`DOUBLE`, `FLOAT`).
    Double,
    /// Variable-length string (`VARCHAR`, `TEXT`).
    Varchar,
    /// Boolean (`BOOLEAN`).
    Bool,
}

impl ColumnType {
    /// Whether `value` is storable in a column of this type (NULL is always
    /// storable; integers widen into DOUBLE columns).
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Double, Value::Double(_) | Value::Int(_))
                | (ColumnType::Varchar, Value::Str(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }

    /// Coerces `value` for storage in this column type (widening `Int` to
    /// `Double` where needed); other values pass through unchanged.
    pub fn coerce(self, value: Value) -> Value {
        match (self, value) {
            (ColumnType::Double, Value::Int(v)) => Value::Double(v as f64),
            (_, v) => v,
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Double => "DOUBLE",
            ColumnType::Varchar => "VARCHAR",
            ColumnType::Bool => "BOOLEAN",
        };
        f.write_str(s)
    }
}

/// A single column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lowercased at parse time).
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

impl Column {
    /// Creates a column declaration.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// The schema of one table: ordered columns plus the primary-key column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    columns: Vec<Column>,
    /// The column names, built once and shared by every `SELECT *`
    /// result over the table.
    names: Arc<[String]>,
    pk_index: usize,
}

impl Schema {
    /// Builds a schema for table `name`. `pk` names the primary-key column.
    ///
    /// # Errors
    /// Fails if `pk` is not one of `columns` or if column names repeat.
    pub fn new(name: impl Into<String>, columns: Vec<Column>, pk: &str) -> DbResult<Schema> {
        let name = name.into();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(DbError::Parse(format!("duplicate column '{}'", c.name)));
            }
        }
        let pk_index = columns
            .iter()
            .position(|c| c.name == pk)
            .ok_or_else(|| DbError::NoSuchColumn(pk.to_owned()))?;
        let names = columns.iter().map(|c| c.name.clone()).collect();
        Ok(Schema {
            name,
            columns,
            names,
            pk_index,
        })
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered column declarations.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column names in order, shared.
    pub fn column_names(&self) -> &Arc<[String]> {
        &self.names
    }

    /// Index of the primary-key column.
    pub fn pk_index(&self) -> usize {
        self.pk_index
    }

    /// Name of the primary-key column.
    pub fn pk_name(&self) -> &str {
        &self.columns[self.pk_index].name
    }

    /// Resolves a column name to its index.
    ///
    /// # Errors
    /// Returns [`DbError::NoSuchColumn`] for unknown names.
    pub fn column_index(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| DbError::NoSuchColumn(format!("{}.{}", self.name, name)))
    }

    /// Validates that `row` matches the column count and types.
    ///
    /// # Errors
    /// Returns [`DbError::TypeMismatch`] on arity or type violations, and
    /// if the primary key is NULL.
    pub fn check_row(&self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::TypeMismatch(format!(
                "table {} has {} columns, row has {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !col.ty.admits(v) {
                return Err(DbError::TypeMismatch(format!(
                    "column {}.{} is {}, got {}",
                    self.name, col.name, col.ty, v
                )));
            }
        }
        if row[self.pk_index].is_null() {
            return Err(DbError::TypeMismatch(format!(
                "primary key {}.{} may not be NULL",
                self.name,
                self.pk_name()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote_schema() -> Schema {
        Schema::new(
            "quote",
            vec![
                Column::new("symbol", ColumnType::Varchar),
                Column::new("price", ColumnType::Double),
                Column::new("volume", ColumnType::Int),
            ],
            "symbol",
        )
        .unwrap()
    }

    #[test]
    fn schema_resolves_columns() {
        let s = quote_schema();
        assert_eq!(s.column_index("price").unwrap(), 1);
        assert_eq!(s.pk_index(), 0);
        assert_eq!(s.pk_name(), "symbol");
        assert!(matches!(
            s.column_index("nope"),
            Err(DbError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn unknown_pk_is_rejected() {
        let err = Schema::new("t", vec![Column::new("a", ColumnType::Int)], "b").unwrap_err();
        assert!(matches!(err, DbError::NoSuchColumn(_)));
    }

    #[test]
    fn duplicate_column_is_rejected() {
        let err = Schema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("a", ColumnType::Int),
            ],
            "a",
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Parse(_)));
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = quote_schema();
        assert!(s
            .check_row(&[Value::from("s:1"), Value::from(10.0), Value::from(100)])
            .is_ok());
        // int widens into double column
        assert!(s
            .check_row(&[Value::from("s:1"), Value::from(10), Value::from(100)])
            .is_ok());
        assert!(s.check_row(&[Value::from("s:1")]).is_err());
        assert!(s
            .check_row(&[Value::from(5), Value::from(10.0), Value::from(100)])
            .is_err());
        // NULL pk rejected
        assert!(s
            .check_row(&[Value::Null, Value::from(10.0), Value::from(100)])
            .is_err());
    }

    #[test]
    fn coerce_widens_ints() {
        assert_eq!(ColumnType::Double.coerce(Value::from(3)), Value::from(3.0));
        assert_eq!(ColumnType::Int.coerce(Value::from(3)), Value::from(3));
    }

    #[test]
    fn column_type_display() {
        assert_eq!(ColumnType::Varchar.to_string(), "VARCHAR");
    }
}
