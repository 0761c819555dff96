//! Parsed statement representation.

use std::sync::Arc;

use crate::error::DbError;
use crate::predicate::Predicate;
use crate::schema::Column;
use crate::value::Value;
use crate::DbResult;

/// A scalar expression position: a literal or a `?` placeholder.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A literal value.
    Literal(Value),
    /// A `?` placeholder with its 0-based position.
    Param(usize),
}

impl Scalar {
    /// Resolves this scalar against the bound parameter list.
    ///
    /// # Errors
    /// Returns [`DbError::ParamCount`] if the placeholder index is out of
    /// range.
    pub fn resolve(&self, params: &[Value]) -> DbResult<Value> {
        match self {
            Scalar::Literal(v) => Ok(v.clone()),
            Scalar::Param(i) => params.get(*i).cloned().ok_or(DbError::ParamCount {
                expected: i + 1,
                actual: params.len(),
            }),
        }
    }
}

/// Aggregate functions over a single column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFn {
    /// `SUM(col)` — NULLs skipped; NULL result on an empty input.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)` — arithmetic mean of the non-NULL values.
    Avg,
    /// `COUNT(col)` — number of non-NULL values.
    Count,
}

impl AggregateFn {
    /// The SQL keyword for this function.
    pub fn name(self) -> &'static str {
        match self {
            AggregateFn::Sum => "SUM",
            AggregateFn::Min => "MIN",
            AggregateFn::Max => "MAX",
            AggregateFn::Avg => "AVG",
            AggregateFn::Count => "COUNT",
        }
    }
}

/// The projection of a `SELECT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectList {
    /// `SELECT *`
    Star,
    /// `SELECT COUNT(*)`
    CountStar,
    /// `SELECT SUM(col)` / `MIN` / `MAX` / `AVG` / `COUNT(col)`
    Aggregate(AggregateFn, String),
    /// `SELECT a, b, c`; the names every result of the plan shares.
    Columns(Arc<[String]>),
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [PRIMARY KEY], ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column declarations in order.
        columns: Vec<Column>,
        /// Primary-key column name.
        pk: String,
    },
    /// `CREATE INDEX name ON table (column)`
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `INSERT INTO table (cols) VALUES (vals)`
    Insert {
        /// Target table. Shared with every lock the statement takes.
        table: Arc<str>,
        /// Column names in insertion order.
        columns: Vec<String>,
        /// Values/placeholders aligned with `columns`.
        values: Vec<Scalar>,
    },
    /// `SELECT list FROM table [WHERE p] [ORDER BY col [DESC]] [LIMIT n]`
    Select {
        /// Projection.
        list: SelectList,
        /// Source table. Shared with every lock the statement takes.
        table: Arc<str>,
        /// Row filter (`Predicate::True` when absent).
        predicate: Predicate,
        /// Optional ordering: column plus descending flag.
        order_by: Option<(String, bool)>,
        /// Optional row-count cap.
        limit: Option<usize>,
    },
    /// `UPDATE table SET col = v, ... [WHERE p]`
    Update {
        /// Target table. Shared with every lock the statement takes.
        table: Arc<str>,
        /// Column assignments.
        sets: Vec<(String, Scalar)>,
        /// Row filter.
        predicate: Predicate,
    },
    /// `DELETE FROM table [WHERE p]`
    Delete {
        /// Target table. Shared with every lock the statement takes.
        table: Arc<str>,
        /// Row filter.
        predicate: Predicate,
    },
}

impl Statement {
    /// Number of `?` placeholders in the statement.
    pub fn param_count(&self) -> usize {
        fn scalar_max(s: &Scalar) -> usize {
            match s {
                Scalar::Param(i) => i + 1,
                Scalar::Literal(_) => 0,
            }
        }
        match self {
            Statement::CreateTable { .. } | Statement::CreateIndex { .. } => 0,
            Statement::Insert { values, .. } => values.iter().map(scalar_max).max().unwrap_or(0),
            Statement::Select { predicate, .. } => predicate.param_count(),
            Statement::Update {
                sets, predicate, ..
            } => sets
                .iter()
                .map(|(_, s)| scalar_max(s))
                .max()
                .unwrap_or(0)
                .max(predicate.param_count()),
            Statement::Delete { predicate, .. } => predicate.param_count(),
        }
    }

    /// Whether this statement only reads.
    pub fn is_read_only(&self) -> bool {
        matches!(self, Statement::Select { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_resolution() {
        assert_eq!(
            Scalar::Literal(Value::from(3)).resolve(&[]).unwrap(),
            Value::from(3)
        );
        assert_eq!(
            Scalar::Param(1)
                .resolve(&[Value::from(1), Value::from(2)])
                .unwrap(),
            Value::from(2)
        );
        assert!(Scalar::Param(0).resolve(&[]).is_err());
    }

    #[test]
    fn param_counts() {
        let st = Statement::Insert {
            table: "t".into(),
            columns: vec!["a".into(), "b".into()],
            values: vec![Scalar::Param(0), Scalar::Param(1)],
        };
        assert_eq!(st.param_count(), 2);
        assert!(!st.is_read_only());

        let sel = Statement::Select {
            list: SelectList::Star,
            table: "t".into(),
            predicate: Predicate::True,
            order_by: None,
            limit: None,
        };
        assert_eq!(sel.param_count(), 0);
        assert!(sel.is_read_only());
    }
}
