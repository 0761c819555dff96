//! Query results and their wire encoding.

use std::collections::HashMap;
use std::sync::Arc;

use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::engine::PLAN_CACHE_CAPACITY;
use crate::value::Value;

/// The fewest bytes an encoded [`ResultSet`] takes: the affected count,
/// the column count and the row count.
pub(crate) const MIN_RESULT_SET_BYTES: usize = 12;

/// The outcome of one statement: a (possibly empty) result set and the
/// number of rows a DML statement affected.
///
/// Column names are shared: a result of a cached plan points at the
/// plan's (or the table schema's) names instead of copying them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    columns: Arc<[String]>,
    rows: Vec<Vec<Value>>,
    affected: usize,
}

impl ResultSet {
    /// An empty result reporting `affected` modified rows (DML).
    pub fn affected(affected: usize) -> ResultSet {
        ResultSet {
            columns: Arc::default(),
            rows: Vec::new(),
            affected,
        }
    }

    /// A query result with the given projection and rows.
    pub fn with_rows(columns: impl Into<Arc<[String]>>, rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: columns.into(),
            rows,
            affected: 0,
        }
    }

    /// Projected column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The result rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Consumes the result set, yielding its rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Rows affected by a DML statement.
    pub fn affected_rows(&self) -> usize {
        self.affected
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Index of a projected column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The value at (`row`, `column-name`), if present.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(ci))
    }

    /// The single value of a one-row, one-column result (e.g. `COUNT(*)`).
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Encodes the result set onto a wire frame.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.affected as u32);
        w.put_u32(self.columns.len() as u32);
        for c in self.columns.iter() {
            w.put_str(c);
        }
        w.put_u32(self.rows.len() as u32);
        for row in &self.rows {
            for v in row {
                v.encode(w);
            }
        }
    }

    /// Decodes a result set from a wire frame.
    ///
    /// Counts are checked against the bytes left before anything is
    /// allocated: a column name takes at least its four-byte length
    /// prefix, and a value at least its one-byte tag.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation, on a count the frame cannot
    /// hold, and on rows without columns.
    pub fn decode(r: &mut Reader) -> Result<ResultSet, DecodeError> {
        ResultSet::decode_reusing(r, None)
    }

    /// [`ResultSet::decode`], sharing `known`'s column names when the frame
    /// carries exactly those names.
    fn decode_reusing(
        r: &mut Reader,
        known: Option<&Arc<[String]>>,
    ) -> Result<ResultSet, DecodeError> {
        let affected = r.get_u32()? as usize;
        let ncols = r.get_u32()? as usize;
        if ncols > r.remaining() / 4 {
            return Err(DecodeError::new("result column count"));
        }
        let columns = decode_columns(r, ncols, known)?;
        let nrows = r.get_u32()? as usize;
        if nrows > 0 && ncols == 0 {
            return Err(DecodeError::new("result rows without columns"));
        }
        if nrows.saturating_mul(ncols) > r.remaining() {
            return Err(DecodeError::new("result row count"));
        }
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(Value::decode(r)?);
            }
            rows.push(row);
        }
        Ok(ResultSet {
            columns,
            rows,
            affected,
        })
    }
}

/// Reads `ncols` column names, returning `known` itself when they are its
/// names (compared in place, nothing allocated) and a fresh list otherwise.
fn decode_columns(
    r: &mut Reader,
    ncols: usize,
    known: Option<&Arc<[String]>>,
) -> Result<Arc<[String]>, DecodeError> {
    let Some(known) = known.filter(|k| k.len() == ncols) else {
        let names = (0..ncols)
            .map(|_| r.get_str())
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(names.into());
    };
    for i in 0..ncols {
        let name = r.get_str_ref()?;
        if name != known[i] {
            let mut names = known[..i].to_vec();
            names.push(name.to_owned());
            for _ in i + 1..ncols {
                names.push(r.get_str()?);
            }
            return Ok(names.into());
        }
    }
    Ok(Arc::clone(known))
}

/// The column names a client has seen per statement text — the result-set
/// metadata a JDBC driver keeps per prepared statement — so the results of
/// a repeated statement share one list instead of allocating every name.
#[derive(Debug, Default)]
pub(crate) struct ColumnCache(HashMap<String, Arc<[String]>>);

impl ColumnCache {
    /// Decodes the result set of statement `sql`.
    pub(crate) fn decode(&mut self, sql: &str, r: &mut Reader) -> Result<ResultSet, DecodeError> {
        let known = self.0.get(sql);
        let rs = ResultSet::decode_reusing(r, known)?;
        let cached = known.is_some_and(|k| Arc::ptr_eq(k, &rs.columns));
        if !cached && !rs.columns.is_empty() {
            // Ad-hoc statement texts cannot grow the cache without bound.
            if self.0.len() >= PLAN_CACHE_CAPACITY {
                self.0.clear();
            }
            self.0.insert(sql.to_owned(), Arc::clone(&rs.columns));
        }
        Ok(rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn sample() -> ResultSet {
        ResultSet::with_rows(
            vec!["symbol".into(), "price".into()],
            vec![
                vec![Value::from("s:0"), Value::from(10.0)],
                vec![Value::from("s:1"), Value::from(12.5)],
            ],
        )
    }

    #[test]
    fn accessors() {
        let rs = sample();
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert_eq!(rs.column_index("price"), Some(1));
        assert_eq!(rs.value(1, "price"), Some(&Value::from(12.5)));
        assert_eq!(rs.value(5, "price"), None);
        assert_eq!(rs.value(0, "nope"), None);
        assert_eq!(rs.affected_rows(), 0);
    }

    #[test]
    fn scalar_shape() {
        let one = ResultSet::with_rows(vec!["count".into()], vec![vec![Value::from(7)]]);
        assert_eq!(one.scalar(), Some(&Value::from(7)));
        assert_eq!(sample().scalar(), None);
        assert_eq!(ResultSet::affected(3).scalar(), None);
    }

    #[test]
    fn dml_result() {
        let rs = ResultSet::affected(4);
        assert_eq!(rs.affected_rows(), 4);
        assert!(rs.is_empty());
    }

    #[test]
    fn wire_round_trip() {
        let rs = sample();
        let mut w = Writer::new();
        rs.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(ResultSet::decode(&mut r).unwrap(), rs);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_decode_fails() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let frame = w.finish();
        let cut = frame.slice(0..frame.len() - 3);
        assert!(ResultSet::decode(&mut Reader::new(cut)).is_err());
    }

    /// The regression: a 12-byte frame claiming `u32::MAX` rows used to
    /// ask for 96 GiB up front and abort.
    #[test]
    fn hostile_counts_are_errors_not_aborts() {
        let hostile = [
            // nrows = u32::MAX with no columns
            &[0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff][..],
            // ncols = u32::MAX
            &[0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0][..],
            // one column, nrows = u32::MAX
            &[
                0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, b'a', 0xff, 0xff, 0xff, 0xff, 0,
            ][..],
        ];
        for frame in hostile {
            let r = &mut Reader::new(Bytes::copy_from_slice(frame));
            assert!(ResultSet::decode(r).is_err(), "{frame:?}");
        }
    }

    /// A valid result set shaped by `seed`: DML counts, empty and
    /// multi-row projections of every value type.
    fn seeded(seed: u64) -> ResultSet {
        if seed.is_multiple_of(5) {
            return ResultSet::affected(seed as usize % 4);
        }
        let ncols = 1 + seed as usize % 4;
        let columns: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
        let rows = (0..seed % 4)
            .map(|r| {
                (0..ncols as u64)
                    .map(|c| match (seed + r + c) % 5 {
                        0 => Value::Null,
                        1 => Value::from(r % 2 == 0),
                        2 => Value::from((seed * 31 + c) as i64),
                        3 => Value::from(seed as f64 / 8.0),
                        _ => Value::from(format!("s:{}", seed % 50 + r)),
                    })
                    .collect()
            })
            .collect();
        ResultSet::with_rows(columns, rows)
    }

    #[test]
    fn mutated_result_sets_never_panic() {
        let mut errors = 0;
        for seed in 0..10_000u64 {
            let rs = seeded(seed);
            let mut w = Writer::new();
            rs.encode(&mut w);
            let frame = w.finish();
            assert_eq!(
                ResultSet::decode(&mut Reader::new(frame.clone())).unwrap(),
                rs
            );
            let (mutant, prefix) = crate::wal::tests::mutate(&frame, seed);
            let decoded = ResultSet::decode(&mut Reader::new(Bytes::from(mutant)));
            assert!(
                !prefix || decoded.is_err(),
                "seed {seed}: a strict prefix decoded"
            );
            errors += usize::from(decoded.is_err());
        }
        assert!(
            errors > 4_000,
            "only {errors} of 10000 mutants were rejected"
        );
    }

    #[test]
    fn repeated_statements_share_their_column_names() {
        let frame = |cols: &[&str]| {
            let names: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            let mut w = Writer::new();
            ResultSet::with_rows(names, vec![vec![Value::Null; cols.len()]]).encode(&mut w);
            w.finish()
        };
        let mut cache = ColumnCache::default();
        let mut decode = |sql: &str, cols: &[&str]| {
            let rs = cache.decode(sql, &mut Reader::new(frame(cols))).unwrap();
            assert_eq!(rs.columns(), cols);
            rs
        };
        let first = decode("q", &["a", "b", "c"]);
        let again = decode("q", &["a", "b", "c"]);
        assert!(Arc::ptr_eq(&first.columns, &again.columns));
        let changed = decode("q", &["a", "x", "c"]);
        assert!(!Arc::ptr_eq(&first.columns, &changed.columns));
        assert!(Arc::ptr_eq(
            &changed.columns,
            &decode("q", &["a", "x", "c"]).columns
        ));
        decode("q", &["a", "x"]);
        decode("other", &["a", "x", "c"]);
    }

    #[test]
    fn into_rows_moves_data() {
        let rows = sample().into_rows();
        assert_eq!(rows.len(), 2);
    }
}
