//! Checkpoint / restore: the durability face of the DB2 stand-in.
//!
//! The paper's persistent tier survives process restarts; an in-memory
//! engine needs an explicit mechanism. [`Database::checkpoint`] serializes
//! every table — schema, secondary-index declarations and rows — through
//! the wire codec; [`Database::restore`] rebuilds an identical engine.
//! The failure-injection suite uses this to model a database machine
//! crash + recovery under the edge architectures.

use bytes::Bytes;
use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::engine::Database;
use crate::error::DbError;
use crate::schema::ColumnType;
use crate::value::Value;
use crate::DbResult;
use std::sync::Arc;

const SNAPSHOT_MAGIC: u32 = 0x534C_4944; // "SLID"
const SNAPSHOT_VERSION: u16 = 1;

fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Double => 1,
        ColumnType::Varchar => 2,
        ColumnType::Bool => 3,
    }
}

fn type_from_tag(tag: u8) -> Result<ColumnType, DecodeError> {
    Ok(match tag {
        0 => ColumnType::Int,
        1 => ColumnType::Double,
        2 => ColumnType::Varchar,
        3 => ColumnType::Bool,
        _ => return Err(DecodeError::new("column type tag")),
    })
}

fn type_ddl(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "INT",
        ColumnType::Double => "DOUBLE",
        ColumnType::Varchar => "VARCHAR",
        ColumnType::Bool => "BOOLEAN",
    }
}

impl Database {
    /// Serializes the entire committed state — schemas, secondary-index
    /// declarations, and all rows — to a checkpoint frame.
    ///
    /// The checkpoint reflects a point-in-time view under one brief read
    /// latch per table, encoding rows in place without copying them; call
    /// it between transactions (as a checkpointer would) for a
    /// transaction-consistent image.
    pub fn checkpoint(&self) -> Bytes {
        let mut w = Writer::new();
        w.put_u32(SNAPSHOT_MAGIC).put_u16(SNAPSHOT_VERSION);
        let names = self.table_names();
        w.put_u32(names.len() as u32);
        for name in names {
            let table = self.table(&name).expect("listed table exists");
            let t = table.read();
            let schema = t.schema();
            w.put_str(&name);
            w.put_u32(schema.columns().len() as u32);
            for col in schema.columns() {
                w.put_str(&col.name);
                w.put_u8(type_tag(col.ty));
            }
            w.put_str(schema.pk_name());
            let indexes = t.index_columns();
            w.put_u32(indexes.len() as u32);
            for col in indexes {
                w.put_str(col);
            }
            let rows = t.rows();
            w.put_u32(rows.len() as u32);
            for v in rows.flatten() {
                v.encode(&mut w);
            }
        }
        w.finish_exact()
    }

    /// Rebuilds a database from a [`Database::checkpoint`] frame.
    ///
    /// # Errors
    /// [`DbError::Remote`] wraps malformed frames; DDL/DML failures cannot
    /// occur on a well-formed checkpoint.
    pub fn restore(frame: Bytes) -> DbResult<Arc<Database>> {
        let db = Database::new();
        for img in decode_checkpoint(frame)? {
            db.execute_ddl(&img.table_ddl())?;
            for col in &img.indexes {
                db.execute_ddl(&img.index_ddl(col))?;
            }
            if !img.rows.is_empty() {
                let insert = format!(
                    "INSERT INTO {} ({}) VALUES ({})",
                    img.name,
                    img.cols
                        .iter()
                        .map(|(c, _)| c.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    vec!["?"; img.cols.len()].join(", ")
                );
                let mut conn = db.connect();
                use crate::SqlConnection as _;
                for row in &img.rows {
                    conn.execute(&insert, row)?;
                }
            }
        }
        Ok(db)
    }
}

/// A decoded table from a checkpoint frame: schema, secondary-index
/// declarations and rows. Shared by [`Database::restore`] (which builds a
/// fresh engine through the SQL layer) and [`Database::recover`] (which
/// reloads the base image in place before replaying the WAL).
pub(crate) struct TableImage {
    pub(crate) name: String,
    pub(crate) cols: Vec<(String, ColumnType)>,
    pub(crate) pk: String,
    pub(crate) indexes: Vec<String>,
    pub(crate) rows: Vec<Vec<Value>>,
}

impl TableImage {
    pub(crate) fn table_ddl(&self) -> String {
        let ddl_cols: Vec<String> = self
            .cols
            .iter()
            .map(|(col, ty)| {
                if *col == self.pk {
                    format!("{col} {} PRIMARY KEY", type_ddl(*ty))
                } else {
                    format!("{col} {}", type_ddl(*ty))
                }
            })
            .collect();
        format!("CREATE TABLE {} ({})", self.name, ddl_cols.join(", "))
    }

    pub(crate) fn index_ddl(&self, col: &str) -> String {
        format!("CREATE INDEX {}_{col} ON {} ({col})", self.name, self.name)
    }
}

/// Decodes a [`Database::checkpoint`] frame into per-table images.
///
/// Every count prefix is hostile until proven otherwise: each element it
/// announces takes at least one byte, so no pre-allocation exceeds the
/// bytes left in the frame. A table must have a column (its primary key),
/// or a row count alone could drive 2^32 empty rows.
pub(crate) fn decode_checkpoint(frame: Bytes) -> DbResult<Vec<TableImage>> {
    let wire = |e: DecodeError| DbError::Remote(format!("corrupt checkpoint: {e}"));
    let mut r = Reader::new(frame);
    if r.get_u32().map_err(wire)? != SNAPSHOT_MAGIC {
        return Err(DbError::Remote("corrupt checkpoint: bad magic".to_owned()));
    }
    if r.get_u16().map_err(wire)? != SNAPSHOT_VERSION {
        return Err(DbError::Remote(
            "corrupt checkpoint: unsupported version".to_owned(),
        ));
    }
    let tables = r.get_u32().map_err(wire)? as usize;
    let mut images = Vec::with_capacity(tables.min(r.remaining()));
    for _ in 0..tables {
        let name = r.get_str().map_err(wire)?;
        let ncols = r.get_u32().map_err(wire)? as usize;
        if ncols == 0 {
            return Err(DbError::Remote(format!(
                "corrupt checkpoint: table {name} has no columns"
            )));
        }
        let mut cols = Vec::with_capacity(ncols.min(r.remaining()));
        for _ in 0..ncols {
            let col = r.get_str().map_err(wire)?;
            let ty = type_from_tag(r.get_u8().map_err(wire)?).map_err(wire)?;
            cols.push((col, ty));
        }
        let pk = r.get_str().map_err(wire)?;
        let nindexes = r.get_u32().map_err(wire)? as usize;
        let mut indexes = Vec::with_capacity(nindexes.min(r.remaining()));
        for _ in 0..nindexes {
            indexes.push(r.get_str().map_err(wire)?);
        }
        let nrows = r.get_u32().map_err(wire)? as usize;
        let mut rows = Vec::with_capacity(nrows.min(r.remaining() / ncols));
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(Value::decode(&mut r).map_err(wire)?);
            }
            rows.push(row);
        }
        images.push(TableImage {
            name,
            cols,
            pk,
            indexes,
            rows,
        });
    }
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SqlConnection;

    fn sample_db() -> Arc<Database> {
        let db = Database::new();
        db.execute_ddl(
            "CREATE TABLE holding (id INT PRIMARY KEY, owner VARCHAR, qty DOUBLE, open BOOLEAN)",
        )
        .unwrap();
        db.execute_ddl("CREATE INDEX holding_owner ON holding (owner)")
            .unwrap();
        db.execute_ddl("CREATE TABLE note (id INT PRIMARY KEY, text VARCHAR)")
            .unwrap();
        let mut conn = db.connect();
        for i in 0..25 {
            conn.execute(
                "INSERT INTO holding (id, owner, qty, open) VALUES (?, ?, ?, ?)",
                &[
                    Value::from(i),
                    Value::from(format!("uid:{}", i % 4)),
                    Value::from(i as f64 / 2.0),
                    Value::from(i % 2 == 0),
                ],
            )
            .unwrap();
        }
        conn.execute("INSERT INTO note (id) VALUES (1)", &[])
            .unwrap(); // NULL text
        db
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let db = sample_db();
        let frame = db.checkpoint();
        let restored = Database::restore(frame).unwrap();
        assert_eq!(restored.table_names(), db.table_names());
        assert_eq!(restored.row_count("holding").unwrap(), 25);
        assert_eq!(restored.row_count("note").unwrap(), 1);
        // full contents identical
        let mut a = db.connect();
        let mut b = restored.connect();
        for t in ["holding", "note"] {
            assert_eq!(
                a.execute(&format!("SELECT * FROM {t}"), &[]).unwrap(),
                b.execute(&format!("SELECT * FROM {t}"), &[]).unwrap(),
                "{t} diverged"
            );
        }
        // secondary index survives (probe works and stays consistent)
        let rs = b
            .execute("SELECT id FROM holding WHERE owner = 'uid:1'", &[])
            .unwrap();
        assert_eq!(rs.len(), 6); // ids 1, 5, 9, 13, 17, 21
                                 // and the restored engine is writable
        b.execute("DELETE FROM holding WHERE id = 1", &[]).unwrap();
        let rs = b
            .execute("SELECT id FROM holding WHERE owner = 'uid:1'", &[])
            .unwrap();
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Database::restore(Bytes::from_static(b"junk")).is_err());
        let db = sample_db();
        let frame = db.checkpoint();
        let cut = frame.slice(0..frame.len() / 2);
        assert!(Database::restore(cut).is_err());
        let mut corrupt = frame.to_vec();
        corrupt[0] = 0;
        assert!(Database::restore(Bytes::from(corrupt)).is_err());
    }

    /// The regressions: a 10-byte frame announcing `u32::MAX` tables used
    /// to pre-allocate 515 GB, and a zero-column table let one row count
    /// drive 2^32 iterations.
    #[test]
    fn hostile_counts_are_errors_not_aborts() {
        let mut w = Writer::new();
        w.put_u32(SNAPSHOT_MAGIC)
            .put_u16(SNAPSHOT_VERSION)
            .put_u32(u32::MAX);
        let frame = w.finish();
        assert_eq!(frame.len(), 10);
        assert!(Database::restore(frame).is_err());

        let mut w = Writer::new();
        w.put_u32(SNAPSHOT_MAGIC)
            .put_u16(SNAPSHOT_VERSION)
            .put_u32(1)
            .put_str("t")
            .put_u32(0)
            .put_str("a")
            .put_u32(0)
            .put_u32(u32::MAX);
        assert!(Database::restore(w.finish()).is_err());
    }

    #[test]
    fn mutated_checkpoints_never_panic() {
        let frame = sample_db().checkpoint();
        let mut errors = 0;
        for seed in 0..2_000u64 {
            let (mutant, prefix) = crate::wal::tests::mutate(&frame, seed);
            let restored = Database::restore(Bytes::from(mutant));
            assert!(
                !prefix || restored.is_err(),
                "seed {seed}: a strict prefix restored"
            );
            errors += usize::from(restored.is_err());
        }
        assert!(
            errors > 1_000,
            "only {errors} of 2000 mutants were rejected"
        );
    }

    #[test]
    fn empty_database_round_trips() {
        let db = Database::new();
        let restored = Database::restore(db.checkpoint()).unwrap();
        assert!(restored.table_names().is_empty());
    }

    #[test]
    fn checkpoint_excludes_uncommitted_state() {
        let db = sample_db();
        let mut conn = db.connect();
        conn.begin().unwrap();
        conn.execute("DELETE FROM holding WHERE id = 0", &[])
            .unwrap();
        conn.rollback().unwrap();
        let restored = Database::restore(db.checkpoint()).unwrap();
        assert_eq!(restored.row_count("holding").unwrap(), 25);
    }
}
