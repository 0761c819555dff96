//! Randomized (but fully deterministic) tests over the core invariants:
//!
//! * every wire codec round-trips arbitrary data;
//! * bound predicates survive `to_sql` → parser round trips — including
//!   empty `IN` lists under every boolean connective;
//! * the two optimistic validators (SELECT-then-write vs one-statement-per-
//!   image) are observationally equivalent;
//! * a cache-enabled container and a vanilla container compute identical
//!   persistent state for arbitrary operation sequences;
//! * the regression and batching math behaves on arbitrary affine data;
//! * the allocation-lean hot path stays lean and isolated: span events fit
//!   their size budget, arithmetic image sizes match the encoder, shared
//!   bean images are copied on write, and repeated statements share one
//!   span class.
//!
//! These used to be `proptest` properties; they are now plain seeded loops
//! over the workspace's deterministic [`StdRng`] so the suite needs no
//! external crates and every failure reproduces from the printed seed.
//! Historical shrunken counterexamples live in
//! `tests/properties.proptest-regressions` and are pinned as explicit cases
//! below (see [`empty_in_regression_survives_sql_round_trip`]).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sli_edge::component::BmpHome;
use sli_edge::component::JdbcResourceManager;
use sli_edge::component::{
    share_connection, Container, EntityMeta, Home, Memento, ResourceManager, TxContext,
};
use sli_edge::core::{
    validate_and_apply, validate_and_apply_per_image, CombinedCommitter, CommitEntry,
    CommitOutcome, CommitRequest, CommonStore, DirectSource, EntryKind, MetaRegistry, SliHome,
    SliResourceManager,
};
use sli_edge::datastore::server::{DbCostModel, DbServer, RemoteConnection};
use sli_edge::datastore::{CmpOp, ColumnType, Database, Predicate, SqlConnection, Value};
use sli_edge::simnet::wire::{Reader, Writer};
use sli_edge::simnet::{Clock, Path, PathSpec, Remote};
use sli_edge::telemetry::{SpanDetail, SpanEvent, TraceLog, Tracer};
use sli_edge::workload::{batch_means, fit};

// ---------- generators ----------

fn gen_string(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

fn gen_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::from(rng.gen_range(0..2u32) == 1),
        2 => Value::from(rng.gen_range(i64::MIN..i64::MAX)),
        // Continuous draws are (almost surely) non-integral, so their
        // display form always reads back as a double. NULL/NaN round trips
        // are covered in unit tests.
        3 => Value::from(rng.gen_range(-1.0e12f64..1.0e12)),
        _ => Value::from(gen_string(rng, b"abcXYZ09 :'_-", 24)),
    }
}

fn gen_key(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..2u32) == 0 {
        Value::from(rng.gen_range(0i64..1000))
    } else {
        let mut s = gen_string(rng, b"abz09:", 11);
        s.insert(0, 'k');
        Value::from(s)
    }
}

fn gen_memento(rng: &mut StdRng) -> Memento {
    let mut bean = gen_string(rng, b"abcdefghij", 10);
    bean.insert(0, 'B');
    let mut m = Memento::new(bean, gen_key(rng));
    for _ in 0..rng.gen_range(0..6u32) {
        let mut name = gen_string(rng, b"abcxyz09_", 10);
        name.insert(0, 'f');
        m.set(name, gen_value(rng));
    }
    m
}

/// A literal usable inside rendered SQL (strings get quote-escaped by
/// `to_sql`, and the escaping itself is part of what we exercise).
fn gen_sql_literal(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..3u32) {
        0 => Value::from(rng.gen_range(0i64..100)),
        1 => Value::from(rng.gen_range(-50.0f64..50.0)),
        _ => Value::from(gen_string(rng, b"az09:'", 8)),
    }
}

/// Bound predicates over the columns of the `holding` test schema, with
/// placeholder-free literals only (so `to_sql` round-trips). Empty `IN`
/// lists are generated deliberately: they are the hard case.
fn gen_predicate(rng: &mut StdRng, depth: u32) -> Predicate {
    if depth > 0 && rng.gen_range(0..8u32) < 3 {
        let a = Box::new(gen_predicate(rng, depth - 1));
        return match rng.gen_range(0..3u32) {
            0 => Predicate::And(a, Box::new(gen_predicate(rng, depth - 1))),
            1 => Predicate::Or(a, Box::new(gen_predicate(rng, depth - 1))),
            _ => Predicate::Not(a),
        };
    }
    let column = ["owner", "qty", "id"][rng.gen_range(0..3usize)];
    match rng.gen_range(0..6u32) {
        0 => {
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][rng.gen_range(0..6usize)];
            Predicate::cmp(column, op, gen_sql_literal(rng))
        }
        1 => Predicate::Like {
            column: "owner".into(),
            pattern: gen_string(rng, b"az09%_", 8),
        },
        2 => Predicate::IsNull {
            column: "note".into(),
        },
        3 => Predicate::IsNotNull {
            column: "owner".into(),
        },
        4 => Predicate::In {
            column: "owner".into(),
            // 0..4 values: the empty list is a quarter of the draws.
            values: (0..rng.gen_range(0..4u32))
                .map(|_| {
                    if rng.gen_range(0..2u32) == 0 {
                        Value::from(rng.gen_range(0i64..50))
                    } else {
                        Value::from(gen_string(rng, b"az09:", 6))
                    }
                })
                .collect(),
        },
        _ => Predicate::Between {
            column: "qty".into(),
            low: Value::from(rng.gen_range(0i64..50)),
            high: Value::from(rng.gen_range(50i64..100)),
        },
    }
}

// ---------- codec round trips ----------

#[test]
fn value_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x5ede_c0de);
    for _ in 0..500 {
        let v = gen_value(&mut rng);
        let mut w = Writer::new();
        v.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(Value::decode(&mut r).unwrap(), v, "value {v:?}");
        assert!(r.is_empty());
    }
}

#[test]
fn memento_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0001);
    for _ in 0..300 {
        let m = gen_memento(&mut rng);
        let mut w = Writer::new();
        m.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(Memento::decode(&mut r).unwrap(), m, "memento {m:?}");
    }
}

#[test]
fn predicate_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0002);
    for _ in 0..300 {
        let p = gen_predicate(&mut rng, 3);
        let mut w = Writer::new();
        p.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(Predicate::decode(&mut r).unwrap(), p, "predicate {p:?}");
    }
}

fn assert_sql_round_trip(p: &Predicate) {
    let sql = format!("SELECT * FROM holding WHERE {}", p.to_sql());
    let stmt = sli_edge::datastore::sql::parse(&sql)
        .unwrap_or_else(|e| panic!("{sql:?} does not parse: {e}"));
    match stmt {
        sli_edge::datastore::sql::Statement::Select { predicate, .. } => {
            assert_eq!(&predicate, p, "via {sql:?}")
        }
        other => panic!("unexpected statement {other:?}"),
    }
}

#[test]
fn predicate_to_sql_round_trips_through_parser() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0003);
    for _ in 0..300 {
        assert_sql_round_trip(&gen_predicate(&mut rng, 3));
    }
}

/// The shrunken counterexample recorded in
/// `tests/properties.proptest-regressions`: an empty `IN` nested under
/// disjunctions used to render as an `IS NULL AND IS NOT NULL`
/// contradiction, which parsed back to a different tree than it evaluated
/// as. It must round-trip structurally now.
#[test]
fn empty_in_regression_survives_sql_round_trip() {
    let p = Predicate::Or(
        Box::new(Predicate::Or(
            Box::new(Predicate::cmp("owner", CmpOp::Eq, 0)),
            Box::new(Predicate::In {
                column: "owner".into(),
                values: vec![],
            }),
        )),
        Box::new(Predicate::cmp("owner", CmpOp::Eq, 0)),
    );
    assert_sql_round_trip(&p);
    // And the other connectives around the same hard leaf.
    let empty = || Predicate::In {
        column: "owner".into(),
        values: vec![],
    };
    assert_sql_round_trip(&Predicate::Not(Box::new(empty())));
    assert_sql_round_trip(&empty().and(Predicate::eq("owner", "uid:1")));
    assert_sql_round_trip(&empty());
}

#[test]
fn commit_request_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0004);
    for _ in 0..150 {
        let entries: Vec<CommitEntry> = (0..rng.gen_range(1..6u32))
            .map(|i| {
                let m = gen_memento(&mut rng);
                CommitEntry {
                    bean: m.bean().to_owned(),
                    key: m.primary_key().clone(),
                    kind: match i % 4 {
                        0 => EntryKind::Read { before: m.clone() },
                        1 => EntryKind::Update {
                            before: m.clone(),
                            after: m.clone(),
                        },
                        2 => EntryKind::Create { after: m.clone() },
                        _ => EntryKind::Remove { before: m },
                    },
                }
            })
            .collect();
        let req = CommitRequest {
            origin: rng.gen_range(0..8u32),
            txn_id: rng.gen_range(0..u64::MAX),
            entries,
        };
        let frame = req.encode();
        let back = CommitRequest::decode(&mut Reader::new(frame)).unwrap();
        assert_eq!(back, req);
    }
}

// ---------- validator equivalence ----------

fn account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Varchar)
        .field("balance", ColumnType::Double)
        .field("note", ColumnType::Varchar)
}

fn registry() -> MetaRegistry {
    MetaRegistry::new().with(account_meta())
}

fn db_with_rows(rows: &[(String, f64)]) -> Arc<Database> {
    let db = Database::new();
    registry().create_schema(&db).unwrap();
    let mut conn = db.connect();
    for (user, balance) in rows {
        // ignore duplicates from the generator: first write wins
        let _ = conn.execute(
            "INSERT INTO account (userid, balance) VALUES (?, ?)",
            &[Value::from(user.clone()), Value::from(*balance)],
        );
    }
    db
}

fn dump(db: &Arc<Database>) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    conn.execute("SELECT * FROM account", &[])
        .unwrap()
        .into_rows()
}

fn account_image(user: &str, balance: f64) -> Memento {
    Memento::new("Account", Value::from(user))
        .with_field("balance", balance)
        .with_field("note", Value::Null)
}

fn gen_user(rng: &mut StdRng) -> String {
    char::from(b'a' + rng.gen_range(0..4u8)).to_string()
}

/// The combined (per-image conditional writes) and split (SELECT then
/// write) validators must agree on outcome AND final state for arbitrary
/// commit requests against arbitrary initial states.
#[test]
fn validators_are_observationally_equivalent() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0005);
    for _ in 0..64 {
        let initial: Vec<(String, f64)> = (0..rng.gen_range(0..4u32))
            .map(|_| (gen_user(&mut rng), rng.gen_range(0.0f64..100.0)))
            .collect();
        let entries: Vec<CommitEntry> = (0..rng.gen_range(1..5u32))
            .map(|_| {
                let user = gen_user(&mut rng);
                let before = rng.gen_range(0.0f64..100.0);
                let after = rng.gen_range(0.0f64..100.0);
                CommitEntry {
                    bean: "Account".into(),
                    key: Value::from(user.clone()),
                    kind: match rng.gen_range(0..4u32) {
                        0 => EntryKind::Read {
                            before: account_image(&user, before),
                        },
                        1 => EntryKind::Update {
                            before: account_image(&user, before),
                            after: account_image(&user, after),
                        },
                        2 => EntryKind::Create {
                            after: account_image(&user, after),
                        },
                        _ => EntryKind::Remove {
                            before: account_image(&user, before),
                        },
                    },
                }
            })
            .collect();
        let request = CommitRequest {
            origin: 0,
            txn_id: 0,
            entries,
        };

        let db_a = db_with_rows(&initial);
        let db_b = db_with_rows(&initial);
        assert_eq!(dump(&db_a), dump(&db_b));

        let mut conn_a = db_a.connect();
        let mut conn_b = db_b.connect();
        let reg = registry();
        let out_a = validate_and_apply(&mut conn_a, &reg, &request).unwrap();
        let out_b = validate_and_apply_per_image(&mut conn_b, &reg, &request).unwrap();
        assert_eq!(
            matches!(out_a, CommitOutcome::Committed),
            matches!(out_b, CommitOutcome::Committed),
            "outcomes diverged on {request:?}: {out_a:?} vs {out_b:?}"
        );
        assert_eq!(dump(&db_a), dump(&db_b), "state diverged on {request:?}");
        // neither leaves a transaction open
        assert!(!conn_a.in_transaction());
        assert!(!conn_b.in_transaction());
    }
}

// ---------- cache transparency ----------

#[derive(Debug, Clone)]
enum Op {
    Set(u8, f64),
    Remove(u8),
    Create(u8, f64),
    Read(u8),
}

fn gen_op(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(0..6u8);
    match rng.gen_range(0..4u32) {
        0 => Op::Set(key, rng.gen_range(0.0f64..100.0)),
        1 => Op::Remove(key),
        2 => Op::Create(key, rng.gen_range(0.0f64..100.0)),
        _ => Op::Read(key),
    }
}

fn apply_ops(container: &Container, ops: &[Op]) {
    for op in ops {
        // Each op runs in its own transaction; business errors (not found,
        // duplicates) are expected and ignored — both deployments must
        // ignore the *same* ones.
        let _ = container.with_transaction(|ctx: &mut TxContext, c: &Container| {
            let home = c.home("Account")?;
            match op {
                Op::Set(k, v) => {
                    home.set_field(ctx, &Value::from(*k as i64), "balance", Value::from(*v))?;
                }
                Op::Remove(k) => {
                    home.remove(ctx, &Value::from(*k as i64))?;
                }
                Op::Create(k, v) => {
                    home.create(
                        ctx,
                        Memento::new("Account", Value::from(*k as i64)).with_field("balance", *v),
                    )?;
                }
                Op::Read(k) => {
                    home.get_field(ctx, &Value::from(*k as i64), "balance")?;
                }
            }
            Ok(())
        });
    }
}

fn int_account_meta() -> EntityMeta {
    EntityMeta::new("Account", "account", "userid", ColumnType::Int)
        .field("balance", ColumnType::Double)
}

/// The transparency property (§1.3): swapping BMP homes for SLI homes
/// must not change observable persistent state, for arbitrary operation
/// sequences.
#[test]
fn sli_cache_is_transparent_to_arbitrary_workloads() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0006);
    for _ in 0..48 {
        let ops: Vec<Op> = (0..rng.gen_range(1..30u32))
            .map(|_| gen_op(&mut rng))
            .collect();
        let reg = MetaRegistry::new().with(int_account_meta());

        // vanilla deployment
        let db_vanilla = Database::new();
        reg.create_schema(&db_vanilla).unwrap();
        let conn = share_connection(db_vanilla.connect());
        let mut vanilla = Container::new(Arc::new(JdbcResourceManager::new(Arc::clone(&conn))));
        vanilla.register(Arc::new(BmpHome::new(int_account_meta(), conn)));

        // cached deployment
        let db_cached = Database::new();
        reg.create_schema(&db_cached).unwrap();
        let store = CommonStore::new();
        let source = Arc::new(DirectSource::new(
            Box::new(db_cached.connect()),
            reg.clone(),
        ));
        let committer = Arc::new(CombinedCommitter::new(
            Box::new(db_cached.connect()),
            reg.clone(),
        ));
        let rm = Arc::new(SliResourceManager::new(1, committer, Arc::clone(&store)));
        let mut cached = Container::new(rm as Arc<dyn ResourceManager>);
        cached.register(Arc::new(SliHome::new(int_account_meta(), store, source)));

        apply_ops(&vanilla, &ops);
        apply_ops(&cached, &ops);

        assert_eq!(dump(&db_vanilla), dump(&db_cached), "ops {ops:?}");
        assert_eq!(db_vanilla.lock_manager().lock_count(), 0);
        assert_eq!(db_cached.lock_manager().lock_count(), 0);
    }
}

// ---------- measurement math ----------

#[test]
fn fit_recovers_affine_relationships() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0007);
    for _ in 0..100 {
        let slope = rng.gen_range(-50.0f64..50.0);
        let intercept = rng.gen_range(-100.0f64..100.0);
        let mut xs: Vec<u32> = (0..rng.gen_range(2..20u32))
            .map(|_| rng.gen_range(0..1000u32))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        if xs.len() < 2 {
            xs = vec![1, 2];
        }
        let points: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x as f64, slope * x as f64 + intercept))
            .collect();
        let f = fit(&points).unwrap();
        assert!((f.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        assert!((f.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        assert!(f.r2 > 1.0 - 1e-9);
    }
}

#[test]
fn batch_means_preserve_the_grand_mean_for_even_splits() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0008);
    for _ in 0..100 {
        let values: Vec<f64> = (0..rng.gen_range(20..100u32))
            .map(|_| rng.gen_range(0.0f64..1000.0))
            .collect();
        let batches = rng.gen_range(1..10usize);
        // When batches divide the sample evenly, the mean of batch means
        // equals the grand mean.
        let len = values.len() - values.len() % batches;
        let values = &values[..len];
        let b = batch_means(values, batches);
        let grand = values.iter().sum::<f64>() / values.len() as f64;
        assert!((b.overall.mean - grand).abs() < 1e-9 * (1.0 + grand.abs()));
    }
}

// ---------- allocation-lean hot path ----------

/// Spans are the most numerous thing telemetry keeps: every byte of a
/// span event is 4 KiB of resident memory in a full default-capacity log.
#[test]
fn span_event_fits_in_96_bytes() {
    let size = std::mem::size_of::<SpanEvent>();
    assert!(size <= 96, "SpanEvent is {size} bytes");
}

/// `encoded_len` is computed arithmetically; it must agree with the bytes
/// the encoder writes, also for an image copied on write from a shared one.
#[test]
fn memento_encoded_len_matches_the_encoding() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_0009);
    for _ in 0..300 {
        let m = gen_memento(&mut rng);
        let mut written = m.clone();
        written.set("f_written", gen_value(&mut rng));
        for image in [&m, &written] {
            let mut w = Writer::new();
            image.encode(&mut w);
            assert_eq!(image.encoded_len(), w.len(), "memento {image:?}");
        }
    }
}

/// Clones of a bean image share it until a write; a write inside one
/// transaction must never show in the common store's image, in another
/// transaction's state or in the writer's own before-image.
#[test]
fn writes_never_change_images_held_elsewhere() {
    let mut rng = StdRng::seed_from_u64(0x3e3e_000a);
    let users: Vec<(String, f64)> = ["a", "b", "c", "d"]
        .iter()
        .map(|u| (u.to_string(), rng.gen_range(0.0f64..100.0)))
        .collect();
    let db = db_with_rows(&users);
    let store = CommonStore::new();
    let source = Arc::new(DirectSource::new(Box::new(db.connect()), registry()));
    let home = SliHome::new(account_meta(), Arc::clone(&store), source);
    for round in 0..64 {
        let key = Value::from(gen_user(&mut rng));
        let (mut writer, mut reader) = (TxContext::new(), TxContext::new());
        // Either transaction may fault the image in; the other then hits.
        let (first, second) = if rng.gen_range(0..2u32) == 0 {
            (&mut writer, &mut reader)
        } else {
            (&mut reader, &mut writer)
        };
        home.get_field(first, &key, "balance").unwrap();
        home.get_field(second, &key, "balance").unwrap();
        let cached = store.get("Account", &key).expect("faulted in");

        for _ in 0..rng.gen_range(1..5u32) {
            let (field, value) = if rng.gen_range(0..2u32) == 0 {
                ("balance", Value::from(rng.gen_range(100.0f64..200.0)))
            } else {
                ("note", Value::from(gen_string(&mut rng, b"xyz", 6)))
            };
            home.set_field(&mut writer, &key, field, value.clone())
                .unwrap();
            assert_eq!(
                home.get_field(&mut writer, &key, field).unwrap(),
                value,
                "round {round}: the writer reads its own write"
            );
        }

        let written = writer.instance("Account", &key).unwrap();
        assert_ne!(written.image.as_ref(), Some(&cached), "round {round}");
        assert_eq!(written.before.as_ref(), Some(&cached), "round {round}");
        assert_eq!(
            store.get("Account", &key).as_ref(),
            Some(&cached),
            "round {round}"
        );
        let other = reader.instance("Account", &key).unwrap();
        assert_eq!(other.image.as_ref(), Some(&cached), "round {round}");
        assert_eq!(other.before.as_ref(), Some(&cached), "round {round}");
        let read_only = CommitRequest::from_context(1, round, &reader);
        assert_eq!(
            read_only.entries[0].kind,
            EntryKind::Read { before: cached },
            "round {round}"
        );
    }
}

/// The database server derives a statement's span class once per distinct
/// SQL text and batch size; every later span shares that allocation.
#[test]
fn statement_spans_of_one_sql_share_one_class() {
    let db = Database::new();
    db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
        .unwrap();
    let clock = Arc::new(Clock::new());
    let server = DbServer::new(db, Arc::clone(&clock), DbCostModel::default());
    let log = Arc::new(TraceLog::with_capacity(256));
    let tracer = Arc::new(Tracer::new(Arc::clone(&log)));
    server.set_tracer(Arc::clone(&tracer));
    let path = Path::new("edge-db", Arc::clone(&clock), PathSpec::lan());
    let remote = Remote::new(path, Arc::clone(&server)).with_tracer(tracer);
    let mut conn = RemoteConnection::open(remote).unwrap();
    let mut rng = StdRng::seed_from_u64(0x3e3e_000b);
    let texts = [
        "SELECT b FROM t WHERE a = ?",
        "UPDATE t SET b = ? WHERE a = ?",
    ];
    let mut seen = Vec::new();
    for _ in 0..40 {
        let pick = rng.gen_range(0..texts.len());
        let a = Value::from(rng.gen_range(0i64..8));
        let params = match pick {
            0 => vec![a],
            _ => vec![Value::from(gen_string(&mut rng, b"pq", 4)), a],
        };
        conn.execute(texts[pick], &params).unwrap();
        seen.push(pick);
    }
    let classes: Vec<Arc<str>> = log
        .events()
        .into_iter()
        .filter(|e| e.op == "db.stmt")
        .map(|e| match e.detail {
            Some(SpanDetail::Statement { class }) => class,
            other => panic!("expected a statement class, got {other:?}"),
        })
        .collect();
    assert_eq!(classes.len(), seen.len());
    for (i, (class, pick)) in classes.iter().zip(&seen).enumerate() {
        assert_eq!(&**class, ["t.read", "t.update"][*pick]);
        let first = seen.iter().position(|p| p == pick).unwrap();
        assert!(
            Arc::ptr_eq(class, &classes[first]),
            "span {i} re-allocated its class"
        );
    }
}
