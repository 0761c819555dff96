//! Known-answer pins for every encoder on the request path.
//!
//! Perfguard and the repository benchmark gate only byte *counts*. A
//! checksum or encoder that kept every length but changed byte values
//! would pass them, and would silently change what the paper's traffic
//! figures measure. These constants were recorded from the reference
//! encoders; any change to a byte here is a protocol change and must be
//! deliberate.

use sli_edge::component::Memento;
use sli_edge::core::{CommitEntry, CommitRequest, EntryKind};
use sli_edge::datastore::server::{DbCostModel, DbServer};
use sli_edge::datastore::{Database, ResultSet, Value};
use sli_edge::simnet::wire::{frame_traced, protocol, Writer};
use sli_edge::simnet::{Clock, HttpRequest, HttpResponse, Service};
use sli_edge::trade::{page, TradeResult};

use bytes::Bytes;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// 64-bit FNV-1a: pins long outputs (whole pages) as one number.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn payload(len: usize) -> Bytes {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

#[test]
fn frame_headers_are_pinned() {
    // Lengths 0, 5 and 1027 cover every remainder of a four-byte stride.
    let cases: [(usize, &str); 3] = [
        (
            0,
            "534c495700014442010203040506070800000000deadbeef0000000000000000",
        ),
        (
            5,
            "534c495700014442010203040506070800000000deadbeef0000000500b222d5",
        ),
        (
            1027,
            "534c495700014442010203040506070800000000deadbeef00000403303c3170",
        ),
    ];
    for (len, header) in cases {
        let body = payload(len);
        let framed = frame_traced(protocol::JDBC, 0x0102_0304_0506_0708, 0xDEAD_BEEF, &body);
        assert_eq!(hex(&framed[..32]), header, "header of a {len}-byte payload");
        assert_eq!(&framed[32..], &body[..], "payload of a {len}-byte frame");
    }
}

fn sample_memento() -> Memento {
    Memento::new("Account", Value::from("uid:1"))
        .with_field("balance", 1_000.5)
        .with_field("logins", 3)
        .with_field("open", true)
        .with_field("profile", Value::Null)
}

#[test]
fn memento_encoding_is_pinned() {
    let m = sample_memento();
    let mut w = Writer::new();
    m.encode(&mut w);
    let bytes = w.finish();
    assert_eq!(bytes.len(), m.encoded_len());
    assert_eq!(hex(&bytes), "00000032636f6d2e69626d2e7765627370686572652e73616d706c65732e74726164652e656a622e4163636f756e744d656d656e746f05ca1ab1ec0ffee5000000074163636f756e7404000000057569643a31000000040000000762616c616e636503408f440000000000000000066c6f67696e73020000000000000003000000046f70656e01010000000770726f66696c6500");
}

#[test]
fn result_set_encoding_is_pinned() {
    let rs = ResultSet::with_rows(
        vec!["symbol".into(), "price".into(), "volume".into()],
        vec![
            vec![Value::from("s:0"), Value::from(10.25), Value::from(7)],
            vec![Value::from("s:1"), Value::Null, Value::from(-1)],
        ],
    );
    let mut w = Writer::new();
    rs.encode(&mut w);
    assert_eq!(hex(&w.finish()), "00000000000000030000000673796d626f6c00000005707269636500000006766f6c756d65000000020400000003733a300340248000000000000200000000000000070400000003733a310002ffffffffffffffff");
    let mut w = Writer::new();
    ResultSet::affected(3).encode(&mut w);
    assert_eq!(hex(&w.finish()), "000000030000000000000000");
}

#[test]
fn commit_request_encoding_is_pinned() {
    let before = Memento::new("Quote", Value::from("s:1")).with_field("price", 10.0);
    let after = Memento::new("Quote", Value::from("s:1")).with_field("price", 11.5);
    let created = Memento::new("Holding", Value::from(42)).with_field("quantity", 100.0);
    let req = CommitRequest {
        origin: 2,
        txn_id: 0x1234_5678_9abc,
        entries: vec![
            CommitEntry {
                bean: "Quote".into(),
                key: Value::from("s:1"),
                kind: EntryKind::Read {
                    before: before.clone(),
                },
            },
            CommitEntry {
                bean: "Quote".into(),
                key: Value::from("s:1"),
                kind: EntryKind::Update { before, after },
            },
            CommitEntry {
                bean: "Holding".into(),
                key: Value::from(42),
                kind: EntryKind::Create {
                    after: created.clone(),
                },
            },
            CommitEntry {
                bean: "Holding".into(),
                key: Value::from(42),
                kind: EntryKind::Remove { before: created },
            },
        ],
    };
    assert_eq!(hex(&req.encode()), "000000020000123456789abc000000040000000551756f74650400000003733a310000000030636f6d2e69626d2e7765627370686572652e73616d706c65732e74726164652e656a622e51756f74654d656d656e746f05ca1ab1ec0ffee50000000551756f74650400000003733a31000000010000000570726963650340240000000000000000000551756f74650400000003733a310100000030636f6d2e69626d2e7765627370686572652e73616d706c65732e74726164652e656a622e51756f74654d656d656e746f05ca1ab1ec0ffee50000000551756f74650400000003733a310000000100000005707269636503402400000000000000000030636f6d2e69626d2e7765627370686572652e73616d706c65732e74726164652e656a622e51756f74654d656d656e746f05ca1ab1ec0ffee50000000551756f74650400000003733a310000000100000005707269636503402700000000000000000007486f6c64696e6702000000000000002a0200000032636f6d2e69626d2e7765627370686572652e73616d706c65732e74726164652e656a622e486f6c64696e674d656d656e746f05ca1ab1ec0ffee500000007486f6c64696e6702000000000000002a00000001000000087175616e7469747903405900000000000000000007486f6c64696e6702000000000000002a0300000032636f6d2e69626d2e7765627370686572652e73616d706c65732e74726164652e656a622e486f6c64696e674d656d656e746f05ca1ab1ec0ffee500000007486f6c64696e6702000000000000002a00000001000000087175616e74697479034059000000000000");
}

#[test]
fn http_request_encoding_is_pinned() {
    let req = HttpRequest::get(
        "/trade/app",
        vec![
            ("action".into(), "buy".into()),
            ("uid".into(), "uid:3".into()),
            ("quantity".into(), "100".into()),
        ],
    )
    .with_cookie("sess-uid:3");
    assert_eq!(String::from_utf8(req.encode()).unwrap(), "GET /trade/app?action=buy&uid=uid:3&quantity=100 HTTP/1.0\r\nHost: trade.example.com\r\nUser-Agent: sli-edge-loadgen/1.0\r\nAccept: text/html\r\nCookie: JSESSIONID=sess-uid:3\r\n\r\n");
    let bare = HttpRequest::get("/", vec![]);
    assert_eq!(String::from_utf8(bare.encode()).unwrap(), "GET / HTTP/1.0\r\nHost: trade.example.com\r\nUser-Agent: sli-edge-loadgen/1.0\r\nAccept: text/html\r\n\r\n");
}

fn sample_result() -> TradeResult {
    let mut r = TradeResult::new("Portfolio")
        .field("user", "uid:7")
        .field("holdings", 2)
        .header(&["symbol", "quantity", "price"]);
    r.row(vec!["s:1".into(), "100".into(), "10.25".into()]);
    r.row(vec!["s:9".into(), "5".into(), "19.00".into()]);
    r
}

#[test]
fn rendered_pages_and_responses_are_pinned() {
    let page = page::render(&sample_result());
    assert_eq!(
        (page.len(), fnv1a(page.as_bytes())),
        (5711, 14305912062796917322)
    );
    let bare = page::render(&TradeResult::new("Trade Home"));
    assert_eq!(
        (bare.len(), fnv1a(bare.as_bytes())),
        (5421, 15522168576192027414)
    );
    let error = page::render_error("Transaction Conflict", "bean Quote[s:1] changed");
    assert_eq!(
        (error.len(), fnv1a(error.as_bytes())),
        (5452, 18161277320510142946)
    );

    let ok = HttpResponse::ok(page.clone())
        .with_cookie("sess-uid:7")
        .encode();
    assert_eq!((ok.len(), fnv1a(&ok)), (5862, 3368440076170291515));
    let head_len = ok.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    assert_eq!(&ok[head_len..], page.as_bytes());
    assert_eq!(std::str::from_utf8(&ok[..head_len]).unwrap(), "HTTP/1.0 200 OK\r\nServer: sli-edge/1.0\r\nContent-Type: text/html; charset=iso-8859-1\r\nContent-Length: 5711\r\nSet-Cookie: JSESSIONID=sess-uid:7; Path=/\r\n\r\n");
    let err = HttpResponse::error(409, "conflict").encode();
    assert_eq!(String::from_utf8(err).unwrap(), "HTTP/1.0 409 Conflict\r\nServer: sli-edge/1.0\r\nContent-Type: text/html; charset=iso-8859-1\r\nContent-Length: 8\r\n\r\nconflict");
}

/// Sends one request payload to `server` in a traced frame and returns
/// the whole reply frame.
fn call(server: &DbServer, correlation: u64, body: Writer) -> Bytes {
    server.handle(frame_traced(
        protocol::JDBC,
        correlation,
        77,
        &body.finish(),
    ))
}

#[test]
fn db_server_replies_are_pinned() {
    let db = Database::new();
    db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR)")
        .unwrap();
    let server = DbServer::new(db, Arc::new(Clock::new()), DbCostModel::default());

    let mut open = Writer::new();
    open.put_u8(0);
    assert_eq!(hex(&call(&server, 1, open)), "534c4957000144420000000000000001000000000000004d000000356f44bf2a00000000283030303030003030303030303020202044423220372e322053514c4341204f4b20202020202020000000000000000001");

    let exec = |sql: &str, params: &[Value]| {
        let mut w = Writer::new();
        w.put_u8(2).put_u64(1);
        w.put_str("NULLID.SYSSH200").put_str(sql);
        w.put_u32(params.len() as u32);
        for p in params {
            p.encode(&mut w);
        }
        w
    };
    let insert = exec(
        "INSERT INTO t (a, b) VALUES (?, ?)",
        &[Value::from(5), Value::from("five")],
    );
    assert_eq!(hex(&call(&server, 2, insert)), "534c4957000144420000000000000002000000000000004d00000039475371aa00000000283030303030003030303030303020202044423220372e322053514c4341204f4b2020202020202000000000010000000000000000");
    let select = exec("SELECT * FROM t WHERE a = ?", &[Value::from(5)]);
    assert_eq!(hex(&call(&server, 3, select)), "534c4957000144420000000000000003000000000000004d00000055b0fea8c000000000283030303030003030303030303020202044423220372e322053514c4341204f4b202020202020200000000000000000020000000161000000016200000001020000000000000005040000000466697665");

    // One batch: a select, then a duplicate insert that fails.
    let mut batch = Writer::new();
    batch.put_u8(6).put_u64(1).put_u32(2);
    for (sql, params) in [
        ("SELECT b FROM t WHERE a = ?", vec![Value::from(5)]),
        (
            "INSERT INTO t (a, b) VALUES (?, ?)",
            vec![Value::from(5), Value::from("again")],
        ),
    ] {
        batch.put_str("NULLID.SYSSH200").put_str(sql);
        batch.put_u32(params.len() as u32);
        for p in &params {
            p.encode(&mut batch);
        }
    }
    assert_eq!(hex(&call(&server, 4, batch)), "534c4957000144420000000000000004000000000000004d000000559d91fab900000000283030303030003030303030303020202044423220372e322053514c4341204f4b2020202020202000000000010000000000000001000000016200000001040000000466697665010400000004745b355d");

    // A frame that fails to unframe gets the untraced error reply.
    assert_eq!(hex(&server.handle(Bytes::from_static(b"garbage"))), "534c4957000144420000000000000000000000000000000000000027ff6daad1010c000000216d616c666f726d65642077697265206672616d653a206672616d65206d61676963");
}
