//! Property-style round-trip tests for the transport wire format
//! (`dtask::wire`). Arbitrary `Key`s, `Datum`s, `TaskSpec`s, and
//! `TaskError`s — drawn from fixed seeds so runs are deterministic and
//! fully offline — must survive encode → decode bit-exactly. Any drift
//! here silently corrupts every Framed and Tcp cluster, so the generators
//! deliberately cover the nasty corners: NaN/∞ floats, empty strings,
//! unicode keys, deep nesting, and all three `ErrorCause` shapes.

use deisa_repro::dtask::msg::ErrorCause;
use deisa_repro::dtask::spec::{FusedInput, FusedStage, TaskSpec, Value};
use deisa_repro::dtask::wire::{from_bytes, to_bytes};
use deisa_repro::dtask::{Datum, Key, TaskError};
use deisa_repro::linalg::NDArray;
use rand::prelude::*;

const CASES: usize = 128;

// ---------- generators ----------------------------------------------------

/// Arbitrary key text: empty to 24 chars, mixing ascii, digits, separators
/// used by the DEISA naming scheme, and a few multi-byte code points.
fn arb_key(rng: &mut SmallRng) -> Key {
    let alphabet: Vec<char> = ('a'..='z')
        .chain('0'..='9')
        .chain("-_@(),.é∑".chars())
        .collect();
    let len = rng.gen_range(0usize..25);
    let text: String = (0..len)
        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
        .collect();
    Key::new(text)
}

/// Arbitrary f64 including the values most likely to break a codec.
fn arb_f64(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0u32..8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE,
        _ => rng.gen_range(-1e12..1e12),
    }
}

/// Arbitrary datum with bounded recursion for lists.
fn arb_datum(rng: &mut SmallRng, depth: usize) -> Datum {
    let top = if depth == 0 { 7 } else { 8 };
    match rng.gen_range(0u32..top) {
        0 => Datum::Null,
        1 => Datum::Bool(rng.gen()),
        2 => Datum::I64(rng.gen::<u64>() as i64),
        3 => Datum::F64(arb_f64(rng)),
        4 => {
            let len = rng.gen_range(0usize..20);
            Datum::Str(
                (0..len)
                    .map(|_| char::from(b'!' + rng.gen_range(0u32..90) as u8))
                    .collect(),
            )
        }
        5 => {
            let len = rng.gen_range(0usize..64);
            let raw: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
            Datum::Bytes(bytes::Bytes::from(raw))
        }
        6 => {
            let ndim = rng.gen_range(1usize..4);
            let shape: Vec<usize> = (0..ndim).map(|_| rng.gen_range(1usize..5)).collect();
            let n = shape.iter().product::<usize>();
            let data: Vec<f64> = (0..n).map(|_| arb_f64(rng)).collect();
            Datum::from(NDArray::from_vec(&shape, data).unwrap())
        }
        _ => {
            let len = rng.gen_range(0usize..5);
            Datum::List((0..len).map(|_| arb_datum(rng, depth - 1)).collect())
        }
    }
}

fn arb_spec(rng: &mut SmallRng) -> TaskSpec {
    let deps: Vec<Key> = (0..rng.gen_range(0usize..5))
        .map(|_| arb_key(rng))
        .collect();
    let value = if rng.gen() {
        Value::Op {
            op: format!("op{}", rng.gen_range(0u32..100)),
            params: arb_datum(rng, 2),
        }
    } else {
        let n_stages = rng.gen_range(1usize..4);
        let stages = (0..n_stages)
            .map(|s| FusedStage {
                key: arb_key(rng),
                op: format!("stage{s}"),
                params: arb_datum(rng, 1),
                inputs: (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        if s > 0 && rng.gen() {
                            FusedInput::Stage(rng.gen_range(0usize..s))
                        } else if deps.is_empty() {
                            FusedInput::Stage(0)
                        } else {
                            FusedInput::Dep(rng.gen_range(0usize..deps.len()))
                        }
                    })
                    .collect(),
            })
            .collect();
        Value::Fused { stages }
    };
    TaskSpec {
        key: arb_key(rng),
        value,
        deps,
    }
}

fn arb_error(rng: &mut SmallRng) -> TaskError {
    let cause = match rng.gen_range(0u32..3) {
        0 => ErrorCause::Direct,
        1 => ErrorCause::FusedStage {
            stored_key: arb_key(rng),
        },
        _ => ErrorCause::Propagated { via: arb_key(rng) },
    };
    TaskError::new(arb_key(rng), format!("boom #{}", rng.gen_range(0u32..1000))).with_cause(cause)
}

// ---------- structural equality -------------------------------------------

/// Bit-exact datum equality (f64 compared via `to_bits` so NaN counts).
fn datum_eq(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Null, Datum::Null) => true,
        (Datum::Bool(x), Datum::Bool(y)) => x == y,
        (Datum::I64(x), Datum::I64(y)) => x == y,
        (Datum::F64(x), Datum::F64(y)) => x.to_bits() == y.to_bits(),
        (Datum::Str(x), Datum::Str(y)) => x == y,
        (Datum::Bytes(x), Datum::Bytes(y)) => x == y,
        (Datum::Array(x), Datum::Array(y)) => {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Datum::List(x), Datum::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| datum_eq(p, q))
        }
        _ => false,
    }
}

fn spec_eq(a: &TaskSpec, b: &TaskSpec) -> bool {
    if a.key != b.key || a.deps != b.deps {
        return false;
    }
    match (&a.value, &b.value) {
        (Value::Op { op: oa, params: pa }, Value::Op { op: ob, params: pb }) => {
            oa == ob && datum_eq(pa, pb)
        }
        (Value::Fused { stages: sa }, Value::Fused { stages: sb }) => {
            sa.len() == sb.len()
                && sa.iter().zip(sb).all(|(x, y)| {
                    x.key == y.key
                        && x.op == y.op
                        && x.inputs == y.inputs
                        && datum_eq(&x.params, &y.params)
                })
        }
        _ => false,
    }
}

// ---------- round-trips ----------------------------------------------------

#[test]
fn key_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x4B45);
    for _ in 0..CASES {
        let key = arb_key(&mut rng);
        let back = from_bytes::<Key>(&to_bytes(&key)).unwrap();
        assert_eq!(back, key);
        assert_eq!(back.as_str(), key.as_str());
        // The cached hash is recomputed at decode, never trusted from the wire.
        assert_eq!(back.cached_hash(), key.cached_hash());
    }
}

#[test]
fn datum_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xDA70);
    for _ in 0..CASES {
        let datum = arb_datum(&mut rng, 3);
        let back = from_bytes::<Datum>(&to_bytes(&datum)).unwrap();
        assert!(
            datum_eq(&back, &datum),
            "datum drifted: {datum:?} vs {back:?}"
        );
        // Sizing must agree too: nbytes feeds locality decisions on both ends.
        assert_eq!(back.nbytes(), datum.nbytes());
    }
}

#[test]
fn spec_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x53EC);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let back = from_bytes::<TaskSpec>(&to_bytes(&spec)).unwrap();
        assert!(spec_eq(&back, &spec), "spec drifted for key {:?}", spec.key);
    }
}

#[test]
fn error_roundtrip_preserves_cause() {
    let mut rng = SmallRng::seed_from_u64(0xE440);
    for _ in 0..CASES {
        let err = arb_error(&mut rng);
        let back = from_bytes::<TaskError>(&to_bytes(&err)).unwrap();
        assert_eq!(back, err);
        assert_eq!(back.is_propagated(), err.is_propagated());
    }
}

#[test]
fn truncated_frames_never_panic() {
    // Every prefix of a valid frame must fail cleanly, not panic or
    // misdecode: a cut-off TCP read maps to exactly this input shape.
    let mut rng = SmallRng::seed_from_u64(0x7C47);
    for _ in 0..32 {
        let datum = arb_datum(&mut rng, 2);
        let frame = to_bytes(&datum);
        for cut in 0..frame.len() {
            assert!(from_bytes::<Datum>(&frame[..cut]).is_err());
        }
    }
}

// ---------- golden frames ---------------------------------------------------

use deisa_repro::dtask::msg::{Assignment, ClientMsg, DataMsg, ExecMsg, SchedMsg};
use deisa_repro::dtask::net::frame;
use deisa_repro::dtask::transport::{Addr, DataReply, Payload, ReplyTo};
use deisa_repro::dtask::wire::{decode, decode_node, encode, encode_node};
use deisa_repro::dtask::{DatumRef, FrameReader, NodeMsg, NodeWelcome, WireError};
use std::sync::Arc;

/// Deterministic block values: integer arithmetic and one IEEE division, so
/// the bytes do not depend on a libm.
fn golden_block(shape: &[usize]) -> NDArray {
    let n = shape.iter().product::<usize>();
    let data = (0..n as u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 1_000_003) as f64 / 7.0)
        .collect();
    NDArray::from_vec(shape, data).unwrap()
}

/// The array-carrying payloads whose bytes are pinned in
/// `tests/golden/wire_frames.txt`.
fn golden_payloads() -> Vec<(&'static str, Payload)> {
    let put = |key: &str, value: Datum| {
        Payload::Data(DataMsg::Put {
            key: Key::new(key),
            value,
            ack: ReplyTo {
                addr: Addr::Client(3),
                corr: 41,
            },
        })
    };
    let reply = |value: Datum| Payload::Reply {
        corr: 99,
        reply: DataReply::Value(Ok(value)),
    };
    let nasty = NDArray::from_vec(
        &[2, 3],
        vec![
            f64::NAN,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.5,
        ],
    )
    .unwrap();
    vec![
        (
            "put_256x256",
            put("field@(7,0,1)", Datum::from(golden_block(&[256, 256]))),
        ),
        (
            "reply_256x256",
            reply(Datum::from(golden_block(&[256, 256]))),
        ),
        (
            "put_empty",
            put("empty", Datum::from(NDArray::zeros(&[0, 4]))),
        ),
        ("reply_nan", reply(Datum::from(nasty.clone()))),
        (
            "put_list_of_arrays",
            put(
                "parts",
                Datum::List(vec![
                    Datum::from(golden_block(&[2, 2])),
                    Datum::from(nasty),
                    Datum::List(vec![Datum::from(golden_block(&[3])), Datum::F64(-0.0)]),
                ]),
            ),
        ),
    ]
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The datum a golden payload carries.
fn payload_datum(p: &Payload) -> &Datum {
    match p {
        Payload::Data(DataMsg::Put { value, .. }) => value,
        Payload::Reply {
            reply: DataReply::Value(Ok(value)),
            ..
        } => value,
        _ => panic!("not a golden payload"),
    }
}

/// One sample envelope per variant of every message kind (and per tag of
/// every enum nested inside one), by name. Kind-5 `NodeMsg` envelopes are the
/// `node_*` entries; `node_welcome_short` is what a hub from before
/// `steal_poll_ms` sends.
fn every_variant_frames() -> Vec<(String, Vec<u8>)> {
    let reply_to = |addr| ReplyTo { addr, corr: 41 };
    let key = Key::new("blk@(3,1)");
    let scoped_key = Key::scoped(5, "sink");
    let error = |cause| TaskError::new("origin", "kaboom").with_cause(cause);
    let fused = TaskSpec::fused(
        "tail",
        vec![
            FusedStage {
                key: Key::new("head"),
                op: "identity".into(),
                params: Datum::Null,
                inputs: vec![FusedInput::Dep(0)],
            },
            FusedStage {
                key: Key::new("tail"),
                op: "bump".into(),
                params: Datum::F64(2.0),
                inputs: vec![FusedInput::Stage(0), FusedInput::Dep(1)],
            },
        ],
        vec![Key::new("ext-a"), scoped_key.clone()],
    );
    let plain = TaskSpec::new("t", "identity", Datum::I64(-3), vec![key.clone()]);
    let assignment = |spec: &TaskSpec, dep_locations| Assignment {
        spec: Arc::new(spec.clone()),
        dep_locations,
        assigned_at: std::time::Instant::now(),
    };
    let handle = DatumRef {
        key: Key::new("proxy:c3:17"),
        shape: vec![160, 160],
        nbytes: 160 * 160 * 8,
        holder: 2,
        epoch: 17,
    };

    let sched = vec![
        ("client_connect", SchedMsg::ClientConnect { client: 3 }),
        (
            "client_disconnect",
            SchedMsg::ClientDisconnect { client: 3 },
        ),
        (
            "submit_graph",
            SchedMsg::SubmitGraph {
                client: 3,
                specs: vec![plain.clone(), fused.clone()],
            },
        ),
        (
            "register_external",
            SchedMsg::RegisterExternal {
                client: 3,
                keys: vec![key.clone(), scoped_key.clone()],
            },
        ),
        (
            "update_data",
            SchedMsg::UpdateData {
                client: 3,
                entries: vec![(key.clone(), 1, 1 << 20), (scoped_key.clone(), 0, 8)],
                external: true,
            },
        ),
        (
            "task_finished",
            SchedMsg::TaskFinished {
                worker: 1,
                key: key.clone(),
                nbytes: 1 << 20,
            },
        ),
        (
            "add_replica",
            SchedMsg::AddReplica {
                worker: 1,
                entries: vec![(key.clone(), 4096)],
            },
        ),
        (
            "task_erred",
            SchedMsg::TaskErred {
                worker: 1,
                stored_key: Key::new("tail"),
                error: error(ErrorCause::FusedStage {
                    stored_key: Key::new("tail"),
                }),
                failed_peer: Some(2),
            },
        ),
        (
            "want_result",
            SchedMsg::WantResult {
                client: 3,
                key: scoped_key.clone(),
            },
        ),
        (
            "release_keys",
            SchedMsg::ReleaseKeys {
                keys: vec![key.clone()],
            },
        ),
        (
            "variable_set",
            SchedMsg::VariableSet {
                name: "contract".into(),
                value: Datum::List(vec![Datum::Ref(handle.clone()), Datum::F64(1.5)]),
            },
        ),
        (
            "variable_get",
            SchedMsg::VariableGet {
                client: 3,
                name: "contract".into(),
                wait: true,
            },
        ),
        (
            "variable_del",
            SchedMsg::VariableDel {
                name: "contract".into(),
            },
        ),
        (
            "queue_push",
            SchedMsg::QueuePush {
                name: "q".into(),
                value: Datum::Str("schrödinger".into()),
            },
        ),
        (
            "queue_pop",
            SchedMsg::QueuePop {
                client: 3,
                name: "q".into(),
            },
        ),
        ("heartbeat", SchedMsg::Heartbeat { client: 7 }),
        ("shutdown", SchedMsg::Shutdown),
        ("worker_heartbeat", SchedMsg::WorkerHeartbeat { worker: 3 }),
        ("steal_request", SchedMsg::StealRequest { worker: 5 }),
        (
            "stolen",
            SchedMsg::Stolen {
                victim: 2,
                thief: 7,
                keys: vec![key.clone(), Key::new("block-3-step-42")],
            },
        ),
        (
            "register_worker",
            SchedMsg::RegisterWorker {
                worker: 4,
                slots: 3,
            },
        ),
        (
            "scoped",
            SchedMsg::Scoped {
                session: 5,
                inner: Box::new(SchedMsg::SubmitGraph {
                    client: 3,
                    specs: vec![TaskSpec::new(
                        "t",
                        "identity",
                        Datum::Null,
                        vec![Key::scoped(5, "dep")],
                    )],
                }),
            },
        ),
    ];
    let exec = vec![
        (
            "execute",
            ExecMsg::Execute(assignment(
                &fused,
                vec![
                    (Key::new("ext-a"), vec![0, 2]),
                    (scoped_key.clone(), vec![1]),
                ],
            )),
        ),
        (
            "execute_batch",
            ExecMsg::ExecuteBatch {
                tasks: vec![
                    assignment(&plain, vec![(key.clone(), vec![1])]),
                    assignment(&plain, Vec::new()),
                ],
            },
        ),
        ("shutdown", ExecMsg::Shutdown),
        ("steal", ExecMsg::Steal { thief: 1, max: 4 }),
    ];
    let data = vec![
        (
            "put",
            DataMsg::Put {
                key: scoped_key.clone(),
                value: Datum::from(golden_block(&[2, 3])),
                ack: reply_to(Addr::Client(3)),
            },
        ),
        (
            "get",
            DataMsg::Get {
                key: key.clone(),
                reply: reply_to(Addr::WorkerData(1)),
            },
        ),
        (
            "delete",
            DataMsg::Delete {
                keys: vec![key.clone(), scoped_key.clone()],
            },
        ),
        (
            "stats",
            DataMsg::Stats {
                reply: reply_to(Addr::Control),
            },
        ),
        ("shutdown", DataMsg::Shutdown),
        (
            "fetch",
            DataMsg::Fetch {
                key: Key::new("proxy:c3:17"),
                reply: reply_to(Addr::WorkerExec(2)),
            },
        ),
        ("sweep", DataMsg::Sweep { session: 9 }),
        // The one address tag no request above carries.
        (
            "get_from_scheduler",
            DataMsg::Get {
                key: key.clone(),
                reply: reply_to(Addr::Scheduler),
            },
        ),
    ];
    let mut client = vec![
        (
            "key_ready_ok".to_string(),
            ClientMsg::KeyReady {
                key: key.clone(),
                location: Ok(2),
            },
        ),
        (
            "variable_value".to_string(),
            ClientMsg::VariableValue {
                name: "contract".into(),
                value: Datum::Null,
                found: false,
            },
        ),
        (
            "queue_item".to_string(),
            ClientMsg::QueueItem {
                name: "q".into(),
                value: Datum::Bool(true),
            },
        ),
        (
            "submit_outcome".to_string(),
            ClientMsg::SubmitOutcome {
                accepted: false,
                inflight: 512,
                cap: 256,
            },
        ),
    ];
    for (name, cause) in [
        ("direct", ErrorCause::Direct),
        (
            "fused_stage",
            ErrorCause::FusedStage {
                stored_key: Key::new("tail"),
            },
        ),
        (
            "propagated",
            ErrorCause::Propagated {
                via: scoped_key.clone(),
            },
        ),
        ("peer_lost", ErrorCause::PeerLost),
    ] {
        client.push((
            format!("key_ready_err_{name}"),
            ClientMsg::KeyReady {
                key: key.clone(),
                location: Err(error(cause)),
            },
        ));
    }
    let mut replies = vec![
        ("put_ack".to_string(), DataReply::PutAck),
        (
            "value_err".to_string(),
            DataReply::Value(Err("no such key".into())),
        ),
        ("stats".to_string(), DataReply::Stats { keys: 2, bytes: 96 }),
    ];
    for (name, datum) in [
        ("f64", Datum::F64(-0.0)),
        ("i64", Datum::I64(-42)),
        ("bool", Datum::Bool(true)),
        ("str", Datum::Str("µ".into())),
        ("array", Datum::from(golden_block(&[3, 2]))),
        (
            "list",
            Datum::List(vec![Datum::Null, Datum::List(vec![Datum::I64(1)])]),
        ),
        ("bytes", Datum::Bytes(vec![0, 255, 7].into())),
        ("null", Datum::Null),
        ("ref", Datum::Ref(handle)),
    ] {
        replies.push((format!("value_{name}"), DataReply::Value(Ok(datum))));
    }
    let node = vec![
        (
            "hello",
            NodeMsg::Hello {
                slots: 2,
                mem_budget: Some(1 << 20),
                capabilities: vec!["darray".into(), "h5".into()],
            },
        ),
        (
            "welcome",
            NodeMsg::Welcome(NodeWelcome {
                worker: 1,
                n_workers: 3,
                slots: 2,
                heartbeat_ms: 50,
                mem_budget: None,
                steal_poll_ms: 2,
            }),
        ),
        (
            "goodbye",
            NodeMsg::Goodbye {
                reason: "cluster shutdown".into(),
            },
        ),
        ("cancel", NodeMsg::Cancel { corr: 99 }),
    ];

    let mut frames = Vec::new();
    let mut push = |name: String, p: Payload| frames.push((name, encode(&p)));
    for (name, m) in sched {
        push(format!("sched_{name}"), Payload::Sched(m));
    }
    for (name, m) in exec {
        push(format!("exec_{name}"), Payload::Exec(m));
    }
    for (name, m) in data {
        push(format!("data_{name}"), Payload::Data(m));
    }
    for (name, m) in client {
        push(format!("client_{name}"), Payload::Client(m));
    }
    for (name, reply) in replies {
        push(format!("reply_{name}"), Payload::Reply { corr: 99, reply });
    }
    for (name, m) in &node {
        frames.push((format!("node_{name}"), encode_node(m)));
    }
    // The same `Welcome` as a hub from before `steal_poll_ms` sends it: the
    // body ends 8 bytes earlier.
    let mut short = encode_node(&node[1].1);
    short.truncate(short.len() - 8);
    let body_len = (short.len() - 8) as u32;
    short[4..8].copy_from_slice(&body_len.to_le_bytes());
    frames.push(("node_welcome_short".to_string(), short));
    frames.push((
        "node_peer_gone".to_string(),
        encode_node(&NodeMsg::PeerGone { worker: 1 }),
    ));
    frames
}

/// Decode an envelope of any kind and encode what came out. The message
/// enums derive no `PartialEq`; with a deterministic encoder, identical
/// bytes are the equality check.
fn reencode(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    if bytes.get(3) == Some(&5) {
        decode_node(bytes).map(|m| encode_node(&m))
    } else {
        decode(bytes).map(|p| encode(&p))
    }
}

/// Every envelope is byte-identical to the frame pinned for it: the five
/// array-carrying ones generated before the payload codec moved element runs
/// in bulk, and one per variant of every message kind generated before the
/// codec moved onto declaration tables. One line per frame (name, length,
/// FNV-1a 64 of the bytes, and the bytes in hex when short). The file is
/// append-only; on a deliberate layout change, review
/// `wire_frames.txt.actual` and move it over the golden.
#[test]
fn frames_match_golden_bytes() {
    let mut actual = String::new();
    let mut line = |name: &str, bytes: &[u8]| {
        let hex = if bytes.len() <= 256 {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        } else {
            "-".to_string()
        };
        actual.push_str(&format!(
            "{name} {} {:016x} {hex}\n",
            bytes.len(),
            fnv1a64(bytes)
        ));
    };
    for (name, payload) in golden_payloads() {
        let bytes = encode(&payload);
        line(name, &bytes);
        let back = decode(&bytes).unwrap();
        assert!(
            datum_eq(payload_datum(&payload), payload_datum(&back)),
            "{name} does not round-trip"
        );
        assert_eq!(encode(&back), bytes, "{name} re-encodes differently");
    }
    for (name, bytes) in every_variant_frames() {
        line(&name, &bytes);
        let again = reencode(&bytes).unwrap_or_else(|e| panic!("{name} does not decode: {e}"));
        if name == "node_welcome_short" {
            // Decodes with stealing off, so the long form comes back.
            let Ok(NodeMsg::Welcome(w)) = decode_node(&bytes) else {
                panic!("{name} is not a Welcome")
            };
            assert_eq!(w.steal_poll_ms, 0);
            assert_eq!(again.len(), bytes.len() + 8);
        } else {
            assert_eq!(again, bytes, "{name} re-encodes differently");
        }
    }
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_frames.txt");
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != golden {
        std::fs::write(path.with_extension("txt.actual"), &actual).unwrap();
        panic!("frames differ from {}", path.display());
    }
}

// ---------- hostile payloads ------------------------------------------------

/// A well-formed `Reply` envelope whose value is the given raw datum bytes.
fn reply_envelope_around(raw_datum: &[u8]) -> Vec<u8> {
    let mut env = encode(&Payload::Reply {
        corr: 7,
        reply: DataReply::Value(Ok(Datum::Null)),
    });
    env.pop(); // the encoded `Null`
    env.extend_from_slice(raw_datum);
    let body_len = (env.len() - 8) as u32;
    env[4..8].copy_from_slice(&body_len.to_le_bytes());
    env
}

fn decode_err(envelope: &[u8]) -> WireError {
    match decode(envelope) {
        Err(e) => e,
        Ok(_) => panic!("hostile frame decoded"),
    }
}

#[test]
fn array_rank_beyond_the_body_is_an_error_not_an_allocation() {
    // tag 4, ndim = u32::MAX, one dimension's worth of bytes: 13 bytes that
    // used to ask the allocator for 32 GiB of shape.
    let mut raw = vec![4u8];
    raw.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.extend_from_slice(&1u64.to_le_bytes());
    assert_eq!(from_bytes::<Datum>(&raw).err(), Some(WireError::Truncated));
    assert_eq!(
        decode_err(&reply_envelope_around(&raw)),
        WireError::Truncated
    );
}

#[test]
fn array_shape_whose_product_overflows_is_malformed() {
    // shape [2^63, 2]: the element count wraps to 0 in release arithmetic.
    let mut raw = vec![4u8];
    raw.extend_from_slice(&2u32.to_le_bytes());
    raw.extend_from_slice(&(1u64 << 63).to_le_bytes());
    raw.extend_from_slice(&2u64.to_le_bytes());
    assert_eq!(
        from_bytes::<Datum>(&raw).err(),
        Some(WireError::Malformed("array"))
    );
    assert_eq!(
        decode_err(&reply_envelope_around(&raw)),
        WireError::Malformed("array")
    );
}

#[test]
fn ten_megabytes_of_nested_lists_are_malformed_not_a_stack_overflow() {
    // tag 5, len 1, two million times over, then a Null: 10 MB, well under
    // the socket's 64 MiB frame bound.
    let mut raw = Vec::with_capacity(10_000_001);
    for _ in 0..2_000_000 {
        raw.push(5u8);
        raw.extend_from_slice(&1u32.to_le_bytes());
    }
    raw.push(7);
    assert_eq!(
        from_bytes::<Datum>(&raw).err(),
        Some(WireError::Malformed("nesting too deep"))
    );
    assert_eq!(
        decode_err(&reply_envelope_around(&raw)),
        WireError::Malformed("nesting too deep")
    );
    // Ordinary nesting still decodes.
    let mut nested = Datum::I64(1);
    for _ in 0..16 {
        nested = Datum::List(vec![nested]);
    }
    assert!(datum_eq(
        &from_bytes::<Datum>(&to_bytes(&nested)).unwrap(),
        &nested
    ));
}

/// One seeded mutation of `bytes`: a byte overwritten, a bit flipped, four
/// bytes saturated (length and rank fields are where the damage is), or a
/// run of one of `donors` spliced in.
fn damage(rng: &mut SmallRng, bytes: &mut Vec<u8>, donors: &[Vec<u8>]) {
    let at = rng.gen_range(0usize..bytes.len());
    match rng.gen_range(0u32..4) {
        0 => bytes[at] = rng.gen_range(0u32..256) as u8,
        1 => bytes[at] ^= 1 << rng.gen_range(0u32..8),
        2 => bytes[at..].iter_mut().take(4).for_each(|b| *b = 0xFF),
        _ => {
            let other = &donors[rng.gen_range(0usize..donors.len())];
            let from = rng.gen_range(0usize..other.len());
            let n = rng.gen_range(1usize..24).min(other.len() - from);
            bytes.splice(at..at, other[from..from + n].iter().copied());
        }
    }
}

/// Seeded byte mutations (overwrites, bit flips, saturated length fields,
/// cuts, a spliced-in run of another frame) over one envelope of every
/// variant of every message kind, kind-5 `NodeMsg` ones included, and over
/// `Put`/`Reply` envelopes carrying arrays, lists and refs: whatever comes
/// out of either decoder is `Ok` or a `WireError`. A panic, an abort or a
/// stack overflow takes the test process down with it.
#[test]
fn mutated_payload_frames_never_panic() {
    let handle = Datum::Ref(DatumRef {
        key: Key::new("blk@(3,1)"),
        shape: vec![64, 64],
        nbytes: 32_768,
        holder: 1,
        epoch: 9,
    });
    let value = Datum::List(vec![
        Datum::from(golden_block(&[6, 5])),
        handle.clone(),
        Datum::List(vec![
            Datum::from(NDArray::zeros(&[0, 3])),
            Datum::Str("µ".into()),
            handle,
        ]),
        Datum::from(golden_block(&[2, 3, 4])),
    ]);
    let mut frames = vec![
        encode(&Payload::Data(DataMsg::Put {
            key: Key::scoped(5, "field@(0,0)"),
            value: value.clone(),
            ack: ReplyTo {
                addr: Addr::WorkerData(1),
                corr: 12,
            },
        })),
        encode(&Payload::Reply {
            corr: 13,
            reply: DataReply::Value(Ok(value)),
        }),
    ];
    frames.extend(every_variant_frames().into_iter().map(|(_, bytes)| bytes));
    let mut rng = SmallRng::seed_from_u64(0xF022_0017);
    let (mut decoded, mut node_decoded) = (0usize, 0usize);
    const ROUNDS: usize = 120_000;
    for round in 0..ROUNDS {
        let mut bytes = frames[round % frames.len()].clone();
        for _ in 0..rng.gen_range(1usize..4) {
            damage(&mut rng, &mut bytes, &frames);
        }
        if rng.gen_range(0u32..4) == 0 {
            bytes.truncate(rng.gen_range(0usize..bytes.len() + 1));
        }
        // Keep the envelope's own length honest half the time so the body
        // decoders, not just the header check, see the damage.
        if bytes.len() >= 8 && rng.gen() {
            let body_len = (bytes.len() - 8) as u32;
            bytes[4..8].copy_from_slice(&body_len.to_le_bytes());
        }
        decoded += decode(&bytes).is_ok() as usize;
        node_decoded += decode_node(&bytes).is_ok() as usize;
    }
    // Mutations inside an f64 run, a key text or a counter leave a valid
    // frame: both outcomes occur, for both decoders.
    for n in [decoded, node_decoded] {
        assert!(n > 0 && n < ROUNDS, "{n} of {ROUNDS} decoded");
    }
}

/// The socket side of the same property. Streams of routed frames (every
/// sample envelope behind a random address) are damaged the same ways, or
/// are seeded garbage outright, and reach a `FrameReader` in pieces cut at
/// random points: every `next_frame` is a frame, "need more" or a
/// `WireError`, and whatever envelope it hands out goes through both
/// decoders the same way.
#[test]
fn mutated_socket_streams_never_panic() {
    let envelopes: Vec<Vec<u8>> = every_variant_frames()
        .into_iter()
        .map(|(_, bytes)| bytes)
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x50C_4E7);
    let (mut frames_out, mut refused, mut clean_ends) = (0usize, 0usize, 0usize);
    for round in 0..20_000 {
        let mut stream = Vec::new();
        if round % 16 == 0 {
            let n = rng.gen_range(1usize..200);
            stream.extend((0..n).map(|_| rng.gen_range(0u32..256) as u8));
        } else {
            for _ in 0..rng.gen_range(1usize..5) {
                let to = match rng.gen_range(0u32..5) {
                    0 => Addr::Scheduler,
                    1 => Addr::WorkerData(rng.gen_range(0usize..4)),
                    2 => Addr::WorkerExec(rng.gen_range(0usize..4)),
                    3 => Addr::Client(rng.gen_range(0usize..4)),
                    _ => Addr::Control,
                };
                let env = &envelopes[rng.gen_range(0usize..envelopes.len())];
                stream.extend_from_slice(&frame(to, env));
            }
            // One stream in four stays intact, so whole frames come out too.
            for _ in 0..rng.gen_range(0usize..4) {
                damage(&mut rng, &mut stream, &envelopes);
            }
            if rng.gen_range(0u32..4) == 0 {
                stream.truncate(rng.gen_range(0usize..stream.len() + 1));
            }
        }

        let mut reader = FrameReader::new();
        let mut fed = 0;
        'stream: while fed < stream.len() {
            let upto = (fed + 1 + rng.gen_range(0usize..40)).min(stream.len());
            reader.push(&stream[fed..upto]);
            fed = upto;
            loop {
                match reader.next_frame() {
                    Ok(Some(f)) => {
                        frames_out += 1;
                        let _ = (decode(&f.envelope), decode_node(&f.envelope));
                    }
                    Ok(None) => break,
                    // The stream is poisoned: a socket reader drops the
                    // connection here.
                    Err(_) => {
                        refused += 1;
                        break 'stream;
                    }
                }
            }
        }
        clean_ends += reader.at_eof().is_ok() as usize;
    }
    assert!(
        frames_out > 0 && refused > 0 && clean_ends > 0,
        "{frames_out} frames, {refused} refused streams, {clean_ends} clean ends"
    );
}
