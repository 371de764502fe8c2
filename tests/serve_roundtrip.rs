//! End-to-end proof that the `ised` service path is the library path:
//! for registry workloads, the daemon's selection and Verilog must be
//! **byte-identical** to calling the drivers and the RTL emitter
//! in-process, with the repeated request served from the context cache.
//! Plus: the text-IR parser under fire — arbitrary mutations of valid
//! programs (and raw noise) must produce structured errors, never
//! panics.

use isegen::core::{Generator, IseConfig};
use isegen::ir::{text, LatencyModel};
use isegen::rtl::AfuLibrary;
use isegen::serve::json::{self, Json};
use isegen::serve::{Server, ServerConfig};
use isegen::workloads::workload_by_name;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn quiet_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            verbose: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn raw(&mut self, line: &str) -> Json {
        writeln!(self.stream, "{line}").expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        json::parse(response.trim()).expect("response is one JSON line")
    }

    fn request(&mut self, payload: Json) -> Json {
        let response = self.raw(&payload.to_string());
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "unexpected error response: {response}"
        );
        response
    }
}

/// Drives one workload through submit → select → select → rtl and
/// checks every byte against the in-process pipeline.
fn verify_workload(client: &mut Client, name: &str) {
    let spec = workload_by_name(name).expect("registry workload");
    let app = spec.application();
    let ir = text::write_application(&app);
    let model = LatencyModel::paper_default();
    let expected = Generator::new(IseConfig::paper_default()).run(&app, &model);
    let expected_afu = AfuLibrary::from_selection(&app, &model, &expected).expect("library AFU");

    let submit = client.request(Json::obj([
        ("op", "submit".into()),
        ("ir", ir.as_str().into()),
    ]));
    assert_eq!(submit.get("name").and_then(Json::as_str), Some(spec.name));
    let hash = submit
        .get("app")
        .and_then(Json::as_str)
        .expect("hash")
        .to_string();

    let select = client.request(Json::obj([
        ("op", "select".into()),
        ("app", hash.as_str().into()),
    ]));
    assert_eq!(
        select
            .get("speedup")
            .and_then(Json::as_f64)
            .map(f64::to_bits),
        Some(expected.speedup().to_bits()),
        "{name}: speedup must be bit-identical to the library path"
    );
    assert_eq!(
        select.get("ises").and_then(Json::as_array).map(<[_]>::len),
        Some(expected.ises.len()),
        "{name}: ISE count"
    );
    assert_eq!(
        select.get("saved_cycles").and_then(Json::as_u64),
        Some(expected.saved_cycles),
        "{name}: saved cycles"
    );
    assert_eq!(select.get("cache").and_then(Json::as_str), Some("miss"));

    // The identical request again: served from the selection memo, with
    // an identical payload.
    let again = client.request(Json::obj([
        ("op", "select".into()),
        ("app", hash.as_str().into()),
    ]));
    assert_eq!(
        again.get("cache").and_then(Json::as_str),
        Some("hit"),
        "{name}"
    );
    assert_eq!(
        again.get("ises"),
        select.get("ises"),
        "{name}: memo must not drift"
    );

    let rtl = client.request(Json::obj([
        ("op", "rtl".into()),
        ("app", hash.as_str().into()),
    ]));
    assert_eq!(
        rtl.get("verilog").and_then(Json::as_str),
        Some(expected_afu.emit_verilog().as_str()),
        "{name}: Verilog must be byte-identical to the library path"
    );
    assert_eq!(
        rtl.get("instructions")
            .and_then(Json::as_array)
            .map(<[_]>::len),
        Some(expected_afu.instructions().len())
    );

    // The verify op: three-way differential oracle over the daemon,
    // served from the selection memo (select/rtl above warmed it).
    let verify = client.request(Json::obj([
        ("op", "verify".into()),
        ("app", hash.as_str().into()),
        ("vectors", 16u64.into()),
        ("seed", 42u64.into()),
    ]));
    assert_eq!(
        verify.get("passed").and_then(Json::as_bool),
        Some(true),
        "{name}: emitted Verilog diverged: {verify}"
    );
    assert_eq!(verify.get("mismatches").and_then(Json::as_u64), Some(0));
    assert_eq!(
        verify.get("vectors_per_ise").and_then(Json::as_u64),
        Some(16)
    );
    assert_eq!(verify.get("cache").and_then(Json::as_str), Some("hit"));
    let reports = verify.get("ises").and_then(Json::as_array).expect("ises");
    assert_eq!(reports.len(), expected.ises.len(), "{name}");
    for r in reports {
        assert_eq!(r.get("mismatches").and_then(Json::as_u64), Some(0));
        assert_eq!(r.get("vectors").and_then(Json::as_u64), Some(16));
        let coverage = r
            .get("output_bits_covered")
            .and_then(Json::as_array)
            .expect("coverage array");
        assert!(!coverage.is_empty(), "{name}: an ISE with no outputs");
        for bits in coverage {
            let b = bits.as_u64().expect("coverage is numeric");
            assert!(b <= 32, "{name}: coverage over 32 bits");
        }
    }
}

#[test]
fn daemon_matches_library_path_and_serves_from_cache() {
    let server = quiet_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut client = Client::connect(&server);
        for name in ["fir00", "aes"] {
            verify_workload(&mut client, name);
        }

        // A second client submitting the same program hits the context
        // cache instead of rebuilding transitive closures.
        let mut other = Client::connect(&server);
        let aes_ir = text::write_application(&workload_by_name("aes").unwrap().application());
        let resubmit = other.request(Json::obj([
            ("op", "submit".into()),
            ("ir", aes_ir.as_str().into()),
        ]));
        assert_eq!(resubmit.get("cached").and_then(Json::as_bool), Some(true));

        let stats = client.request(Json::obj([("op", "stats".into())]));
        let hits = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
        assert!(
            hits("context_hits") > 0,
            "context cache was never hit: {stats}"
        );
        assert!(
            hits("selection_hits") > 0,
            "selection memo was never hit: {stats}"
        );
        assert_eq!(hits("entries"), 2, "fir00 + aes cached once each");
        assert_eq!(hits("errors"), 0, "no error responses in the happy path");
        assert_eq!(hits("verifications"), 2, "one verify per workload");
        assert!(
            hits("verified_vectors") >= 32,
            "16 vectors × ≥1 ISE × 2 workloads: {stats}"
        );
        // The computed selections must have reported their K-L search
        // counters: portfolio trajectories ran and arenas were pooled.
        let search = stats.get("search").expect("search stats object");
        let skey = |k: &str| search.get(k).and_then(Json::as_u64).unwrap_or(0);
        assert!(skey("trajectories") > 0, "no trajectories counted: {stats}");
        assert!(skey("commits") > 0, "no commits counted: {stats}");
        // The queue and the hull-only class report their work too.
        for k in ["queue_pops", "queue_reinsertions", "hull_retests"] {
            assert!(
                search.get(k).and_then(Json::as_u64).is_some(),
                "search.{k} missing: {stats}"
            );
        }
        assert!(skey("queue_pops") > 0, "no queue pops counted: {stats}");
        assert!(
            skey("arena_reuses") > 0,
            "arena pool was never reused: {stats}"
        );
        // Under the queue selector the cache's job is to make gain
        // evaluations *rare*, not to serve a giant stream of them: only
        // walked candidates and dirty re-keys ever probe. The scan-era
        // "mostly cached" ratio no longer applies, so assert the
        // stronger form — total probes per commit stays bounded (the
        // full scan did ~1000/commit on these workloads).
        let probes = skey("fresh_probes") + skey("cached_probes");
        assert!(
            probes < skey("commits").max(1) * 100,
            "the serve path must avoid per-commit probe storms: {stats}"
        );

        client.request(Json::obj([("op", "shutdown".into())]));
        handle
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    });
}

#[test]
fn portfolio_config_is_byte_identical_through_the_daemon() {
    // Two fresh daemons, same program: one selects with the default
    // sequential config, the other with a threaded driver + portfolio
    // floor. Identical selection bytes — the thread budget is a latency
    // knob, never a result knob (which is also why it is excluded from
    // the selection memo key).
    let ir = text::write_application(&workload_by_name("fir00").unwrap().application());
    let run = |config: Option<&str>| -> (Json, Json) {
        let server = quiet_server();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run());
            let mut client = Client::connect(&server);
            let payload = match config {
                Some(cfg) => format!(
                    r#"{{"op":"select","ir":{},"config":{cfg}}}"#,
                    Json::from(ir.as_str())
                ),
                None => format!(r#"{{"op":"select","ir":{}}}"#, Json::from(ir.as_str())),
            };
            let response = client.raw(&payload);
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "select failed: {response}"
            );
            let out = (
                response.get("ises").cloned().expect("ises"),
                response.get("speedup").cloned().expect("speedup"),
            );
            client.request(Json::obj([("op", "shutdown".into())]));
            handle
                .join()
                .expect("server thread")
                .expect("clean shutdown");
            out
        })
    };
    let sequential = run(None);
    // The last config is an old client's: its `portfolio_threads`
    // member is unknown and ignored.
    for cfg in [
        r#"{"threads":2}"#,
        r#"{"threads":4}"#,
        r#"{"threads":2,"portfolio_threads":3}"#,
    ] {
        assert_eq!(
            run(Some(cfg)),
            sequential,
            "config {cfg} changed the selection"
        );
    }
}

#[test]
fn hostile_requests_get_structured_errors_not_dead_connections() {
    let server = quiet_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut client = Client::connect(&server);
        // Every abuse below must yield ok:false with a kind — on the
        // SAME connection, proving no worker thread died.
        let abuses = [
            ("not json at all", "parse"),
            (r#"{"no_op":1}"#, "protocol"),
            (r#"{"op":"warp"}"#, "protocol"),
            (r#"{"op":"select"}"#, "protocol"),
            (r#"{"op":"select","app":"zz"}"#, "protocol"),
            (r#"{"op":"select","app":"0123456789abcdef"}"#, "not_found"),
            (
                r#"{"op":"submit","ir":"app a\nblock b\n  x = frob\nend\n"}"#,
                "ir",
            ),
            (
                r#"{"op":"submit","ir":"app a\nblock b\n  x = in\n  y = add x\nend\n"}"#,
                "ir",
            ),
            (
                r#"{"op":"select","ir":"app a\nblock b\n  x = in\n  y = add x x\nend\n","config":{"io":[0,1]}}"#,
                "protocol",
            ),
            (r#"{"op":"rtl","ir":"truncated"#, "parse"),
            // verify-specific abuse: bad vector counts, bad seeds,
            // unknown apps — all structured errors.
            (r#"{"op":"verify"}"#, "protocol"),
            (r#"{"op":"verify","app":"0123456789abcdef"}"#, "not_found"),
            (
                r#"{"op":"verify","ir":"app a\nblock b\n  x = in\n  y = add x x\nend\n","vectors":0}"#,
                "protocol",
            ),
            (
                r#"{"op":"verify","ir":"app a\nblock b\n  x = in\n  y = add x x\nend\n","vectors":1000000000}"#,
                "protocol",
            ),
            (
                r#"{"op":"verify","ir":"app a\nblock b\n  x = in\n  y = add x x\nend\n","seed":"tuesday"}"#,
                "protocol",
            ),
        ];
        for (line, kind) in abuses {
            let response = client.raw(line);
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(false),
                "{line} must fail"
            );
            assert_eq!(
                response.get("kind").and_then(Json::as_str),
                Some(kind),
                "{line} → {response}"
            );
        }
        // Weights GainWeights::new rejects (non-finite — JSON 1e400 reads
        // as +inf — negative merit/io_penalty, over the magnitude cap) are
        // typed protocol errors, and the same connection answers the
        // next request.
        let ir = r#""ir":"app a\nblock b freq 5\n  x = in\n  y = in\n  m = mul x y\n  s = add m x\nend\n""#;
        for weights in [
            r#"{"merit":1e400,"affinity":-1e400}"#,
            r#"{"io_penalty":1e400}"#,
            r#"{"merit":-1}"#,
            r#"{"io_penalty":-50}"#,
            r#"{"growth":1e13}"#,
        ] {
            let line = format!(r#"{{"op":"select",{ir},"config":{{"weights":{weights}}}}}"#);
            let rejected = client.raw(&line);
            assert_eq!(
                rejected.get("kind").and_then(Json::as_str),
                Some("protocol"),
                "{weights} → {rejected}"
            );
            let line = format!(r#"{{"op":"select",{ir}}}"#);
            let next = client.raw(&line);
            assert_eq!(
                next.get("ok").and_then(Json::as_bool),
                Some(true),
                "connection must survive {weights}: {next}"
            );
        }
        // And the connection still works.
        let pong = client.raw(r#"{"op":"ping"}"#);
        assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
        client.request(Json::obj([("op", "shutdown".into())]));
        handle
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    });
}

#[test]
fn length_prefixed_framing_round_trips_through_the_daemon() {
    use std::io::Read as _;

    let server = quiet_server();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run());
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));

        fn prefixed(
            stream: &mut TcpStream,
            reader: &mut BufReader<TcpStream>,
            payload: &str,
        ) -> Json {
            let mut frame = format!("#{}\n", payload.len()).into_bytes();
            frame.extend_from_slice(payload.as_bytes());
            frame.push(b'\n');
            stream.write_all(&frame).expect("send prefixed frame");
            let mut header = String::new();
            reader.read_line(&mut header).expect("read header");
            let len: usize = header
                .trim()
                .strip_prefix('#')
                .expect("response uses the request's framing")
                .parse()
                .expect("decimal length");
            let mut body = vec![0u8; len + 1];
            reader.read_exact(&mut body).expect("read body");
            assert_eq!(body.pop(), Some(b'\n'));
            json::parse(&String::from_utf8_lossy(&body)).expect("payload is JSON")
        }

        // A multi-line payload the legacy line protocol cannot carry.
        let pong = prefixed(&mut stream, &mut reader, "{\n  \"op\": \"ping\"\n}");
        assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));

        let ir = text::write_application(&workload_by_name("fir00").unwrap().application());
        let select = prefixed(
            &mut stream,
            &mut reader,
            &Json::obj([("op", "select".into()), ("ir", ir.as_str().into())]).to_string(),
        );
        assert_eq!(select.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(select.get("cache").and_then(Json::as_str), Some("miss"));

        // Legacy framing interleaves on the same connection and sees the
        // same cache.
        writeln!(
            stream,
            "{}",
            Json::obj([("op", "select".into()), ("ir", ir.as_str().into())])
        )
        .expect("send line request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read line response");
        let again = json::parse(line.trim()).expect("line response is JSON");
        assert_eq!(again.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(again.get("ises"), select.get("ises"));

        let bye = prefixed(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        handle
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    });
}

// ---- text-IR fuzzing ----------------------------------------------------

/// Tiny deterministic generator for mutation fuzzing (no shrinking
/// needed: the property is "does not panic", and a failure seed
/// reproduces exactly).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn mutate(text: &str, rng: &mut XorShift) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.below(8) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(5) {
            0 => {
                // truncate
                bytes.truncate(rng.below(bytes.len() + 1));
            }
            1 => {
                // delete a byte
                let i = rng.below(bytes.len());
                bytes.remove(i);
            }
            2 => {
                // overwrite with an interesting byte
                let i = rng.below(bytes.len());
                bytes[i] = *b"\"\\\n =#x0\xff".get(rng.below(9)).expect("in range");
            }
            3 => {
                // insert a random printable-ish byte
                let i = rng.below(bytes.len() + 1);
                bytes.insert(i, (rng.next() % 96 + 32) as u8);
            }
            _ => {
                // duplicate a slice (repeated lines, nested headers)
                let a = rng.below(bytes.len());
                let b = (a + rng.below(64)).min(bytes.len());
                let slice = bytes[a..b].to_vec();
                bytes.extend_from_slice(&slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    /// Mutated real programs: parse must return (never panic), and when
    /// it accepts the mutant, the canonical form must round-trip stably.
    #[test]
    fn ir_parser_survives_mutations(seed in any::<u64>()) {
        let base = text::write_application(&workload_by_name("fir00").unwrap().application());
        let mut rng = XorShift(seed);
        let mutant = mutate(&base, &mut rng);
        if let Ok(app) = text::parse_application(&mutant) {
            let canonical = text::write_application(&app);
            let reparsed = text::parse_application(&canonical)
                .expect("canonical text of an accepted program must parse");
            prop_assert_eq!(canonical, text::write_application(&reparsed));
        }
    }

    /// Raw noise: arbitrary short byte soup through the parser.
    #[test]
    fn ir_parser_survives_noise(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let noise = String::from_utf8_lossy(&bytes).into_owned();
        let _ = text::parse_application(&noise);
    }
}
