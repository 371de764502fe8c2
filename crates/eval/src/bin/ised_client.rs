//! `ised_client` — smoke client for the `ised` daemon.
//!
//! For every requested registry workload it submits the text IR, asks
//! for a selection and the RTL, and verifies the responses **bit for
//! bit** against the in-process library path (same drivers, same
//! emitter): speedup, per-ISE shapes and the full Verilog must be
//! byte-identical, the repeated selection must be served from the
//! daemon's memo, and the daemon's `verify` op must report zero
//! mismatches from its three-way differential oracle. Exit code 0 means the service pipeline is equivalent
//! to the library pipeline; 1 means divergence; 2 means CLI misuse.
//!
//! ```sh
//! ised --addr 127.0.0.1:0 &   # note the printed port
//! ised_client --addr 127.0.0.1:PORT --workload aes --workload fir00
//! ```

use isegen_core::{Generator, IseConfig, SearchConfig};
use isegen_ir::{text, LatencyModel};
use isegen_rtl::AfuLibrary;
use isegen_serve::json::{self, Json};
use isegen_workloads::workload_by_name;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const USAGE: &str = "usage: ised_client --addr HOST:PORT [--workload NAME]... [--threads N]
  --addr HOST:PORT  the running ised daemon (required)
  --workload NAME   registry workload to verify (repeatable; default aes, fir00)
  --threads N       thread budget of each cut search (default 1)";

/// Prints the problem and the usage to stderr, then exits with code 2.
fn usage_error(message: &str) -> ! {
    eprintln!("ised_client: {message}\n{USAGE}");
    std::process::exit(2);
}

fn fail(message: String) -> ! {
    eprintln!("ised_client: FAIL: {message}");
    std::process::exit(1);
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> Connection {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")));
        stream
            .set_nodelay(true)
            .unwrap_or_else(|e| fail(format!("cannot set TCP_NODELAY: {e}")));
        let reader = BufReader::new(
            stream
                .try_clone()
                .unwrap_or_else(|e| fail(format!("cannot clone stream: {e}"))),
        );
        Connection { stream, reader }
    }

    fn request(&mut self, payload: Json) -> Json {
        self.stream
            .write_all(format!("{payload}\n").as_bytes())
            .unwrap_or_else(|e| fail(format!("send: {e}")));
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .unwrap_or_else(|e| fail(format!("receive: {e}")));
        let response = json::parse(line.trim())
            .unwrap_or_else(|e| fail(format!("bad response {line:?}: {e}")));
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            fail(format!("error response: {response}"));
        }
        response
    }
}

fn main() {
    let mut addr: Option<String> = None;
    let mut workloads: Vec<String> = Vec::new();
    let mut threads = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = Some(a),
                None => usage_error("--addr needs HOST:PORT"),
            },
            "--workload" => match args.next() {
                Some(w) => workloads.push(w),
                None => usage_error("--workload needs a name"),
            },
            "--threads" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => threads = n,
                _ => usage_error("--threads needs a positive integer"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let Some(addr) = addr else {
        usage_error("--addr is required");
    };
    if workloads.is_empty() {
        workloads = vec!["aes".into(), "fir00".into()];
    }

    let model = LatencyModel::paper_default();
    let config = IseConfig::paper_default();
    let search = SearchConfig::default();
    let mut conn = Connection::open(&addr);
    let request_config = Json::obj([("threads", threads.into())]);

    for name in &workloads {
        let spec = workload_by_name(name)
            .unwrap_or_else(|| usage_error(&format!("unknown workload {name:?}")));
        let app = spec.application();
        let ir = text::write_application(&app);

        // The reference: the in-process library pipeline.
        let expected = Generator::new(config)
            .search(search.clone())
            .run(&app, &model);
        let expected_afu = AfuLibrary::from_selection(&app, &model, &expected)
            .unwrap_or_else(|e| fail(format!("{name}: library AFU failed: {e}")));

        let submit = conn.request(Json::obj([
            ("op", "submit".into()),
            ("ir", ir.as_str().into()),
        ]));
        let hash = submit
            .get("app")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(format!("{name}: submit returned no hash")))
            .to_string();

        let select = |conn: &mut Connection| {
            conn.request(Json::obj([
                ("op", "select".into()),
                ("app", hash.as_str().into()),
                ("config", request_config.clone()),
            ]))
        };
        let first = select(&mut conn);
        // Byte-level equivalence of the scalar summary: compare the
        // serialized bits, not approximately.
        let speedup = first
            .get("speedup")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        if speedup.to_bits() != expected.speedup().to_bits() {
            fail(format!(
                "{name}: daemon speedup {speedup} != library {}",
                expected.speedup()
            ));
        }
        let ises = first.get("ises").and_then(Json::as_array).unwrap_or(&[]);
        if ises.len() != expected.ises.len() {
            fail(format!(
                "{name}: daemon found {} ISEs, library {}",
                ises.len(),
                expected.ises.len()
            ));
        }
        let second = select(&mut conn);
        if second.get("cache").and_then(Json::as_str) != Some("hit") {
            fail(format!("{name}: repeated selection was not a cache hit"));
        }
        if first.get("ises") != second.get("ises") {
            fail(format!("{name}: memoised selection differs from computed"));
        }

        let rtl = conn.request(Json::obj([
            ("op", "rtl".into()),
            ("app", hash.as_str().into()),
            ("config", request_config.clone()),
        ]));
        let verilog = rtl.get("verilog").and_then(Json::as_str).unwrap_or("");
        let expected_verilog = expected_afu.emit_verilog();
        if verilog != expected_verilog {
            fail(format!(
                "{name}: daemon Verilog ({} bytes) != library Verilog ({} bytes)",
                verilog.len(),
                expected_verilog.len()
            ));
        }
        // The verify op: the daemon must prove the Verilog it just
        // handed us executes correctly — three-way differential oracle,
        // zero mismatches.
        let verify = conn.request(Json::obj([
            ("op", "verify".into()),
            ("app", hash.as_str().into()),
            ("config", request_config.clone()),
            ("vectors", 32u64.into()),
        ]));
        if verify.get("passed").and_then(Json::as_bool) != Some(true) {
            fail(format!("{name}: verify reported mismatches: {verify}"));
        }
        let verified = verify.get("ises").and_then(Json::as_array).unwrap_or(&[]);
        if verified.len() != expected.ises.len() {
            fail(format!(
                "{name}: verify covered {} ISEs, expected {}",
                verified.len(),
                expected.ises.len()
            ));
        }
        println!(
            "ised_client: OK {name}: {} ISEs, speedup {speedup:.4}, {} Verilog bytes, cache hit + verify clean",
            ises.len(),
            verilog.len()
        );
    }

    let stats = conn.request(Json::obj([("op", "stats".into())]));
    let hits = stats
        .get("selection_hits")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if hits == 0 {
        fail("server reports zero selection cache hits".to_string());
    }
    println!("ised_client: stats {stats}");
    println!("ised_client: all {} workload(s) verified", workloads.len());
}
