//! Hostile-client tests against the real `ised` and `isegen-router`
//! binaries: slowloris requests, idle connections, oversized frames,
//! framing abuse, and the shutdown-latency bound under a load of parked
//! connections. Both binaries run the same TCP front, and every test
//! holds both to it: a client cannot tell a router from a single daemon.

use isegen_serve::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The binaries under test.
#[derive(Debug, Clone, Copy)]
enum Binary {
    Ised,
    Router,
}

const BINARIES: [Binary; 2] = [Binary::Ised, Binary::Router];

struct Daemon {
    child: Child,
    addr: String,
    state_dir: Option<PathBuf>,
}

impl Daemon {
    /// Spawns `<binary> --addr 127.0.0.1:0 --quiet <extra>` and scrapes
    /// the bound address from the banner. The router gets one shard
    /// whose `ised` path does not exist, so its fleet degrades to the
    /// in-process fallback engine and spawns no child.
    fn spawn(binary: Binary, extra: &[&str]) -> Daemon {
        let (mut command, state_dir) = match binary {
            Binary::Ised => (Command::new(env!("CARGO_BIN_EXE_ised")), None),
            Binary::Router => {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0);
                let dir = std::env::temp_dir()
                    .join(format!("isegen-hostile-{}-{nanos}", std::process::id()));
                let mut command = Command::new(env!("CARGO_BIN_EXE_isegen-router"));
                command
                    .args(["--shards", "1", "--ised"])
                    .arg(dir.join("no-such-ised"))
                    .arg("--state-dir")
                    .arg(&dir);
                (command, Some(dir))
            }
        };
        let mut child = command
            .args(["--addr", "127.0.0.1:0", "--quiet"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn daemon");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read banner");
        assert!(
            banner.contains("listening on"),
            "{binary:?}: unexpected banner {banner:?}"
        );
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .expect("banner has address")
            .to_string();
        Daemon {
            child,
            addr,
            state_dir,
        }
    }

    fn connect(&self) -> TcpStream {
        let conn = TcpStream::connect(&self.addr).expect("connect to daemon");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        conn
    }

    /// Polls `try_wait` until the child exits or `bound` passes.
    fn exits_within(&mut self, bound: Duration) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < bound {
            if self.child.try_wait().expect("try_wait").is_some() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.child.try_wait().expect("try_wait").is_some()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Writes one length-prefixed frame: `#<len>\n<payload>\n`.
fn write_prefixed(conn: &mut TcpStream, payload: &[u8]) {
    let mut frame = format!("#{}\n", payload.len()).into_bytes();
    frame.extend_from_slice(payload);
    frame.push(b'\n');
    conn.write_all(&frame).expect("send prefixed frame");
}

/// Reads one length-prefixed frame and parses its payload as JSON.
fn read_prefixed(reader: &mut BufReader<TcpStream>) -> Json {
    let mut header = String::new();
    reader.read_line(&mut header).expect("read frame header");
    let len: usize = header
        .trim()
        .strip_prefix('#')
        .expect("prefixed header")
        .parse()
        .expect("decimal length");
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).expect("read frame body");
    let mut terminator = [0u8; 1];
    reader.read_exact(&mut terminator).expect("read terminator");
    assert_eq!(terminator[0], b'\n');
    json::parse(&String::from_utf8_lossy(&payload)).expect("frame payload is JSON")
}

fn read_line_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response line");
    json::parse(line.trim()).expect("response is JSON")
}

/// A client that trickles half a request and then stalls must get a
/// structured timeout error and a closed connection — within the
/// configured deadline, not the server's patience.
#[test]
fn slowloris_request_is_cut_off_at_the_read_deadline() {
    for binary in BINARIES {
        let daemon = Daemon::spawn(binary, &["--read-deadline", "300"]);
        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));

        let t0 = Instant::now();
        conn.write_all(b"{\"op\":\"pi").expect("partial request");
        // …and never finish it.
        let response = read_line_json(&mut reader);
        let elapsed = t0.elapsed();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(response.get("kind").and_then(Json::as_str), Some("timeout"));
        assert!(
            elapsed < Duration::from_secs(3),
            "deadline enforcement took {elapsed:?}"
        );
        // The connection is done: the next read sees EOF.
        let mut rest = Vec::new();
        let n = reader.read_to_end(&mut rest).expect("drain to EOF");
        assert_eq!(n, 0, "server kept the connection open past the deadline");
    }
}

/// A connection that never sends anything is reaped by the idle timeout
/// (silently — there is no request to answer).
#[test]
fn idle_connection_is_closed_without_a_response() {
    for binary in BINARIES {
        let daemon = Daemon::spawn(binary, &["--idle-timeout", "300"]);
        let conn = daemon.connect();
        let mut reader = BufReader::new(conn);

        let t0 = Instant::now();
        let mut buf = Vec::new();
        let n = reader.read_to_end(&mut buf).expect("read until close");
        let elapsed = t0.elapsed();
        assert_eq!(n, 0, "idle close must not write anything: {buf:?}");
        assert!(
            elapsed < Duration::from_secs(3),
            "idle reap took {elapsed:?}"
        );
    }
}

/// A prefixed header declaring an absurd length is rejected up front —
/// the server must not try to buffer it.
#[test]
fn oversized_prefixed_header_is_rejected_and_closed() {
    for binary in BINARIES {
        let daemon = Daemon::spawn(binary, &[]);
        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));

        conn.write_all(b"#999999999999\n").expect("evil header");
        let response = read_prefixed(&mut reader);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("kind").and_then(Json::as_str),
            Some("protocol"),
            "{response}"
        );
        // An unread prefixed body cannot be resynchronized: connection closes.
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).expect("drain"), 0);
    }
}

/// Length-prefixed framing carries payloads the line protocol cannot:
/// pretty-printed JSON with embedded newlines.
#[test]
fn prefixed_framing_carries_multiline_requests() {
    for binary in BINARIES {
        let daemon = Daemon::spawn(binary, &[]);
        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));

        write_prefixed(&mut conn, b"{\n  \"op\":\n  \"ping\"\n}");
        let pong = read_prefixed(&mut reader);
        assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    }
}

/// One connection may interleave legacy line framing and prefixed
/// framing; each response uses its request's framing.
#[test]
fn mixed_framings_interleave_on_one_connection() {
    for binary in BINARIES {
        let daemon = Daemon::spawn(binary, &[]);
        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));

        writeln!(conn, "{{\"op\":\"ping\"}}").expect("line request");
        let pong = read_line_json(&mut reader);
        assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));

        write_prefixed(&mut conn, b"{\"op\":\"stats\"}");
        let stats = read_prefixed(&mut reader);
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        assert!(stats.get("connections").and_then(Json::as_u64).is_some());

        writeln!(conn, "{{\"op\":\"ping\"}}").expect("line request again");
        let pong = read_line_json(&mut reader);
        assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    }
}

/// The shutdown-latency bound: with several parked connections holding
/// worker threads in blocking reads, a `shutdown` request must still
/// bring the process down promptly — workers are woken by the read-half
/// close, not by waiting out poll intervals per connection.
#[test]
fn shutdown_is_prompt_under_parked_connections() {
    for binary in BINARIES {
        let mut daemon = Daemon::spawn(binary, &[]);
        // Parked connections: never send a byte, keep their workers blocked.
        let parked: Vec<TcpStream> = (0..6).map(|_| daemon.connect()).collect();

        let mut conn = daemon.connect();
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        writeln!(conn, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
        let ack = read_line_json(&mut reader);
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));

        let t0 = Instant::now();
        assert!(
            daemon.exits_within(Duration::from_secs(2)),
            "{binary:?} still alive {:?} after shutdown ack with parked connections",
            t0.elapsed()
        );
        drop(parked);
    }
}
