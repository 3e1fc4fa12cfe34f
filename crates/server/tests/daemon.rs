//! Loopback integration tests for the classification daemon: real TCP
//! sockets against a [`Server`] running in-process, covering the
//! acceptance paths of the serving subsystem — classify round-trip and
//! cache hits, keep-alive reuse and pipelining, a thousand concurrent
//! persistent connections across shards, per-shard admission shedding,
//! slow-client write timeouts, corrupt-model reload, and graceful drain
//! on shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use strudel::{Limits, Strudel, StrudelCellConfig, StrudelLineConfig};
use strudel_ml::ForestConfig;
use strudel_server::{Server, ServerConfig};

/// A verbose CSV in the shape the synthetic corpora train on: metadata
/// preamble, header, data, a derived total, and a notes line.
const SAMPLE: &str = "Crime Report 2020,,\n\
    State,2019,2020\n\
    Berlin,17,23\n\
    Hamburg,11,13\n\
    Munich,5,8\n\
    Total,33,44\n\
    Source: state police,,\n";

fn tiny_model() -> Strudel {
    let corpus = strudel_datagen::saus(&strudel_datagen::GeneratorConfig {
        n_files: 8,
        seed: 7,
        scale: 0.2,
    });
    let config = StrudelCellConfig {
        line: StrudelLineConfig {
            forest: ForestConfig::fast(12, 1),
            ..StrudelLineConfig::default()
        },
        forest: ForestConfig::fast(12, 2),
        ..StrudelCellConfig::default()
    };
    Strudel::fit(&corpus.files, &config)
}

/// A per-test scratch directory under the system temp dir.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("strudel-daemon-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A parsed HTTP response off the wire.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Render one request with explicit `Content-Length` framing. No
/// `Connection` header is added: HTTP/1.1 defaults to keep-alive, and
/// close-framed helpers append their own token via `extra`.
fn render_request(method: &str, path: &str, body: &[u8], extra: &[&str]) -> Vec<u8> {
    let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    for header in extra {
        wire.push_str(header);
        wire.push_str("\r\n");
    }
    wire.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(body);
    wire
}

fn parse_head(head: &str) -> (u16, Vec<(String, String)>) {
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers)
}

/// Read one `Connection: close` response until EOF and parse it.
fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("complete head");
    let (status, headers) = parse_head(head);
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

/// One full request/response exchange on a fresh `Connection: close`
/// connection. The whole request goes out in a single write so a
/// fast-failing server (oversized body, bad framing) can never race the
/// body write with its reset.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(&render_request(method, path, body, &["Connection: close"]))
        .expect("write request");
    read_reply(&mut stream)
}

/// One close-framed exchange whose response body may be binary (the
/// pack routes).
fn request_bytes(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(&render_request(method, path, body, &["Connection: close"]))
        .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete head");
    let head = String::from_utf8(raw[..split].to_vec()).expect("utf-8 head");
    let (status, headers) = parse_head(&head);
    (status, headers, raw[split + 4..].to_vec())
}

/// A persistent keep-alive connection: requests go out without a
/// `Connection` token (HTTP/1.1 defaults to keep-alive) and responses
/// are framed by `Content-Length`, with leftover bytes carried between
/// exchanges — the client half of the pipelining contract.
struct KeepAliveClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).expect("connect keep-alive");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        KeepAliveClient {
            stream,
            carry: Vec::new(),
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8]) {
        self.stream
            .write_all(&render_request(method, path, body, &[]))
            .expect("write keep-alive request");
    }

    /// Read exactly one `Content-Length`-framed response, keeping any
    /// surplus bytes for the next call.
    fn read_reply(&mut self) -> Reply {
        let head_end = loop {
            if let Some(at) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "EOF before the response head completed");
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(self.carry[..head_end].to_vec()).expect("utf-8 head");
        let (status, headers) = parse_head(&head);
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse().expect("numeric content-length"))
            .expect("keep-alive responses are content-length framed");
        let body_end = head_end + 4 + length;
        while self.carry.len() < body_end {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "EOF inside the response body");
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.carry[head_end + 4..body_end]).into_owned();
        self.carry.drain(..body_end);
        Reply {
            status,
            headers,
            body,
        }
    }

    /// The next read observes a server-side close (clean EOF).
    fn expect_eof(&mut self) {
        assert!(self.carry.is_empty(), "unconsumed bytes: {:?}", self.carry);
        let mut probe = [0u8; 16];
        match self.stream.read(&mut probe) {
            Ok(0) => {}
            Ok(n) => panic!("expected EOF, got {n} unexpected bytes"),
            Err(e) => panic!("expected EOF, got {e}"),
        }
    }
}

/// Pull a bare counter's value out of a Prometheus rendering.
fn counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("counter {name} missing in:\n{metrics}"))
        .parse()
        .expect("numeric counter")
}

fn config_with(limits: Limits) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        n_shards: 2,
        conns_per_shard: 32,
        cache_capacity: 64,
        limits,
        io_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

#[test]
fn classify_roundtrip_matches_one_shot_and_caches() {
    let model = tiny_model();
    let expected = model
        .try_detect_structure_bytes(SAMPLE.as_bytes(), &Limits::standard())
        .expect("one-shot detection")
        .to_json();
    let server = Server::bind(model, &config_with(Limits::standard())).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // First request: full pipeline, byte-identical to the one-shot API.
    let first = request(addr, "POST", "/classify", SAMPLE.as_bytes());
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.body, expected);
    assert_eq!(first.header("x-strudel-cache"), Some("miss"));

    // Second identical request: served from the daemon's one result
    // cache, no matter which shard accepted it.
    let second = request(addr, "POST", "/classify", SAMPLE.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.body, expected);
    assert_eq!(second.header("x-strudel-cache"), Some("hit"));

    // The hit is visible in /metrics under the classify cache family,
    // along with the scrape-time-merged stage counters.
    let metrics = request(addr, "GET", "/metrics", b"");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .body
        .contains("strudel_cache_hits_total{family=\"classify\"} 1"));
    assert!(metrics
        .body
        .contains("strudel_cache_misses_total{family=\"classify\"} 1"));
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"classify\",outcome=\"ok\"} 2"));
    assert!(metrics
        .body
        .contains("strudel_stage_seconds_total{stage=\"parse\"}"));

    let health = request(addr, "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let bye = request(addr, "POST", "/admin/shutdown", b"");
    assert_eq!(bye.status, 200);
    handle.join();
}

#[test]
fn keep_alive_connection_pipelines_and_closes_on_request() {
    let model = tiny_model();
    let expected = model
        .try_detect_structure_bytes(SAMPLE.as_bytes(), &Limits::standard())
        .expect("one-shot detection")
        .to_json();
    let server = Server::bind(model, &config_with(Limits::standard())).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Three pipelined requests in one TCP write: classify, healthz, and
    // the metrics scrape, all answered in order on the same socket.
    let mut client = KeepAliveClient::connect(addr);
    let mut wire = render_request("POST", "/classify", SAMPLE.as_bytes(), &[]);
    wire.extend_from_slice(&render_request("GET", "/healthz", b"", &[]));
    wire.extend_from_slice(&render_request("GET", "/metrics", b"", &[]));
    client.stream.write_all(&wire).expect("write pipeline");

    let classify = client.read_reply();
    assert_eq!(classify.status, 200, "body: {}", classify.body);
    assert_eq!(classify.body, expected);
    assert_eq!(classify.header("connection"), Some("keep-alive"));
    let health = client.read_reply();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    let metrics = client.read_reply();
    assert_eq!(metrics.status, 200);
    // All three exchanges rode one admitted connection.
    assert_eq!(counter(&metrics.body, "strudel_connections_total"), 1);
    assert_eq!(counter(&metrics.body, "strudel_shed_total"), 0);

    // A head trickled in byte-sized reads is carried across readiness
    // ticks until it completes.
    for piece in ["GET /he", "althz HT", "TP/1.1\r\n", "\r\n"] {
        client.stream.write_all(piece.as_bytes()).expect("trickle");
        client.stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(15));
    }
    let trickled = client.read_reply();
    assert_eq!(trickled.status, 200);
    assert_eq!(trickled.body, "ok\n");

    // A mixed-case close token ends the connection after the exchange.
    client
        .stream
        .write_all(&render_request(
            "GET",
            "/healthz",
            b"",
            &["cOnNeCtIoN: ClOsE"],
        ))
        .expect("write close request");
    let last = client.read_reply();
    assert_eq!(last.status, 200);
    assert_eq!(last.header("connection"), Some("close"));
    client.expect_eof();

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn request_cap_closes_the_connection_with_an_announcement() {
    let config = ServerConfig {
        max_requests_per_conn: 2,
        ..config_with(Limits::standard())
    };
    let server = Server::bind(tiny_model(), &config).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr);
    client.send("GET", "/healthz", b"");
    let first = client.read_reply();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    client.send("GET", "/healthz", b"");
    let second = client.read_reply();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("connection"), Some("close"));
    client.expect_eof();

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn thousand_keep_alive_connections_across_shards_serve_identical_json() {
    let model = tiny_model();
    let expected = model
        .try_detect_structure_bytes(SAMPLE.as_bytes(), &Limits::standard())
        .expect("one-shot detection")
        .to_json();
    // Two shards with headroom for a thousand persistent connections
    // between them; admission must never shed.
    let config = ServerConfig {
        n_shards: 2,
        conns_per_shard: 1024,
        ..config_with(Limits::standard())
    };
    let server = Server::bind(model, &config).expect("bind");
    assert!(server.n_shards() >= 2, "the scale test needs >= 2 shards");
    let handle = server.spawn();
    let addr = handle.addr();

    // Warm the result cache so the thousand-connection rounds measure
    // the connection plane, not a thousand classifications.
    assert_eq!(
        request(addr, "POST", "/classify", SAMPLE.as_bytes()).status,
        200
    );

    let mut clients: Vec<KeepAliveClient> =
        (0..1000).map(|_| KeepAliveClient::connect(addr)).collect();
    for round in 0..2 {
        // All thousand requests go out before any response is read, so
        // the full set is concurrently in flight across the shards.
        for client in clients.iter_mut() {
            client.send("POST", "/classify", SAMPLE.as_bytes());
        }
        for (i, client) in clients.iter_mut().enumerate() {
            let reply = client.read_reply();
            assert_eq!(reply.status, 200, "round {round}, connection {i}");
            assert_eq!(
                reply.body, expected,
                "round {round}, connection {i}: served JSON must be \
                 byte-identical to the one-shot API"
            );
        }
    }

    let metrics = request(addr, "GET", "/metrics", b"");
    assert_eq!(counter(&metrics.body, "strudel_shed_total"), 0);
    assert!(counter(&metrics.body, "strudel_connections_total") >= 1001);
    drop(clients);

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn oversized_body_is_rejected_with_typed_413() {
    let mut limits = Limits::standard();
    limits.max_input_bytes = Some(64);
    let server = Server::bind(tiny_model(), &config_with(limits)).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let big = vec![b'x'; 200];
    let reply = request(addr, "POST", "/classify", &big);
    assert_eq!(reply.status, 413, "body: {}", reply.body);
    assert!(reply.body.contains("\"category\": \"limit\""));
    assert!(reply.body.contains("\"limit\": \"input_bytes\""));

    // The rejection happened before the body was read; serving continues.
    let small = request(addr, "POST", "/classify", b"a,b\n1,2\n");
    assert_eq!(small.status, 200);

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn budget_overflow_sheds_with_503_and_recovers() {
    // One shard, one connection slot: the first admitted keep-alive
    // connection fills the budget, everything after it is shed.
    let config = ServerConfig {
        n_shards: 1,
        conns_per_shard: 1,
        ..config_with(Limits::standard())
    };
    let server = Server::bind(tiny_model(), &config).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let mut holder = KeepAliveClient::connect(addr);
    holder.send("GET", "/healthz", b"");
    assert_eq!(holder.read_reply().status, 200);

    // A keep-alive burst against the full budget: every connection is
    // refused promptly with 503 + Retry-After + an explicit
    // `Connection: close` so the client does not wait for a second
    // exchange that will never come.
    let shed_started = Instant::now();
    for i in 0..4 {
        let mut stream = TcpStream::connect(addr).expect("connect burst");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream
            .write_all(&render_request(
                "GET",
                "/healthz",
                b"",
                &["Connection: keep-alive"],
            ))
            .expect("write burst");
        let reply = read_reply(&mut stream);
        assert_eq!(reply.status, 503, "burst connection {i}");
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.header("connection"), Some("close"));
        assert!(reply.body.contains("\"category\": \"overload\""));
    }
    // Shedding happens on transient threads off the shard loop; even
    // under a generous bound, four sheds must not take seconds.
    assert!(
        shed_started.elapsed() < Duration::from_secs(5),
        "shedding took {:?}",
        shed_started.elapsed()
    );

    // The admitted connection kept serving throughout — scrape the
    // metrics through it, since any fresh connection would be shed.
    holder.send("GET", "/metrics", b"");
    let metrics = holder.read_reply();
    assert_eq!(metrics.status, 200);
    assert_eq!(counter(&metrics.body, "strudel_connections_total"), 1);
    assert!(counter(&metrics.body, "strudel_shed_total") >= 4);

    // Releasing the slot restores admission (the shard notices the
    // hangup on its next readiness tick).
    drop(holder);
    let recovered = Instant::now();
    loop {
        let mut stream = TcpStream::connect(addr).expect("connect recovery");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream
            .write_all(&render_request(
                "GET",
                "/healthz",
                b"",
                &["Connection: close"],
            ))
            .expect("write recovery");
        if read_reply(&mut stream).status == 200 {
            break;
        }
        assert!(
            recovered.elapsed() < Duration::from_secs(10),
            "admission never recovered after the holder closed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

/// A receiver that stops draining cannot pin a shard: response writes
/// run under the socket write timeout, and on expiry the connection is
/// dropped mid-body while the shard moves on.
#[cfg(target_os = "linux")]
#[test]
fn slow_client_write_times_out_without_wedging_the_shard() {
    use std::os::fd::FromRawFd;
    use std::os::raw::{c_int, c_uint};

    /// `struct sockaddr_in`, plus the socket calls needed to shrink
    /// `SO_RCVBUF` *before* connecting — after the handshake the window
    /// is already advertised and the kernel will not shrink it.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_int,
            len: c_uint,
        ) -> c_int;
        fn connect(fd: c_int, addr: *const SockAddrIn, len: c_uint) -> c_int;
    }
    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;

    fn connect_with_tiny_rcvbuf(addr: SocketAddr) -> TcpStream {
        let SocketAddr::V4(v4) = addr else {
            panic!("loopback test address is v4");
        };
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM, 0);
            assert!(fd >= 0, "socket() failed");
            // Ask for the minimum; the kernel clamps to its floor
            // (~2 KiB), keeping the advertised window tiny.
            let val: c_int = 1;
            assert_eq!(setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &val, 4), 0);
            let sa = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            };
            assert_eq!(
                connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as c_uint),
                0,
                "connect() failed"
            );
            TcpStream::from_raw_fd(fd)
        }
    }

    // One shard with a sub-second write timeout, and an input whose
    // structure JSON (one line-class entry per row) dwarfs what the
    // server-side send buffer plus the shrunken client window can hold.
    let config = ServerConfig {
        n_shards: 1,
        io_timeout: Duration::from_millis(700),
        ..config_with(Limits::standard())
    };
    let server = Server::bind(tiny_model(), &config).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();
    let mut big = String::from("Region,2019,2020\n");
    for i in 0..40_000 {
        big.push_str(&format!("R{i},{},{}\n", i % 97, i % 89));
    }

    let mut slow = connect_with_tiny_rcvbuf(addr);
    slow.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    slow.write_all(&render_request(
        "POST",
        "/classify",
        big.as_bytes(),
        &["Connection: close"],
    ))
    .expect("write request");

    // Wait for the first response byte (classification done, the write
    // has begun), then stall long past the write timeout before
    // draining — the server must have given up mid-body.
    let mut first = [0u8; 1];
    assert_eq!(slow.read(&mut first).expect("first response byte"), 1);
    std::thread::sleep(Duration::from_millis(2500));
    let mut rest = Vec::new();
    let complete = match slow.read_to_end(&mut rest) {
        Err(_) => false, // reset mid-transfer: certainly incomplete
        Ok(_) => {
            let raw = [&first[..], &rest[..]].concat();
            let text = String::from_utf8_lossy(&raw).into_owned();
            match text.split_once("\r\n\r\n") {
                None => false,
                Some((head, body)) => {
                    let (_, headers) = parse_head(head);
                    let declared: usize = headers
                        .iter()
                        .find(|(n, _)| n == "content-length")
                        .map(|(_, v)| v.parse().expect("numeric content-length"))
                        .expect("content-length in head");
                    body.len() >= declared
                }
            }
        }
    };
    assert!(
        !complete,
        "the stalled receiver got the whole response; the write timeout never fired"
    );

    // The shard shrugged the stalled writer off and keeps serving.
    let health = request(addr, "GET", "/healthz", b"");
    assert_eq!(health.status, 200);

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn corrupt_reload_is_rejected_and_old_model_keeps_serving() {
    let dir = scratch("reload");
    let good = dir.join("good.strudel");
    let corrupt = dir.join("corrupt.strudel");
    tiny_model().save(&good).expect("save model");
    std::fs::write(&corrupt, b"STRUDEL?not a model at all").expect("write corrupt file");

    let model = Strudel::load(&good).expect("load model");
    let expected = model
        .try_detect_structure_bytes(SAMPLE.as_bytes(), &Limits::standard())
        .expect("one-shot detection")
        .to_json();
    let config = ServerConfig {
        model_path: Some(good.clone()),
        ..config_with(Limits::standard())
    };
    let server = Server::bind(model, &config).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Warm the cache so we can observe the reload clearing it.
    let first = request(addr, "POST", "/classify", SAMPLE.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-strudel-cache"), Some("miss"));

    // A corrupt file is rejected during validation, before the swap.
    let bad = request(
        addr,
        "POST",
        "/admin/reload",
        corrupt.display().to_string().as_bytes(),
    );
    assert_eq!(bad.status, 422, "body: {}", bad.body);
    assert!(bad.body.contains("\"category\": \"model\""));

    // The old model (and its warm cache) keeps serving.
    let after = request(addr, "POST", "/classify", SAMPLE.as_bytes());
    assert_eq!(after.status, 200);
    assert_eq!(after.body, expected);
    assert_eq!(after.header("x-strudel-cache"), Some("hit"));

    // Reloading without a body falls back to the recorded model path and
    // succeeds — which must invalidate every shard's result cache.
    let ok = request(addr, "POST", "/admin/reload", b"");
    assert_eq!(ok.status, 200, "body: {}", ok.body);
    assert!(ok.body.contains("\"reloaded\": true"));
    let refreshed = request(addr, "POST", "/classify", SAMPLE.as_bytes());
    assert_eq!(refreshed.status, 200);
    assert_eq!(refreshed.body, expected);
    assert_eq!(refreshed.header("x-strudel-cache"), Some("miss"));

    let metrics = request(addr, "GET", "/metrics", b"");
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"reload\",outcome=\"error\"} 1"));
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"reload\",outcome=\"ok\"} 1"));

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decode a chunked transfer-encoded response body.
fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.split(';').next().unwrap().trim(), 16)
            .expect("hex chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&after[..size]);
        rest = &after[size + 2..]; // past the data and its CRLF
    }
    out
}

/// One streaming exchange: the body goes out with chunked transfer
/// encoding (mixed-case token — the grammar is case-insensitive), split
/// into `pieces` chunks. A write error mid-upload means the server
/// already answered (for instance a mid-stream limit rejection), so the
/// remaining chunks are abandoned and the response read as usual.
fn stream_request(addr: SocketAddr, body: &[u8], pieces: usize) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(
            b"POST /classify/stream HTTP/1.1\r\nHost: localhost\r\n\
              Transfer-Encoding: Chunked\r\n\r\n",
        )
        .expect("write head");
    let step = body.len().div_ceil(pieces.max(1)).max(1);
    let mut aborted = false;
    for piece in body.chunks(step) {
        let mut frame = format!("{:x}\r\n", piece.len()).into_bytes();
        frame.extend_from_slice(piece);
        frame.extend_from_slice(b"\r\n");
        if stream.write_all(&frame).is_err() {
            aborted = true;
            break;
        }
    }
    if !aborted {
        let _ = stream.write_all(b"0\r\n\r\n");
    }
    read_reply(&mut stream)
}

/// Compact pretty-printed canonical JSON the way the server does when
/// embedding it in an NDJSON event line.
fn compact(pretty: &str) -> String {
    pretty.lines().map(str::trim_start).collect()
}

#[test]
fn streaming_classify_emits_window_events_with_whole_file_parity() {
    let model = tiny_model();
    let expected = model
        .try_detect_structure_bytes(SAMPLE.as_bytes(), &Limits::standard())
        .expect("one-shot detection")
        .to_json();
    let server = Server::bind(model, &config_with(Limits::standard())).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Chunked request in, chunked NDJSON out. SAMPLE fits one window,
    // so the single event carries the whole-file canonical structure
    // JSON, compacted onto the event line.
    let reply = stream_request(addr, SAMPLE.as_bytes(), 3);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"));
    assert_eq!(reply.header("content-type"), Some("application/x-ndjson"));
    let ndjson = dechunk(&reply.body);
    let lines: Vec<&str> = ndjson.lines().collect();
    assert_eq!(lines.len(), 2, "events:\n{ndjson}");
    let event = format!(
        "{{\"window\": 0, \"first_row\": 0, \"start_byte\": 0, \"end_byte\": {}, \
         \"structure\": {}}}",
        SAMPLE.len(),
        compact(&expected)
    );
    assert_eq!(lines[0], event);
    assert!(
        lines[1].starts_with("{\"done\": true, \"dialect\": {\"delimiter\": \",\""),
        "summary: {}",
        lines[1]
    );
    assert!(lines[1].contains("\"n_windows\": 1"));
    assert!(lines[1].contains(&format!("\"total_bytes\": {}", SAMPLE.len())));

    // A Content-Length framed body streams identically.
    let plain = request(addr, "POST", "/classify/stream", SAMPLE.as_bytes());
    assert_eq!(plain.status, 200);
    assert_eq!(dechunk(&plain.body), ndjson);

    // Chunked transfer encoding stays refused on every other route.
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    refused
        .write_all(
            b"POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              4\r\na,b\n\r\n0\r\n\r\n",
        )
        .expect("write chunked one-shot");
    assert_eq!(read_reply(&mut refused).status, 501);

    // Wrong method on the streaming route is a 405, not a 404.
    assert_eq!(request(addr, "GET", "/classify/stream", b"").status, 405);

    // Both exchanges and the stream stage land in /metrics.
    let metrics = request(addr, "GET", "/metrics", b"");
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"classify_stream\",outcome=\"ok\"} 2"));
    assert!(metrics
        .body
        .contains("strudel_stage_seconds_total{stage=\"stream\"}"));
    assert_eq!(counter(&metrics.body, "strudel_stream_windows_total"), 2);

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn streaming_classify_emits_multiple_windows_under_a_small_window_config() {
    // Six stacked tables, each closed by a blank line — the same
    // fixture shape the core streaming tests tile into windows.
    let mut text = String::new();
    for t in 0..6 {
        text.push_str(&format!("Table {t} about crime,,\n"));
        text.push_str("State,2019,2020\n");
        for r in 0..8 {
            text.push_str(&format!("City{r},{},{}\n", r + t, r * 2 + t));
        }
        text.push_str("Total,29,57\n\n");
    }
    let config = ServerConfig {
        stream: strudel::StreamConfig {
            window_rows: 8,
            window_bytes: 1 << 20,
            prefix_bytes: 32,
            ..strudel::StreamConfig::default()
        },
        ..config_with(Limits::standard())
    };
    let server = Server::bind(tiny_model(), &config).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let reply = stream_request(addr, text.as_bytes(), 7);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let ndjson = dechunk(&reply.body);
    let lines: Vec<&str> = ndjson.lines().collect();
    assert!(lines.len() > 2, "expected several windows:\n{ndjson}");
    for (i, line) in lines[..lines.len() - 1].iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"window\": {i}, ")),
            "event {i}: {line}"
        );
        assert!(line.contains("\"structure\": {\"dialect\": "));
    }
    let summary = lines.last().unwrap();
    assert!(summary.contains("\"done\": true"), "summary: {summary}");
    assert!(summary.contains(&format!("\"n_windows\": {}", lines.len() - 1)));
    assert!(summary.contains(&format!("\"total_bytes\": {}", text.len())));

    // A trailing invalid byte, in the chunk that closes every window or
    // in a later one: the windows closed before it go out either way,
    // and the error is the final event line.
    let bad = [text.as_bytes(), b"a,\xFFb\n"].concat();
    let events = |pieces| {
        let reply = stream_request(addr, &bad, pieces);
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        dechunk(&reply.body)
    };
    let one_chunk = events(1);
    let (windows, error) = one_chunk.trim_end().rsplit_once('\n').expect("events");
    assert!(windows.starts_with("{\"window\": 0, "), "{one_chunk}");
    assert!(error.contains("invalid UTF-8"), "{error}");
    assert_eq!(events(7), one_chunk);

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn streaming_limit_error_before_first_window_is_a_typed_413() {
    let mut limits = Limits::standard();
    limits.max_input_bytes = Some(64);
    let server = Server::bind(tiny_model(), &config_with(limits)).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // The body exceeds the (per-window) input cap before any window
    // closes, so no response head has been committed yet and the error
    // arrives exactly like the one-shot route's: a typed 413.
    let big = vec![b'x'; 200];
    let reply = stream_request(addr, &big, 4);
    assert_eq!(reply.status, 413, "body: {}", reply.body);
    assert!(reply.body.contains("\"category\": \"limit\""));
    assert!(reply.body.contains("\"limit\": \"input_bytes\""));

    let metrics = request(addr, "GET", "/metrics", b"");
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"classify_stream\",outcome=\"error\"} 1"));

    // Serving continues.
    let small = request(addr, "POST", "/classify/stream", b"a,b\n1,2\n");
    assert_eq!(small.status, 200);

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn pack_endpoints_roundtrip_and_selectively_extract() {
    let server = Server::bind(tiny_model(), &config_with(Limits::standard())).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();
    let header = |headers: &[(String, String)], name: &str| -> Option<String> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };

    // POST /pack builds the container and returns its content-hash key.
    let expected_key = strudel_server::CacheKey::of(SAMPLE.as_bytes()).to_hex();
    let (status, headers, container) = request_bytes(addr, "POST", "/pack", SAMPLE.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type").as_deref(),
        Some("application/octet-stream")
    );
    assert_eq!(
        header(&headers, "x-strudel-pack-key").as_deref(),
        Some(expected_key.as_str())
    );
    assert_eq!(header(&headers, "x-strudel-cache").as_deref(), Some("miss"));
    assert!(container.starts_with(b"STRUPAK1"), "container magic");
    assert_eq!(
        strudel_pack::unpack_bytes(&container).expect("lossless container"),
        SAMPLE.as_bytes()
    );

    // A repeat POST is served from the pack cache.
    let (status, headers, again) = request_bytes(addr, "POST", "/pack", SAMPLE.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-strudel-cache").as_deref(), Some("hit"));
    assert_eq!(again, container);

    // GET /pack/<key> fetches the cached container without resending
    // the input, reporting the cache outcome in its headers.
    let (status, headers, fetched) =
        request_bytes(addr, "GET", &format!("/pack/{expected_key}"), b"");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-strudel-cache").as_deref(), Some("hit"));
    assert_eq!(fetched, container);

    // ?table=0 extracts one table: every emitted line is a line of the
    // original sample.
    let (status, headers, table) =
        request_bytes(addr, "GET", &format!("/pack/{expected_key}?table=0"), b"");
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&table));
    assert_eq!(
        header(&headers, "content-type").as_deref(),
        Some("text/csv; charset=utf-8")
    );
    let table = String::from_utf8(table).expect("utf-8 table");
    assert!(!table.trim().is_empty());
    for line in table.lines() {
        assert!(
            SAMPLE.lines().any(|l| l == line),
            "extracted line {line:?} not in the sample"
        );
    }

    // ?column=NAME serves one column's parsed values, one per line —
    // matched against the same extraction through the library API.
    let mut reader = strudel_pack::PackReader::open(&container).expect("open container");
    let name = reader.tables()[0].columns[0].clone();
    let expected: String = reader
        .extract_column(0, 0)
        .expect("library extraction")
        .into_iter()
        .map(|v| v.unwrap_or_default() + "\n")
        .collect();
    let (status, _, values) = request_bytes(
        addr,
        "GET",
        &format!("/pack/{expected_key}?table=0&column={name}"),
        b"",
    );
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(values).expect("utf-8 values"), expected);

    // Unknown column, unknown key, malformed key, bad selector, wrong
    // method: all typed refusals, never 500s. An unknown but well-formed
    // key reports the cache miss that produced its 404.
    let (status, _, body) = request_bytes(
        addr,
        "GET",
        &format!("/pack/{expected_key}?column=no+such+column"),
        b"",
    );
    assert_eq!(status, 404);
    let body = String::from_utf8_lossy(&body).into_owned();
    assert!(body.contains("no column named"), "body: {body}");
    assert!(body.contains("no such column"), "body: {body}");
    let (status, headers, _) =
        request_bytes(addr, "GET", &format!("/pack/{}", "0".repeat(48)), b"");
    assert_eq!(status, 404);
    assert_eq!(header(&headers, "x-strudel-cache").as_deref(), Some("miss"));
    let (status, _, _) = request_bytes(addr, "GET", "/pack/not-a-key", b"");
    assert_eq!(status, 404);
    let (status, _, _) = request_bytes(
        addr,
        "GET",
        &format!("/pack/{expected_key}?table=minus-one"),
        b"",
    );
    assert_eq!(status, 400);
    let (status, _, _) = request_bytes(addr, "POST", &format!("/pack/{expected_key}"), b"");
    assert_eq!(status, 405);
    let (status, _, _) = request_bytes(addr, "GET", "/pack", b"");
    assert_eq!(status, 405);

    // The exchanges, the pack/unpack stages, and both counters of the
    // pack cache family land in /metrics.
    let metrics = request(addr, "GET", "/metrics", b"");
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"pack\",outcome=\"ok\"} 2"));
    assert!(metrics
        .body
        .contains("strudel_requests_total{endpoint=\"unpack\",outcome=\"ok\"} 3"));
    assert!(metrics
        .body
        .contains("strudel_cache_hits_total{family=\"pack\"} 6"));
    assert!(metrics
        .body
        .contains("strudel_cache_misses_total{family=\"pack\"} 2"));
    assert!(metrics
        .body
        .contains("strudel_stage_seconds_total{stage=\"pack\"}"));
    assert!(metrics
        .body
        .contains("strudel_stage_seconds_total{stage=\"unpack\"}"));

    request(addr, "POST", "/admin/shutdown", b"");
    handle.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_request() {
    let server = Server::bind(tiny_model(), &config_with(Limits::standard())).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // Start a classify request but hold back the last bytes of the body,
    // so it sits half-buffered on its shard when shutdown arrives.
    let body = SAMPLE.as_bytes();
    let split = body.len() - 10;
    let mut in_flight = TcpStream::connect(addr).expect("connect");
    in_flight
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    in_flight
        .write_all(
            format!(
                "POST /classify HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write head");
    in_flight.write_all(&body[..split]).expect("write partial");
    std::thread::sleep(Duration::from_millis(100));

    let bye = request(addr, "POST", "/admin/shutdown", b"");
    assert_eq!(bye.status, 200);
    assert!(bye.body.contains("\"shutting_down\": true"));

    // Deliver the rest: the in-flight request must still complete.
    in_flight.write_all(&body[split..]).expect("write rest");
    let reply = read_reply(&mut in_flight);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(reply.body.contains("\"lines\""));

    // And the server exits once drained.
    handle.join();
}

#[test]
fn graceful_shutdown_completes_a_buffered_pipeline() {
    let model = tiny_model();
    let expected = model
        .try_detect_structure_bytes(SAMPLE.as_bytes(), &Limits::standard())
        .expect("one-shot detection")
        .to_json();
    let server = Server::bind(model, &config_with(Limits::standard())).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    // One complete request plus a second missing its final byte, in one
    // keep-alive pipeline.
    let mut client = KeepAliveClient::connect(addr);
    let mut wire = render_request("POST", "/classify", SAMPLE.as_bytes(), &[]);
    let second = render_request("POST", "/classify", SAMPLE.as_bytes(), &[]);
    wire.extend_from_slice(&second[..second.len() - 1]);
    client.stream.write_all(&wire).expect("write pipeline");
    let first = client.read_reply();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, expected);

    // Shutdown arrives while the second request sits half-buffered: the
    // drain must keep the connection until its pipeline finishes.
    let bye = request(addr, "POST", "/admin/shutdown", b"");
    assert_eq!(bye.status, 200);
    client
        .stream
        .write_all(&second[second.len() - 1..])
        .expect("write the final byte");
    let reply = client.read_reply();
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(reply.body, expected);
    client.expect_eof();

    handle.join();
}
