//! The shard-per-core connection plane: one shared-nothing readiness
//! loop per shard.
//!
//! Each shard thread owns a dup of the nonblocking listener plus its
//! own set of accepted connections, and drives both with `poll(2)`
//! (declared directly against the platform C library — the workspace
//! stays dependency-free). The loop per tick:
//!
//! 1. **Poll** the listener and every owned connection for readability,
//!    with a bounded tick so the shutdown flag and idle sweep are
//!    checked even on a quiet shard.
//! 2. **Accept burst**: drain the listener until `WouldBlock`. An
//!    accept within the shard's connection budget joins the owned set
//!    (nonblocking, read/write timeouts armed); one beyond it is shed
//!    on a transient thread with `503` + `Connection: close`
//!    ([`crate::server::shed_connection`]) so the loop never stalls on
//!    a slow shed client.
//! 3. **Service** each readable connection: pull whatever the wire
//!    offers into the connection's accumulation buffer, then serve
//!    *every* complete buffered request back-to-back — that is
//!    keep-alive pipelining; requests that arrived in one TCP segment
//!    are answered in order without waiting for more readiness.
//!    Response writes flip the socket to blocking mode (bounded by the
//!    write timeout, so a stalled reader cannot pin the shard) and
//!    flip it back.
//! 4. **Sweep**: close connections that hit EOF, erred, finished a
//!    `Connection: close` exchange, exceeded the per-connection
//!    request cap, or idled past the keep-alive timeout.
//!
//! No lock is taken on the accept path: admission is a shard-local
//! counter (the size of the owned set). Serving a request touches the
//! model `RwLock<Arc>` snapshot, the shutdown flag, and the daemon's
//! one result cache, pack cache and timing sink, each behind its own
//! mutex held for a lookup, an insert or a merge.
//!
//! ## Drain protocol
//!
//! When the shutdown flag flips, the shard stops polling (and thus
//! accepting from) the listener, serves every request already buffered
//! on its connections — in-flight pipelines complete — and closes each
//! connection once its buffer drains. The shard exits when it owns no
//! connections; [`crate::Server::run`] joins all shards.

use crate::http::{
    body_length, parse_request_head, HttpError, Request, Response, FALLBACK_MAX_BODY,
};
use crate::metrics::Registry;
use crate::server::{
    classify_stream, error_body, respond_framing_error, route, shed_connection, Shared,
};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll timeout per readiness tick: the upper bound on how long a
/// shard takes to notice the shutdown flag or run its idle sweep.
const TICK: Duration = Duration::from_millis(100);

/// Bytes per nonblocking read.
const READ_CHUNK: usize = 16 * 1024;

/// Cap on the kernel send buffer of an accepted socket (the kernel
/// doubles the requested value for bookkeeping overhead). Linux
/// autotunes loopback send buffers into the megabytes — loopback MSS
/// is ~64 KiB — which would let a reader that stops draining absorb an
/// entire large response into kernel memory without the write timeout
/// ever engaging. The cap keeps per-connection kernel memory bounded,
/// so the write timeout, not the autotuner, is what bounds a slow
/// client's hold on a shard.
#[cfg(target_os = "linux")]
const SNDBUF_CAP: i32 = 64 * 1024;

#[cfg(unix)]
mod sys {
    //! Readiness via `poll(2)`, declared `extern "C"` against the
    //! platform C library every Rust binary already links — no crate
    //! dependency needed.
    use std::os::raw::{c_int, c_ulong};

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// There is data to read (POSIX value, identical across the Unixes
    /// we build on).
    pub const POLLIN: i16 = 0x001;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Block until any fd is ready or the timeout passes; `revents` is
    /// filled in for every entry. A negative return (EINTR and friends)
    /// is reported as zero ready fds — the caller just ticks again.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        if fds.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(1) as u64));
            return 0;
        }
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms).max(0) }
    }

    /// Cap the socket's kernel send buffer (Linux option values; a
    /// failure is ignored — the cap is a resource bound, not a
    /// correctness requirement).
    #[cfg(target_os = "linux")]
    pub fn cap_sndbuf(fd: c_int, bytes: c_int) {
        const SOL_SOCKET: c_int = 1;
        const SO_SNDBUF: c_int = 7;
        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_int,
                len: u32,
            ) -> c_int;
        }
        unsafe {
            let _ = setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, 4);
        }
    }
}

/// Readiness verdict of one poll tick.
struct Readiness {
    /// The listener has a connection to accept.
    listener: bool,
    /// Indexes (into the shard's connection list at poll time) with
    /// bytes — or EOF/errors — to read.
    conns: Vec<usize>,
}

/// One tick of readiness. `revents` beyond `POLLIN` (HUP, ERR) also
/// count as readable: the subsequent read observes the EOF or error
/// and the connection is closed in the same sweep.
#[cfg(unix)]
fn wait_ready(listener: Option<&TcpListener>, conns: &[Conn]) -> Readiness {
    use std::os::unix::io::AsRawFd;
    let mut fds = Vec::with_capacity(conns.len() + 1);
    if let Some(listener) = listener {
        fds.push(sys::PollFd {
            fd: listener.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
    }
    for conn in conns {
        fds.push(sys::PollFd {
            fd: conn.stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
    }
    let n_ready = sys::wait(&mut fds, TICK.as_millis() as i32);
    let mut ready = Readiness {
        listener: false,
        conns: Vec::new(),
    };
    if n_ready <= 0 {
        return ready;
    }
    let mut fds = fds.iter();
    if listener.is_some() {
        ready.listener = fds.next().is_some_and(|fd| fd.revents != 0);
    }
    for (i, fd) in fds.enumerate() {
        if fd.revents != 0 {
            ready.conns.push(i);
        }
    }
    ready
}

/// Degraded portable fallback: no readiness notification — back off
/// briefly, then report everything ready and let the nonblocking reads
/// sort out which sockets actually have bytes.
#[cfg(not(unix))]
fn wait_ready(listener: Option<&TcpListener>, conns: &[Conn]) -> Readiness {
    std::thread::sleep(Duration::from_millis(5));
    Readiness {
        listener: listener.is_some(),
        conns: (0..conns.len()).collect(),
    }
}

/// One accepted connection owned by a shard.
struct Conn {
    stream: TcpStream,
    /// Wire bytes accumulated but not yet consumed by a parsed request
    /// — the carry between reads and between pipelined requests.
    buf: Vec<u8>,
    /// Requests served on this connection, against the per-connection
    /// cap.
    served: usize,
    /// Last byte activity (read or write), for the idle sweep.
    last_activity: Instant,
}

/// The shard loop: poll, accept, serve, sweep — until shutdown drains
/// the shard empty.
pub(crate) fn run_shard(shared: &Arc<Shared>, listener: TcpListener) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let draining = shared.shutting_down();
        if draining && conns.is_empty() {
            break;
        }
        let ready = wait_ready(if draining { None } else { Some(&listener) }, &conns);
        if ready.listener {
            accept_burst(shared, &listener, &mut conns);
        }
        // `accept_burst` only appends, so poll-time indexes stay valid.
        let mut close = vec![false; conns.len()];
        for &i in &ready.conns {
            if !service(shared, &mut conns[i]) {
                close[i] = true;
            }
        }
        let now = Instant::now();
        let draining = shared.shutting_down();
        conns = conns
            .into_iter()
            .enumerate()
            .filter_map(|(i, conn)| {
                let idle = now.duration_since(conn.last_activity) > shared.idle_timeout;
                // Drain: a connection with nothing buffered has no
                // in-flight pipeline left to finish.
                let drained = draining && conn.buf.is_empty();
                (!close.get(i).copied().unwrap_or(false) && !idle && !drained).then_some(conn)
            })
            .collect();
    }
}

/// Drain the listener: admit accepted connections up to the shard's
/// budget, shed the rest. The listener is shared (dup'ed) across
/// shards, so a `WouldBlock` may simply mean a sibling won the race —
/// either way the burst is over.
fn accept_burst(shared: &Arc<Shared>, listener: &TcpListener, conns: &mut Vec<Conn>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        };
        if conns.len() >= shared.conns_per_shard {
            Registry::bump(&shared.registry.shed);
            // A transient thread does the lingering close so the shard
            // returns to its admitted connections in microseconds even
            // when shed clients are slow to read.
            std::thread::spawn(move || shed_connection(stream));
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_read_timeout(Some(shared.io_timeout));
        let _ = stream.set_write_timeout(Some(shared.io_timeout));
        // Responses must leave as soon as they are written; Nagle would
        // hold a response behind the previous exchange's delayed ACK on
        // a persistent connection.
        let _ = stream.set_nodelay(true);
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::io::AsRawFd;
            sys::cap_sndbuf(stream.as_raw_fd(), SNDBUF_CAP);
        }
        Registry::bump(&shared.registry.connections);
        conns.push(Conn {
            stream,
            buf: Vec::new(),
            served: 0,
            last_activity: Instant::now(),
        });
    }
}

/// What the buffer yields next.
enum NextRequest {
    /// No complete request buffered yet; poll for more bytes.
    NeedMore,
    /// A complete non-streaming request, consumed from the buffer.
    Ready(Request),
    /// A streaming-classify head; the rest of the buffer is the body
    /// prefix and the connection leaves the nonblocking loop.
    Stream(Request, Vec<u8>),
}

/// Pump one readable connection: read whatever the wire offers, then
/// serve every complete buffered request — the pipelining loop.
/// Returns `false` when the connection must close.
fn service(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    let mut saw_eof = false;
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    let max_body = shared.limits.max_input_bytes.unwrap_or(FALLBACK_MAX_BODY);
    loop {
        match next_request(conn, max_body) {
            Ok(NextRequest::NeedMore) => break,
            Ok(NextRequest::Ready(request)) => {
                if !serve_request(shared, conn, &request) {
                    return false;
                }
            }
            Ok(NextRequest::Stream(head, leftover)) => {
                // The streaming route reads its body incrementally off
                // the socket (chunked uploads mid-flight), so it runs
                // in blocking mode, bounded by the read timeout; its
                // chunked response announces `Connection: close`.
                if conn.stream.set_nonblocking(false).is_ok() {
                    classify_stream(shared, &head, leftover, &mut conn.stream);
                }
                return false;
            }
            Err(error) => {
                // Framing failures (bad head, oversized body, chunked
                // on a strict route) answer once and close — the byte
                // stream past the error is not trustworthy framing.
                if conn.stream.set_nonblocking(false).is_ok() {
                    respond_framing_error(shared, &mut conn.stream, error);
                }
                return false;
            }
        }
    }
    // EOF after the buffered pipeline is served is the client's normal
    // keep-alive hangup; any half-received request bytes have nobody
    // left to answer.
    !saw_eof
}

/// Parse the next complete request out of the connection's buffer,
/// consuming exactly its bytes (the remainder is the next pipelined
/// request). Every route but `/classify/stream` is framed by a strict
/// `Content-Length` ([`body_length`]); that route accepts chunked
/// bodies and is handed the raw buffer remainder instead.
fn next_request(conn: &mut Conn, max_body: u64) -> Result<NextRequest, HttpError> {
    let Some((mut head, body_start)) = parse_request_head(&conn.buf)? else {
        return Ok(NextRequest::NeedMore);
    };
    if head.method == "POST" && head.path == "/classify/stream" {
        let leftover = conn.buf.split_off(body_start);
        conn.buf.clear();
        return Ok(NextRequest::Stream(head, leftover));
    }
    let declared = body_length(&head, false, max_body)?
        .expect("a route that does not speak chunked gets a length");
    let declared = declared as usize;
    if conn.buf.len() < body_start + declared {
        return Ok(NextRequest::NeedMore);
    }
    head.body = conn.buf[body_start..body_start + declared].to_vec();
    conn.buf.drain(..body_start + declared);
    Ok(NextRequest::Ready(head))
}

/// Route one request and write its response, deciding whether the
/// connection persists. Returns `false` when it must close (client
/// asked, cap hit, write failed, or the daemon is shutting down).
fn serve_request(shared: &Arc<Shared>, conn: &mut Conn, request: &Request) -> bool {
    let routed = catch_unwind(AssertUnwindSafe(|| route(shared, request)));
    let (response, shutdown) = routed.unwrap_or_else(|_| {
        Registry::bump(&shared.registry.http_err);
        (
            Response::json(500, error_body("panic while routing", "internal", None)),
            false,
        )
    });
    conn.served += 1;
    // Draining does not force `close` here: requests already buffered
    // on the connection (the in-flight pipeline) are still served, and
    // the sweep closes the connection once its buffer is empty.
    let keep = request.keep_alive() && conn.served < shared.max_requests_per_conn && !shutdown;
    let written = write_response(conn, &response, keep);
    if shutdown {
        shared.initiate_shutdown();
    }
    written && keep
}

/// Write a response in blocking mode — bounded by the socket's write
/// timeout, so a reader that stops draining cannot pin the shard —
/// then restore nonblocking mode. `false` on any failure (the
/// connection is then closed, which is the only safe state after a
/// partial write).
fn write_response(conn: &mut Conn, response: &Response, keep_alive: bool) -> bool {
    if conn.stream.set_nonblocking(false).is_err() {
        return false;
    }
    let written = response.write_to_conn(&mut conn.stream, keep_alive);
    let restored = conn.stream.set_nonblocking(true);
    conn.last_activity = Instant::now();
    written.is_ok() && restored.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A connected socket pair for driving `next_request` without a
    /// running server.
    fn conn_with(buf: &[u8]) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (
            Conn {
                stream,
                buf: buf.to_vec(),
                served: 0,
                last_activity: Instant::now(),
            },
            peer,
        )
    }

    #[test]
    fn pipelined_requests_consume_in_order() {
        let wire = b"POST /classify HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\n\r\nGET /metr";
        let (mut conn, _peer) = conn_with(wire);
        let first = next_request(&mut conn, 1 << 20).unwrap();
        match first {
            NextRequest::Ready(r) => {
                assert_eq!(r.path, "/classify");
                assert_eq!(r.body, b"abc");
            }
            _ => panic!("expected a complete first request"),
        }
        match next_request(&mut conn, 1 << 20).unwrap() {
            NextRequest::Ready(r) => {
                assert_eq!(r.path, "/healthz");
                assert!(r.body.is_empty());
            }
            _ => panic!("expected a complete second request"),
        }
        // The third is a partial head: carried in the buffer for the
        // next readiness tick.
        assert!(matches!(
            next_request(&mut conn, 1 << 20).unwrap(),
            NextRequest::NeedMore
        ));
        assert_eq!(conn.buf, b"GET /metr");
    }

    #[test]
    fn partial_body_is_carried_until_complete() {
        let (mut conn, _peer) = conn_with(b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        assert!(matches!(
            next_request(&mut conn, 1 << 20).unwrap(),
            NextRequest::NeedMore
        ));
        conn.buf.extend_from_slice(b"lo");
        match next_request(&mut conn, 1 << 20).unwrap() {
            NextRequest::Ready(r) => assert_eq!(r.body, b"hello"),
            _ => panic!("expected the completed request"),
        }
        assert!(conn.buf.is_empty());
    }

    #[test]
    fn oversized_and_chunked_bodies_are_typed_errors() {
        let (mut conn, _peer) = conn_with(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n");
        assert!(matches!(
            next_request(&mut conn, 10),
            Err(HttpError::BodyTooLarge {
                declared: 100,
                max: 10
            })
        ));
        let (mut conn, _peer) =
            conn_with(b"POST /classify HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(
            next_request(&mut conn, 10),
            Err(HttpError::Unsupported(_))
        ));
    }

    #[test]
    fn signed_or_conflicting_content_lengths_are_malformed() {
        // A `+` sign, or two lengths that disagree (the second would
        // frame the pipelined request behind a proxy that reads it),
        // is a 400; so is a field name that is no token (whitespace
        // before the colon, a folded line, a space inside), which a
        // proxy may ignore. Repeating one value frames as usual.
        for head in [
            "Content-Length: +3\r\n",
            "Content-Length: 3\r\nContent-Length: 5\r\n",
            "Content-Length : 3\r\n",
            "\tContent-Length: 3\r\n",
            "Content Length: 3\r\n",
        ] {
            let wire = format!("POST / HTTP/1.1\r\n{head}\r\nabcdeGET / HTTP/1.1\r\n\r\n");
            let (mut conn, _peer) = conn_with(wire.as_bytes());
            assert!(
                matches!(
                    next_request(&mut conn, 1 << 20),
                    Err(HttpError::Malformed(_))
                ),
                "{head:?}"
            );
        }
        let (mut conn, _peer) =
            conn_with(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc");
        match next_request(&mut conn, 1 << 20).unwrap() {
            NextRequest::Ready(r) => assert_eq!(r.body, b"abc"),
            _ => panic!("expected the framed request"),
        }
    }

    #[test]
    fn streaming_head_hands_over_the_buffer_remainder() {
        let (mut conn, _peer) = conn_with(
            b"POST /classify/stream HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n",
        );
        match next_request(&mut conn, 1 << 20).unwrap() {
            NextRequest::Stream(head, leftover) => {
                assert_eq!(head.path, "/classify/stream");
                assert_eq!(leftover, b"3\r\nabc\r\n");
            }
            _ => panic!("expected the streaming handoff"),
        }
        assert!(conn.buf.is_empty());
    }

    #[test]
    fn write_response_restores_nonblocking_mode() {
        let (mut conn, mut peer) = conn_with(b"");
        conn.stream.set_nonblocking(true).unwrap();
        assert!(write_response(
            &mut conn,
            &Response::text(200, "ok\n"),
            true
        ));
        // Nonblocking restored: a read with nothing buffered is
        // `WouldBlock`, not a hang.
        let mut probe = [0u8; 8];
        match conn.stream.read(&mut probe) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            Ok(n) => panic!("unexpected {n} bytes"),
        }
        let mut head = Vec::new();
        let mut chunk = [0u8; 256];
        while !head.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = peer.read(&mut chunk).unwrap();
            assert!(n > 0, "peer saw EOF before the head completed");
            head.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&head);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        peer.write_all(b"x").unwrap();
    }
}
