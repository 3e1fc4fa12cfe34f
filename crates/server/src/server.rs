//! The resident daemon: shard-per-core connection plane, per-shard
//! admission control, request routing, hot reload, and graceful
//! shutdown.
//!
//! ## Threading model
//!
//! The listening socket is switched to nonblocking mode and dup'ed
//! (`try_clone`) into `n_shards` shard threads, each running the
//! readiness loop in [`crate::shard`]: poll the listener plus the
//! shard's own accepted connections, accept into a shard-local
//! connection set, and serve keep-alive request pipelines in place.
//! There is no accept queue and no handoff lock — a connection lives
//! its whole life (accept → pipelined requests → close) on the shard
//! that accepted it, and the kernel spreads accept readiness across
//! the shards. The only cross-shard state a request touches is the
//! model `RwLock<Arc<Strudel>>` (read-locked just long enough to clone
//! the `Arc`) and the shutdown flag; caches and stage timings are
//! shard-local (below). Each shard pins per-request inference to one
//! thread (like the batch engine), so N shards use N cores, not
//! N × cores.
//!
//! ## Admission control
//!
//! Each shard owns a fixed connection budget (`conns_per_shard`). An
//! accept beyond the budget never enters the serving loop: a transient
//! thread answers `503` + `Retry-After` + `Connection: close` and
//! lingers briefly so the refusal survives the close (see
//! [`shed_connection`]), keeping the shard's poll loop free to serve
//! admitted connections — overload sheds in microseconds instead of
//! queueing unboundedly.
//!
//! ## Caches and metrics
//!
//! Result and pack caches are per-shard LRU pairs: inserts go to the
//! owning shard only, lookups probe the owning shard first and then
//! its peers (repeat traffic lands on arbitrary shards). Stage
//! timings accumulate into per-shard slots merged only at `/metrics`
//! scrape time ([`Registry::merge_timings`]).
//!
//! ## Model lifecycle
//!
//! The fitted [`Strudel`] model loads once and stays warm behind an
//! `RwLock<Arc<Strudel>>`. Shards snapshot the `Arc` per request, so a
//! concurrent `POST /admin/reload` never blocks in-flight
//! classifications: the new model is fully loaded and validated (the
//! corrupt-model checks of `Strudel::load`) *before* the write lock is
//! taken for the pointer swap, and a rejected file leaves the old model
//! serving. A successful swap clears every shard's caches — a new
//! model may classify the same bytes differently.
//!
//! ## Shutdown
//!
//! `POST /admin/shutdown` answers `200` (with `Connection: close`),
//! then flips the shutdown flag. Each shard notices within one poll
//! tick: it stops accepting, finishes every in-flight pipelined
//! request already on its connections, closes drained connections, and
//! exits; [`Server::run`] joins all shards before returning.

use crate::cache::{CacheKey, ResultCache};
use crate::http::{BodyDecoder, ChunkedWriter, HttpError, Request, Response, FALLBACK_MAX_BODY};
use crate::metrics::Registry;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;
use strudel::batch::{inference_threads, resolve_threads};
use strudel::json::{dialect_json, json_string};
use strudel::{
    LimitKind, Limits, StageTimings, StreamClassifier, StreamConfig, Strudel, StrudelError,
};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port `0` picks an ephemeral
    /// port; read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Shard threads; `0` resolves via [`resolve_threads`] (the
    /// `STRUDEL_THREADS` environment variable, then the available
    /// parallelism) — one shard per core.
    pub n_shards: usize,
    /// Per-shard admission budget: concurrent connections a shard owns
    /// beyond this are shed with `503`.
    pub conns_per_shard: usize,
    /// Result-cache capacity in entries, split evenly across the
    /// shards; `0` disables caching.
    pub cache_capacity: usize,
    /// Per-request input limits and wall-clock budget (the PR 3
    /// [`Limits`] machinery; `max_input_bytes` doubles as the HTTP body
    /// cap, enforced before the body is read).
    pub limits: Limits,
    /// Path the model was loaded from, used by `POST /admin/reload`
    /// when the request body names no path.
    pub model_path: Option<PathBuf>,
    /// Socket read/write timeout, bounding how long a slow client can
    /// stall a blocking read (streaming bodies) or a response write.
    pub io_timeout: Duration,
    /// Keep-alive idle cap: a connection with no byte activity for this
    /// long is closed by its shard's idle sweep.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (announced with `Connection: close`), bounding per-connection
    /// state lifetime.
    pub max_requests_per_conn: usize,
    /// Window geometry for `POST /classify/stream`. Its `limits` and
    /// `n_threads` fields are ignored — the server's own [`limits`] and
    /// per-shard thread pinning apply to the streaming route too.
    ///
    /// [`limits`]: ServerConfig::limits
    pub stream: StreamConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            n_shards: 0,
            conns_per_shard: 256,
            cache_capacity: 256,
            limits: Limits::standard(),
            model_path: None,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            max_requests_per_conn: 1000,
            stream: StreamConfig::default(),
        }
    }
}

/// One shard's private cache pair. Inserts always target the owning
/// shard; lookups probe peers too (see [`Shared::cached_result`]), so
/// no request ever contends on a single global cache lock.
struct ShardCaches {
    results: Mutex<ResultCache<Arc<String>>>,
    /// Finished containers by the content hash of the *original* bytes
    /// — the same fingerprint `POST /pack` returns in
    /// `X-Strudel-Pack-Key`, so a later `GET /pack/<key>` addresses the
    /// container without resending the input.
    packs: Mutex<ResultCache<Arc<Vec<u8>>>>,
}

/// State shared between the shards.
pub(crate) struct Shared {
    model: RwLock<Arc<Strudel>>,
    model_path: Mutex<Option<PathBuf>>,
    shards: Vec<ShardCaches>,
    pub(crate) registry: Registry,
    pub(crate) limits: Limits,
    pub(crate) conns_per_shard: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_requests_per_conn: usize,
    shutdown: AtomicBool,
    addr: SocketAddr,
    inner_threads: usize,
    pub(crate) io_timeout: Duration,
    stream: StreamConfig,
}

/// Lock a mutex, recovering from poisoning — a panic on one shard must
/// not wedge the whole daemon.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Flip the shutdown flag. Shards poll with a bounded tick, so
    /// every one notices within ~one tick without any wakeup plumbing.
    pub(crate) fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// The shard-local caches owned by `shard`.
    fn caches(&self, shard: usize) -> &ShardCaches {
        &self.shards[shard % self.shards.len()]
    }

    /// Probe every shard's cache, the owning shard first — inserts are
    /// shard-local, but repeat traffic lands on arbitrary shards, so a
    /// lookup must see its peers' entries too. Each probe takes one
    /// shard-local lock briefly; there is no global cache lock.
    fn probe<V>(&self, shard: usize, mut get: impl FnMut(&ShardCaches) -> Option<V>) -> Option<V> {
        let n = self.shards.len();
        (0..n)
            .map(|i| (shard + i) % n)
            .find_map(|i| get(&self.shards[i]))
    }

    fn cached_result(&self, shard: usize, key: &CacheKey) -> Option<Arc<String>> {
        self.probe(shard, |caches| lock(&caches.results).get(key))
    }

    fn cached_pack(&self, shard: usize, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        self.probe(shard, |caches| lock(&caches.packs).get(key))
    }
}

/// A bound, not-yet-running classification daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    n_shards: usize,
}

/// A running server, for embedding in tests or other binaries.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address of the running server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server has shut down and drained.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

impl Server {
    /// Bind the listener and prepare the shared state. The model is
    /// already loaded and warm; no request work happens until
    /// [`run`](Server::run).
    pub fn bind(model: Strudel, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let n_shards = resolve_threads(config.n_shards).max(1);
        // Split the configured capacity across the shards so the total
        // cache footprint matches the single-cache era.
        let per_shard_cache = config.cache_capacity.div_ceil(n_shards);
        let shared = Arc::new(Shared {
            model: RwLock::new(Arc::new(model)),
            model_path: Mutex::new(config.model_path.clone()),
            shards: (0..n_shards)
                .map(|_| ShardCaches {
                    results: Mutex::new(ResultCache::new(per_shard_cache)),
                    packs: Mutex::new(ResultCache::new(per_shard_cache)),
                })
                .collect(),
            registry: Registry::new(n_shards),
            limits: config.limits,
            conns_per_shard: config.conns_per_shard.max(1),
            idle_timeout: config.idle_timeout,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
            shutdown: AtomicBool::new(false),
            addr,
            inner_threads: inference_threads(n_shards),
            io_timeout: config.io_timeout,
            stream: config.stream.clone(),
        });
        Ok(Server {
            listener,
            shared,
            n_shards,
        })
    }

    /// The address the listener is bound to (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The resolved shard count.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Serve until shutdown: dup the nonblocking listener into one
    /// thread per shard, run the shard readiness loops, and join them
    /// all (in-flight pipelines included) before returning.
    pub fn run(self) {
        let shared = self.shared;
        self.listener
            .set_nonblocking(true)
            .expect("set listener nonblocking");
        let shards: Vec<_> = (0..self.n_shards)
            .map(|i| {
                let listener = self.listener.try_clone().expect("dup listener into shard");
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("strudel-shard-{i}"))
                    .spawn(move || crate::shard::run_shard(&shared, i, listener))
                    .expect("spawn shard")
            })
            .collect();
        for shard in shards {
            let _ = shard.join();
        }
    }

    /// Run the server on a background thread and return a handle with
    /// the bound address (the embedding entry point used by the
    /// integration tests).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::Builder::new()
            .name("strudel-serve".to_string())
            .spawn(move || self.run())
            .expect("spawn server thread");
        ServerHandle { addr, thread }
    }
}

/// Refuse one connection with `503` + `Retry-After` + `Connection:
/// close`. The client has usually already sent (part of) its request;
/// closing a socket with unread input makes the kernel send RST, which
/// can discard the 503 from the client's receive buffer. So: answer,
/// half-close the write side, then drain briefly until the client sees
/// EOF and hangs up — a lingering close.
pub(crate) fn shed_connection(mut stream: TcpStream) {
    let response = Response::json(
        503,
        "{\"error\": \"server overloaded, request shed by admission control\", \
         \"category\": \"overload\"}\n",
    )
    .with_header("Retry-After", "1");
    // `write_to` frames with an explicit `Connection: close`, telling
    // keep-alive clients not to wait for another exchange.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if response.write_to(&mut stream).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// Answer a request-framing failure (when anyone is still listening)
/// and record it in the registry.
pub(crate) fn respond_framing_error(shared: &Shared, stream: &mut TcpStream, error: HttpError) {
    let response = match error {
        HttpError::Malformed(reason) => {
            Registry::bump(&shared.registry.http_err);
            Response::json(400, error_body(&reason, "http", None))
        }
        HttpError::BodyTooLarge { declared, max } => {
            Registry::bump(&shared.registry.classify_err);
            error_response(&StrudelError::limit(LimitKind::InputBytes, declared, max))
        }
        HttpError::Unsupported(reason) => {
            Registry::bump(&shared.registry.http_err);
            Response::json(501, error_body(&reason, "http", None))
        }
        HttpError::Io(_) => return, // nobody left to answer
    };
    let _ = response.write_to(stream);
}

/// Dispatch a parsed request to its handler. The boolean asks the
/// caller to initiate shutdown once the response has been written.
pub(crate) fn route(shared: &Shared, shard: usize, request: &Request) -> (Response, bool) {
    const ROUTES: [&str; 7] = [
        "/",
        "/classify",
        "/classify/stream",
        "/healthz",
        "/metrics",
        "/admin/reload",
        "/pack",
    ];
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/classify") | ("POST", "/") => (classify(shared, shard, &request.body), false),
        ("POST", "/pack") => (pack(shared, shard, &request.body), false),
        ("GET", path) if path.strip_prefix("/pack/").is_some() => {
            (unpack(shared, shard, request), false)
        }
        (_, path) if path.strip_prefix("/pack/").is_some() => {
            Registry::bump(&shared.registry.http_err);
            (
                Response::json(
                    405,
                    error_body(
                        &format!("method {} not allowed", request.method),
                        "http",
                        None,
                    ),
                ),
                false,
            )
        }
        ("GET", "/healthz") => {
            Registry::bump(&shared.registry.healthz);
            (Response::text(200, "ok\n"), false)
        }
        ("GET", "/metrics") => {
            Registry::bump(&shared.registry.metrics);
            (
                Response::new(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    shared.registry.render(),
                ),
                false,
            )
        }
        ("POST", "/admin/reload") => (reload(shared, &request.body), false),
        ("POST", "/admin/shutdown") => (Response::json(200, "{\"shutting_down\": true}\n"), true),
        (_, path) if path == "/admin/shutdown" || ROUTES.contains(&path) => {
            Registry::bump(&shared.registry.http_err);
            (
                Response::json(
                    405,
                    error_body(
                        &format!("method {} not allowed", request.method),
                        "http",
                        None,
                    ),
                ),
                false,
            )
        }
        (_, path) => {
            Registry::bump(&shared.registry.http_err);
            (
                Response::json(404, error_body(&format!("no route {path}"), "http", None)),
                false,
            )
        }
    }
}

/// `POST /classify`: cache lookup, then the full guarded pipeline on a
/// snapshot of the current model.
fn classify(shared: &Shared, shard: usize, body: &[u8]) -> Response {
    shared
        .registry
        .bytes_in
        .fetch_add(body.len() as u64, Ordering::Relaxed);
    let key = CacheKey::of(body);
    if let Some(cached) = shared.cached_result(shard, &key) {
        Registry::bump(&shared.registry.cache_hits);
        Registry::bump(&shared.registry.classify_ok);
        return Response::json(200, cached.as_bytes().to_vec())
            .with_header("X-Strudel-Cache", "hit");
    }
    Registry::bump(&shared.registry.cache_misses);

    // Snapshot the model Arc and release the read lock immediately, so
    // a reload's pointer swap never waits on a long classification.
    let model = Arc::clone(&shared.model.read().unwrap_or_else(|e| e.into_inner()));
    let mut timings = StageTimings::default();
    let detected = catch_unwind(AssertUnwindSafe(|| {
        model.try_detect_structure_bytes_metered(
            body,
            &shared.limits,
            shared.inner_threads,
            &mut timings,
        )
    }));
    shared.registry.merge_timings(shard, &timings);
    match detected {
        Ok(Ok(structure)) => {
            let json = Arc::new(structure.to_json());
            lock(&shared.caches(shard).results).insert(key, Arc::clone(&json));
            Registry::bump(&shared.registry.classify_ok);
            Response::json(200, json.as_bytes().to_vec()).with_header("X-Strudel-Cache", "miss")
        }
        Ok(Err(error)) => {
            Registry::bump(&shared.registry.classify_err);
            error_response(&error)
        }
        Err(_) => {
            Registry::bump(&shared.registry.classify_err);
            Response::json(
                500,
                error_body("panic during classification", "internal", None),
            )
        }
    }
}

/// `POST /pack`: build (or re-serve) the packed container for the raw
/// CSV body. The response is the container bytes, and the
/// `X-Strudel-Pack-Key` header carries the content fingerprint of the
/// *original* bytes — the address for later `GET /pack/<key>` fetches
/// and selective extractions. Containers share the classify cache's
/// keying (the same [`CacheKey`] fingerprint) but live in their own
/// per-shard LRU, so packing traffic cannot evict classification
/// results, and their hit/miss traffic is tracked as the `pack` cache
/// family in `/metrics`.
fn pack(shared: &Shared, shard: usize, body: &[u8]) -> Response {
    shared
        .registry
        .bytes_in
        .fetch_add(body.len() as u64, Ordering::Relaxed);
    let key = CacheKey::of(body);
    if let Some(cached) = shared.cached_pack(shard, &key) {
        Registry::bump(&shared.registry.pack_cache_hits);
        Registry::bump(&shared.registry.pack_ok);
        return Response::new(200, "application/octet-stream", cached.as_ref().clone())
            .with_header("X-Strudel-Pack-Key", key.to_hex())
            .with_header("X-Strudel-Cache", "hit");
    }
    Registry::bump(&shared.registry.pack_cache_misses);

    let model = Arc::clone(&shared.model.read().unwrap_or_else(|e| e.into_inner()));
    let config = StreamConfig {
        limits: shared.limits,
        n_threads: shared.inner_threads,
        ..shared.stream.clone()
    };
    let mut timings = StageTimings::default();
    let packed = catch_unwind(AssertUnwindSafe(|| {
        strudel_pack::pack_bytes_metered(&model, body, config, &mut timings)
    }));
    shared.registry.merge_timings(shard, &timings);
    match packed {
        Ok(Ok(packed)) => {
            let container = Arc::new(packed.bytes);
            lock(&shared.caches(shard).packs).insert(key, Arc::clone(&container));
            Registry::bump(&shared.registry.pack_ok);
            Response::new(200, "application/octet-stream", container.as_ref().clone())
                .with_header("X-Strudel-Pack-Key", key.to_hex())
                .with_header("X-Strudel-Cache", "miss")
        }
        Ok(Err(error)) => {
            Registry::bump(&shared.registry.pack_err);
            error_response(&error)
        }
        Err(_) => {
            Registry::bump(&shared.registry.pack_err);
            Response::json(500, error_body("panic during packing", "internal", None))
        }
    }
}

/// `GET /pack/<key>`: fetch a cached container by its fingerprint, or
/// selectively unpack it — `?table=N` extracts one table's text,
/// `?column=NAME` (optionally scoped with `&table=N`) one column's
/// values, one per line, decoding only that column's block. The
/// `X-Strudel-Cache` header reports whether the container was found
/// (`hit`) or the key is unknown (`miss`), mirroring the classify
/// route's cache transparency.
fn unpack(shared: &Shared, shard: usize, request: &Request) -> Response {
    let hex = request.path.strip_prefix("/pack/").unwrap_or_default();
    let Some(key) = CacheKey::from_hex(hex) else {
        Registry::bump(&shared.registry.unpack_err);
        return Response::json(
            404,
            error_body(
                &format!("{hex:?} is not a pack key (48 hex digits)"),
                "http",
                None,
            ),
        );
    };
    let Some(container) = shared.cached_pack(shard, &key) else {
        Registry::bump(&shared.registry.pack_cache_misses);
        Registry::bump(&shared.registry.unpack_err);
        return Response::json(
            404,
            error_body(
                "no container under this key; POST the original bytes to /pack first",
                "http",
                None,
            ),
        )
        .with_header("X-Strudel-Cache", "miss");
    };
    Registry::bump(&shared.registry.pack_cache_hits);

    // Parse the selectors before touching the container.
    let mut table: Option<usize> = None;
    let mut column: Option<String> = None;
    for pair in request.query.split('&').filter(|p| !p.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, ""));
        let value = percent_decode(value);
        match name {
            "table" => match value.parse() {
                Ok(t) => table = Some(t),
                Err(_) => {
                    Registry::bump(&shared.registry.unpack_err);
                    return Response::json(
                        400,
                        error_body(&format!("table={value:?} is not an index"), "http", None),
                    );
                }
            },
            "column" => column = Some(value),
            other => {
                Registry::bump(&shared.registry.unpack_err);
                return Response::json(
                    400,
                    error_body(&format!("unknown query parameter {other:?}"), "http", None),
                );
            }
        }
    }

    // No selectors: the container itself.
    if table.is_none() && column.is_none() {
        Registry::bump(&shared.registry.unpack_ok);
        return Response::new(200, "application/octet-stream", container.as_ref().clone())
            .with_header("X-Strudel-Pack-Key", key.to_hex())
            .with_header("X-Strudel-Cache", "hit");
    }

    let mut timings = StageTimings::default();
    let timer = strudel::StageTimer::start(strudel::Stage::Unpack);
    let result = extract_selection(&container, table, column.as_deref());
    timer.stop(&mut timings);
    shared.registry.merge_timings(shard, &timings);
    match result {
        Ok(Some(text)) => {
            Registry::bump(&shared.registry.unpack_ok);
            Response::new(200, "text/csv; charset=utf-8", text.into_bytes())
                .with_header("X-Strudel-Pack-Key", key.to_hex())
                .with_header("X-Strudel-Cache", "hit")
        }
        Ok(None) => {
            Registry::bump(&shared.registry.unpack_err);
            let column = column.unwrap_or_default();
            Response::json(
                404,
                error_body(&format!("no column named {column:?}"), "http", None),
            )
        }
        Err(error) => {
            Registry::bump(&shared.registry.unpack_err);
            error_response(&error)
        }
    }
}

/// Run one selective extraction against a container. `Ok(None)` means
/// the named column does not exist (the caller owns the 404 wording).
fn extract_selection(
    container: &[u8],
    table: Option<usize>,
    column: Option<&str>,
) -> Result<Option<String>, StrudelError> {
    let mut reader = strudel_pack::PackReader::open(container)?;
    match (column, table) {
        (Some(column), table) => {
            let Some((t, c)) = reader.find_column(column, table) else {
                return Ok(None);
            };
            let values = reader.extract_column(t, c)?;
            let mut text = String::new();
            for value in values {
                text.push_str(&value.unwrap_or_default());
                text.push('\n');
            }
            Ok(Some(text))
        }
        (None, Some(table)) => reader.extract_table(table).map(Some),
        (None, None) => unreachable!("caller handles the selector-free fetch"),
    }
}

/// Decode the percent-encoding of one query value (`+` is a space, the
/// form encoding every HTTP client applies to query strings). Invalid
/// escapes pass through literally — selectors are matched against
/// column names, so a mangled value simply fails to match.
fn percent_decode(value: &str) -> String {
    let bytes = value.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
            {
                Some(b) => {
                    out.push(b);
                    i += 2;
                }
                None => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// How a streaming classify exchange ended.
enum StreamOutcome {
    /// The stream classified to completion.
    Done(strudel::StreamSummary),
    /// The pipeline returned a typed error.
    Pipeline(StrudelError),
    /// The request body framing failed.
    Framing(HttpError),
    /// Writing the response failed; nobody is listening.
    Gone,
}

/// `POST /classify/stream`: feed the request body — chunked
/// transfer-encoded or `Content-Length`-framed — through a
/// per-connection [`StreamClassifier`] and answer with a chunked NDJSON
/// event stream: one `{"window": ...}` line per window as it closes
/// (its `structure` is the canonical JSON of the window classified as
/// an independent document), then a final `{"done": true, ...}` summary
/// line. Peak memory per connection is O(window), independent of body
/// size: body bytes are pushed into the classifier and dropped, and
/// each window's text is freed when its event is emitted. Results are
/// not cached — the body is never retained whole, so there is nothing
/// to key on.
///
/// The caller (the shard loop) switches the socket to blocking mode
/// first and closes the connection afterwards — the chunked response
/// always announces `Connection: close`.
///
/// An error before the first window still gets a plain status-mapped
/// response ([`error_response`]); after the `200` head is committed,
/// errors arrive as a final `{"error": ...}` event line instead.
pub(crate) fn classify_stream(
    shared: &Shared,
    shard: usize,
    request: &Request,
    leftover: Vec<u8>,
    stream: &mut TcpStream,
) {
    // The cumulative wire cap only backstops unbounded *work* (memory
    // is bounded by construction); the configured input limit is the
    // per-window cap here and must not truncate the stream.
    let mut decoder = match BodyDecoder::new(request, leftover, FALLBACK_MAX_BODY) {
        Ok(decoder) => decoder,
        Err(error) => {
            respond_framing_error(shared, stream, error);
            return;
        }
    };
    let model = Arc::clone(&shared.model.read().unwrap_or_else(|e| e.into_inner()));
    let config = StreamConfig {
        limits: shared.limits,
        n_threads: shared.inner_threads,
        ..shared.stream.clone()
    };
    let mut classifier = StreamClassifier::new(&model, config);
    let mut writer: Option<ChunkedWriter> = None;
    let mut chunk = Vec::new();
    let outcome = loop {
        chunk.clear();
        let done = match decoder.next_chunk(stream, &mut chunk) {
            Ok(done) => done,
            Err(error) => break StreamOutcome::Framing(error),
        };
        shared
            .registry
            .bytes_in
            .fetch_add(chunk.len() as u64, Ordering::Relaxed);
        if !chunk.is_empty() {
            if let Err(error) = classifier.push(&chunk) {
                break StreamOutcome::Pipeline(error);
            }
            if emit_windows(&mut writer, stream, &mut classifier).is_err() {
                break StreamOutcome::Gone;
            }
        }
        if done {
            break match classifier.finish() {
                Ok(summary) => StreamOutcome::Done(summary),
                Err(error) => StreamOutcome::Pipeline(error),
            };
        }
    };
    shared.registry.merge_timings(shard, classifier.timings());
    match outcome {
        StreamOutcome::Done(summary) => {
            // A single-window stream emits its window only at finish.
            if emit_windows(&mut writer, stream, &mut classifier).is_err() {
                Registry::bump(&shared.registry.stream_err);
                return;
            }
            let line = format!(
                "{{\"done\": true, \"dialect\": {}, \"n_windows\": {}, \"n_rows\": {}, \
                 \"total_bytes\": {}}}\n",
                dialect_json(&summary.dialect),
                summary.n_windows,
                summary.n_rows,
                summary.total_bytes,
            );
            let sent = (|| {
                ensure_started(&mut writer, stream)?.write_chunk(stream, line.as_bytes())?;
                writer.take().expect("writer started").finish(stream)
            })();
            Registry::bump(if sent.is_ok() {
                &shared.registry.stream_ok
            } else {
                &shared.registry.stream_err
            });
        }
        StreamOutcome::Pipeline(error) => {
            Registry::bump(&shared.registry.stream_err);
            match writer.take() {
                // Nothing committed yet: the error payload and status
                // are identical to the one-shot route's.
                None => {
                    let _ = error_response(&error).write_to(stream);
                }
                // Mid-stream: the `200` is on the wire; the uniform
                // error body becomes the final event line.
                Some(mut w) => {
                    let limit = match &error {
                        StrudelError::LimitExceeded { limit, .. } => Some(limit.name()),
                        _ => None,
                    };
                    let line = error_body(&error.to_string(), error.category(), limit);
                    let _ = w.write_chunk(stream, line.as_bytes());
                    let _ = w.finish(stream);
                }
            }
        }
        StreamOutcome::Framing(error) => match writer.take() {
            None => respond_framing_error(shared, stream, error),
            Some(w) => {
                Registry::bump(&shared.registry.stream_err);
                if let HttpError::Malformed(reason) | HttpError::Unsupported(reason) = error {
                    let mut w = w;
                    let _ = w.write_chunk(stream, error_body(&reason, "http", None).as_bytes());
                }
                // An Io error or a completed error write both end here;
                // dropping the writer truncates the chunked body, which
                // the client sees as an incomplete stream.
            }
        },
        StreamOutcome::Gone => {
            Registry::bump(&shared.registry.stream_err);
        }
    }
}

/// Write every newly closed window as one NDJSON event line, starting
/// the chunked response at the first.
fn emit_windows(
    writer: &mut Option<ChunkedWriter>,
    stream: &mut TcpStream,
    classifier: &mut StreamClassifier<'_>,
) -> std::io::Result<()> {
    for window in classifier.drain_windows() {
        let line = format!(
            "{{\"window\": {}, \"first_row\": {}, \"start_byte\": {}, \"end_byte\": {}, \
             \"structure\": {}}}\n",
            window.index,
            window.first_row,
            window.start_byte,
            window.end_byte,
            compact_json(&window.structure.to_json()),
        );
        ensure_started(writer, stream)?.write_chunk(stream, line.as_bytes())?;
    }
    Ok(())
}

/// Commit the `200` chunked NDJSON response head, once.
fn ensure_started<'w>(
    writer: &'w mut Option<ChunkedWriter>,
    stream: &mut TcpStream,
) -> std::io::Result<&'w mut ChunkedWriter> {
    if writer.is_none() {
        *writer = Some(ChunkedWriter::start(stream, 200, "application/x-ndjson")?);
    }
    Ok(writer.as_mut().expect("writer just ensured"))
}

/// Flatten pretty-printed canonical structure JSON onto one line so it
/// can ride in an NDJSON event. Raw newlines in `to_json` output are
/// always formatting (string content is escaped), so joining trimmed
/// lines is a faithful compaction.
fn compact_json(pretty: &str) -> String {
    pretty.lines().map(str::trim_start).collect()
}

/// `POST /admin/reload`: load and validate a model file, then swap it in
/// atomically. Any failure leaves the serving model untouched.
fn reload(shared: &Shared, body: &[u8]) -> Response {
    let requested = String::from_utf8_lossy(body).trim().to_string();
    let path = if requested.is_empty() {
        match lock(&shared.model_path).clone() {
            Some(path) => path,
            None => {
                Registry::bump(&shared.registry.reload_err);
                return Response::json(
                    409,
                    error_body(
                        "no model path on record; the server was started from an in-memory \
                         model — name a path in the request body",
                        "model",
                        None,
                    ),
                );
            }
        }
    } else {
        PathBuf::from(&requested)
    };
    // Full load + corrupt-model validation happens before any shared
    // state is touched.
    match Strudel::load(&path) {
        Ok(model) => {
            let swapped = Arc::new(model);
            *shared.model.write().unwrap_or_else(|e| e.into_inner()) = swapped;
            *lock(&shared.model_path) = Some(path.clone());
            // A new model may segment the same bytes into different
            // tables, so every shard's cached results and containers
            // are stale.
            for caches in &shared.shards {
                lock(&caches.results).clear();
                lock(&caches.packs).clear();
            }
            Registry::bump(&shared.registry.reload_ok);
            Response::json(
                200,
                format!(
                    "{{\"reloaded\": true, \"model\": {}}}\n",
                    json_string(&path.display().to_string())
                ),
            )
        }
        Err(error) => {
            Registry::bump(&shared.registry.reload_err);
            Response::json(422, error_body(&error.to_string(), error.category(), None))
        }
    }
}

/// Map a typed pipeline error to an HTTP response: size limits are the
/// client's fault (`413`), an exhausted wall-clock budget is pressure
/// (`503` + `Retry-After`), unparseable content is `422`, anything else
/// is a server fault (`500`). The body always carries the stable
/// [`StrudelError::category`] (plus the limit name, when applicable) so
/// clients can react without parsing prose.
fn error_response(error: &StrudelError) -> Response {
    let limit = match error {
        StrudelError::LimitExceeded { limit, .. } => Some(*limit),
        _ => None,
    };
    let status = match (error.category(), limit) {
        ("limit", Some(LimitKind::WallClock)) => 503,
        ("limit", _) => 413,
        ("parse", _) | ("dialect", _) | ("table", _) => 422,
        _ => 500,
    };
    let body = error_body(
        &error.to_string(),
        error.category(),
        limit.map(|l| l.name()),
    );
    let response = Response::json(status, body);
    if status == 503 {
        response.with_header("Retry-After", "1")
    } else {
        response
    }
}

/// Render the uniform error body `{"error": ..., "category": ...}`,
/// with a `"limit"` field when a resource limit was violated.
pub(crate) fn error_body(message: &str, category: &str, limit: Option<&str>) -> String {
    let mut body = format!(
        "{{\"error\": {}, \"category\": {}",
        json_string(message),
        json_string(category)
    );
    if let Some(limit) = limit {
        body.push_str(&format!(", \"limit\": {}", json_string(limit)));
    }
    body.push_str("}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_status_mapping() {
        let too_big = StrudelError::limit(LimitKind::InputBytes, 100, 10);
        assert_eq!(error_response(&too_big).status, 413);
        let wall = StrudelError::limit(LimitKind::WallClock, 1001, 1000);
        let resp = error_response(&wall);
        assert_eq!(resp.status, 503);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(n, v)| n == "Retry-After" && v == "1"));
        let parse = StrudelError::Parse {
            file: None,
            line: 0,
            byte: 0,
            reason: "bad".into(),
        };
        assert_eq!(error_response(&parse).status, 422);
        let internal = StrudelError::Internal {
            file: None,
            reason: "bug".into(),
        };
        assert_eq!(error_response(&internal).status, 500);
    }

    #[test]
    fn error_body_carries_category_and_limit() {
        let body = error_body("too big", "limit", Some("input_bytes"));
        assert!(body.contains("\"category\": \"limit\""));
        assert!(body.contains("\"limit\": \"input_bytes\""));
        let plain = error_body("no \"route\"", "http", None);
        assert!(plain.contains("\\\"route\\\""));
        assert!(!plain.contains("\"limit\""));
    }
}
