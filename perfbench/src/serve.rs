//! `serve_mixed`: `strudel serve --threads nproc` driven over HTTP from
//! this one process. An open-loop phase at a fixed rate gives the
//! latency percentiles, timed from each request's scheduled send time; a
//! closed-loop phase on `nproc` connections gives the throughput. Bodies
//! come from a seeded pool of distinct small files: three in five
//! requests of a connection repeat that connection's latest fresh body
//! (a cache hit on the shard that served it), the rest are fresh bodies
//! that run the whole pipeline. Every response body must equal the in-process
//! `Structure::to_json` of the same body.

use crate::layers::{self, Counts};
use crate::report::{per_layer, Extras, Report};
use crate::side::Side;
use crate::trace::Trace;
use crate::{
    inputs, load_model, pack_probe, pin_inputs, proc, stats, traced_load, Ctx, EndToEnd, Op,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use strudel::batch::{detect_all, resolve_threads, BatchConfig, BatchInput};
use strudel::{ContentHash, Limits, StageTimings, Strudel};

/// Open-loop arrival rate, requests per second. At this rate the fresh
/// bodies keep the daemon's shards well below saturation even while the
/// host runs slow, so the percentiles measure service time plus ordinary
/// queueing, and every latency slice has more than ten requests above
/// its p90.
pub const OPEN_LOOP_RPS: f64 = 200.0;
/// Files of about 3 KB.
const SIZE: f64 = 1.0;
const TAG: u64 = 4;
/// Largest lateness of a send behind its schedule before the run is
/// flagged as one where the generator, not the daemon, set the pace.
const LATE_FLAG_MS: f64 = 50.0;
/// Requests per closed-loop round, over all connections.
const CLOSED_ROUND: usize = 600;
/// The daemon closes a keep-alive connection after this many requests
/// (`ServerConfig::max_requests_per_conn`), less a margin for probes.
const CONN_REQUEST_CAP: usize = 990;
/// Slices of the open loop the latency percentiles are taken over.
const LATENCY_SLICES: usize = 12;
/// Bodies per in-process reference batch.
const REFERENCE_CHUNK: usize = 250;
/// Daemon start-ups per run, for the median `setup_s`.
const DAEMON_STARTS: usize = 11;

/// A running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawn the daemon and wait for its first `200` on `/healthz`,
    /// returning it with the seconds that took.
    fn start(strudel: &std::path::Path, model: &std::path::Path, shards: usize) -> (Daemon, f64) {
        let started = Instant::now();
        let mut child = Command::new(strudel)
            .args(["serve", "--host", "127.0.0.1", "--port", "0", "--threads"])
            .arg(shards.to_string())
            .arg("--model")
            .arg(model)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("strudel serve starts");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        lines
            .read_line(&mut first)
            .expect("daemon prints its address");
        let addr = first
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_default()
            .to_string();
        // Keep draining stdout so the daemon never blocks on a full pipe.
        let stdout = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        let mut daemon = Daemon {
            child,
            addr,
            stdout: Some(stdout),
        };
        loop {
            let mut conn = Conn::default();
            if let Ok((200, _, _)) = conn.request(&daemon.addr, "GET", "/healthz", b"") {
                break;
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "daemon did not answer /healthz"
            );
            if daemon.child.try_wait().ok().flatten().is_some() {
                panic!("daemon exited during start-up");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (daemon, started.elapsed().as_secs_f64())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful shutdown, then reap; kill if it does not exit in time.
    fn shutdown(mut self) {
        let _ = Conn::default().request(&self.addr, "POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().ok().flatten().is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
    }

    fn reap(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One keep-alive client connection; reconnects after a close.
#[derive(Default)]
struct Conn {
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    /// Requests sent on the current socket.
    sent: usize,
}

impl Conn {
    /// Send one request and read its `Content-Length`-framed response:
    /// status, body, and whether the cache answered.
    fn request(
        &mut self,
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let result = self.exchange(addr, method, path, body);
        if result.is_err() {
            self.stream = None;
            self.carry.clear();
        }
        result
    }

    fn exchange(
        &mut self,
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>, bool)> {
        self.send(addr, method, path, body)?;
        self.receive()
    }

    /// Write one request, connecting first if needed.
    fn send(&mut self, addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
            self.carry.clear();
            self.sent = 0;
        }
        self.sent += 1;
        let stream = self.stream.as_mut().expect("connected above");
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        stream.write_all(&wire)
    }

    /// Read one `Content-Length`-framed response.
    fn receive(&mut self) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| std::io::Error::other("not connected"))?;
        let head_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            read_more(stream, &mut self.carry)?;
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("malformed status line"))?;
        let header = |name: &str| {
            head.lines().skip(1).find_map(|line| {
                let (k, v) = line.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_string())
            })
        };
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let closes = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let hit = header("x-strudel-cache").is_some_and(|v| v == "hit");
        let total = head_end + 4 + length;
        while self.carry.len() < total {
            read_more(stream, &mut self.carry)?;
        }
        let body = self.carry[head_end + 4..total].to_vec();
        self.carry.drain(..total);
        if closes {
            self.stream = None;
        }
        Ok((status, body, hit))
    }
}

fn read_more(stream: &mut TcpStream, carry: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 64 << 10];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    carry.extend_from_slice(&chunk[..n]);
    Ok(())
}

/// One `/classify` request as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    body: usize,
    /// The request's place in the phase's schedule.
    ticket: usize,
    /// From the scheduled send time (open loop) or the send (closed).
    latency: Duration,
    /// How far behind its schedule the request was sent.
    late: Duration,
    status: Option<u16>,
    response: Option<ContentHash>,
    hit: bool,
}

/// Counters scraped from `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    hits: f64,
    misses: f64,
    shed: f64,
    stage_s: f64,
}

impl Scrape {
    fn take(addr: &str) -> Scrape {
        let text = match Conn::default().request(addr, "GET", "/metrics", b"") {
            Ok((200, body, _)) => String::from_utf8_lossy(&body).into_owned(),
            _ => String::new(),
        };
        let mut s = Scrape::default();
        for line in text.lines() {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let value: f64 = value.parse().unwrap_or(0.0);
            match key {
                "strudel_cache_hits_total{family=\"classify\"}" => s.hits = value,
                "strudel_cache_misses_total{family=\"classify\"}" => s.misses = value,
                "strudel_shed_total" => s.shed = value,
                k if k.starts_with("strudel_stage_seconds_total{") => s.stage_s += value,
                _ => {}
            }
        }
        s
    }

    fn since(&self, before: &Scrape) -> Scrape {
        Scrape {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            shed: self.shed - before.shed,
            stage_s: self.stage_s - before.stage_s,
        }
    }
}

/// Whether a connection's `k`-th request repeats its latest fresh body:
/// three in five do, so the median request is a cache hit and the tail
/// holds the misses.
fn is_repeat(k: usize) -> bool {
    matches!(k % 5, 1 | 3 | 4)
}

/// How the generator paces requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Request `i` is due at `start + i / rps`; `n` requests in all.
    Open { rps: f64, n: usize },
    /// Back to back on every connection until `n` requests were sent.
    Closed { n: usize },
}

/// Open `n` keep-alive connections, each on a shard of its own while
/// the daemon has shards to spare. Which shard accepts a connection is a
/// race, and two connections on one shard share its single thread, which
/// would make a run's throughput depend on that race. A shard classifies
/// inline, so each new connection is opened while every shard already
/// holding one is busy with a slow request, and is kept only if its
/// health check is not held up behind one of them.
fn place(addr: &str, n: usize, shards: usize, probes: &mut u64) -> Vec<Conn> {
    let mut placed: Vec<Conn> = Vec::new();
    for _ in 0..n {
        for attempt in 0.. {
            let busy: Vec<bool> = if placed.len() < shards {
                placed
                    .iter_mut()
                    .map(|c| {
                        *probes += 1;
                        c.send(addr, "POST", "/classify", &slow_body(*probes))
                            .is_ok()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            std::thread::sleep(Duration::from_millis(2));
            let mut conn = Conn::default();
            let t0 = Instant::now();
            let _ = conn.request(addr, "GET", "/healthz", b"");
            let waited = t0.elapsed();
            for (c, sent) in placed.iter_mut().zip(busy) {
                if sent {
                    let _ = c.receive();
                }
            }
            if waited < Duration::from_millis(10) || attempt == 20 {
                placed.push(conn);
                break;
            }
        }
    }
    placed
}

/// A body never sent before (so never cached) of a few thousand numeric
/// rows: tens of milliseconds of classification.
fn slow_body(tag: u64) -> Vec<u8> {
    let mut body = format!("placement probe {tag}\n");
    for r in 0..3000 {
        body.push_str(&format!(
            "r{r},{},{},{}\n",
            r * 7 % 1000,
            r * 13 % 997,
            r % 89
        ));
    }
    body.into_bytes()
}

/// Drive `/classify` on every connection from its own thread. Fresh
/// bodies are claimed from `next` in pool order; requests 1, 3 and 4 of
/// every five a connection sends repeat its latest fresh body.
fn drive(
    addr: &str,
    conns: &mut [Conn],
    pool: &[Vec<u8>],
    next: &AtomicUsize,
    pace: Pace,
) -> Vec<Sample> {
    let ticket = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (ticket, samples) = (&ticket, &samples);
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut latest = 0;
                for k in 0usize.. {
                    let i = ticket.fetch_add(1, Ordering::Relaxed);
                    let due = match pace {
                        Pace::Open { rps, n } => {
                            if i >= n {
                                break;
                            }
                            let due = start + Duration::from_secs_f64(i as f64 / rps);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            due
                        }
                        Pace::Closed { n } => {
                            if i >= n {
                                break;
                            }
                            Instant::now()
                        }
                    };
                    if !is_repeat(k) {
                        latest = next.fetch_add(1, Ordering::Relaxed) % pool.len();
                    }
                    let body = latest;
                    let sent = Instant::now();
                    let result = conn.request(addr, "POST", "/classify", &pool[body]);
                    local.push(Sample {
                        body,
                        ticket: i,
                        latency: due.elapsed(),
                        late: sent.saturating_duration_since(due),
                        status: result.as_ref().ok().map(|r| r.0),
                        response: result.as_ref().ok().map(|r| ContentHash::of(&r.1)),
                        hit: result.as_ref().is_ok_and(|r| r.2),
                    });
                }
                samples.lock().expect("no sampler panicked").extend(local);
            });
        }
    });
    samples.into_inner().expect("no sampler panicked")
}

/// The closed loop: rounds of `CLOSED_ROUND` back-to-back requests over
/// `nproc` placed connections until `budget` is spent, each round one
/// timed operation with the daemon's CPU time, with `between` run after
/// each. Connections are placed
/// anew before any of them could reach the daemon's per-connection
/// request cap, which would reopen it on a shard chosen by chance.
fn closed_loop(
    daemon: &Daemon,
    nproc: usize,
    pool: &[Vec<u8>],
    next: &AtomicUsize,
    budget: Duration,
    probes: &mut u64,
    between: &dyn Fn(),
) -> (Vec<Sample>, Vec<Op>) {
    let (addr, pid) = (daemon.addr.as_str(), daemon.pid());
    let mut samples = Vec::new();
    let mut ops = Vec::new();
    let mut conns: Vec<Conn> = Vec::new();
    let started = Instant::now();
    while ops.is_empty() || started.elapsed() < budget {
        if conns.is_empty()
            || conns
                .iter()
                .any(|c| c.sent + CLOSED_ROUND > CONN_REQUEST_CAP)
        {
            conns = place(addr, nproc, nproc, probes);
        }
        let cpu0 = proc::cpu_time(&pid).unwrap_or_default();
        let t0 = Instant::now();
        let round = drive(
            addr,
            &mut conns,
            pool,
            next,
            Pace::Closed { n: CLOSED_ROUND },
        );
        let wall = t0.elapsed();
        let cpu = proc::cpu_time(&pid)
            .unwrap_or_default()
            .saturating_sub(cpu0);
        ops.push(Op {
            bytes: round.iter().map(|s| pool[s.body].len() as u64).sum(),
            items: round.len() as u64,
            wall,
            cpu,
        });
        samples.extend(round);
        between();
    }
    (samples, ops)
}

fn pool(ctx: &Ctx, report: &mut Report, n: usize) -> Vec<Vec<u8>> {
    let pool = inputs::small_files(ctx.args.seed, TAG, n, SIZE);
    let refs: Vec<&[u8]> = pool.iter().map(|f| f.as_slice()).collect();
    pin_inputs(report, "serve_mixed", &refs);
    pool
}

/// The in-process `Structure::to_json` fingerprint of every pool body
/// the samples used, computed on `nproc` workers after the load phases
/// in chunks, with `between` run after each.
fn references(
    model: &Strudel,
    pool: &[Vec<u8>],
    samples: &[Sample],
    nproc: usize,
    between: &dyn Fn(),
) -> Vec<Option<ContentHash>> {
    let mut used: Vec<usize> = samples.iter().map(|s| s.body).collect();
    used.sort_unstable();
    used.dedup();
    let inputs: Vec<BatchInput> = used
        .iter()
        .map(|&b| {
            let text = String::from_utf8(pool[b].clone()).expect("generated files are UTF-8");
            BatchInput::text(format!("body{b}"), text)
        })
        .collect();
    let config = BatchConfig {
        n_threads: nproc,
        limits: Limits::standard(),
    };
    let mut out = vec![None; pool.len()];
    for (chunk, bodies) in inputs
        .chunks(REFERENCE_CHUNK)
        .zip(used.chunks(REFERENCE_CHUNK))
    {
        let result = detect_all(model, chunk, &config);
        for (&b, s) in bodies.iter().zip(result.structures) {
            out[b] = s.ok().map(|s| ContentHash::of(s.to_json().as_bytes()));
        }
        between();
    }
    out
}

/// Count every sample as an attempt; a refused, reset, non-200 or wrong
/// response fails it.
fn check(report: &mut Report, samples: &[Sample], refs: &[Option<ContentHash>]) {
    for s in samples {
        let ok = s.status == Some(200) && s.response.is_some() && s.response == refs[s.body];
        report.attempt(ok, || {
            format!(
                "request for body {} answered {:?}, not its structure",
                s.body, s.status
            )
        });
    }
}

/// Open-loop latencies in `LATENCY_SLICES` consecutive slices of the
/// schedule: the host's speed swings for seconds at a time, and a
/// percentile taken per slice and then as the best-tenth mean across
/// slices is not moved by the slow stretches.
fn latency_slices(open: &[Sample]) -> Vec<Vec<f64>> {
    let mut ordered = open.to_vec();
    ordered.sort_by_key(|s| s.ticket);
    let per = ordered.len().div_ceil(LATENCY_SLICES).max(1);
    ordered
        .chunks(per)
        .map(|c| c.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect())
        .collect()
}

/// Lateness of the open-loop generator, flagged when it fell behind.
fn lateness_ms(samples: &[Sample]) -> f64 {
    let late: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    let max = late.iter().copied().fold(0.0, f64::max);
    let p99 = stats::nearest_rank(&stats::sorted(&late), 0.99).unwrap_or(0.0);
    println!("loadgen late p99 {p99:.3} ms, max {max:.3} ms");
    if max > LATE_FLAG_MS {
        println!("loadgen FLAG: the generator fell {max:.1} ms behind its schedule");
    }
    max
}

fn strudel_bin(ctx: &Ctx) -> &std::path::Path {
    ctx.args
        .strudel
        .as_deref()
        .expect("serve_mixed needs --strudel PATH (the strudel executable)")
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let open_n = (OPEN_LOOP_RPS * ctx.args.seconds * 0.45).round() as usize;
    // Fresh bodies: two in five open-loop requests plus what the closed
    // loop takes; past the end the pool wraps around to bodies long
    // evicted from the daemon's caches.
    let pool = pool(ctx, report, open_n * 2 / 5 + 3000);
    let side = Side::start(ctx.model_path.clone());
    let model = load_model(ctx);
    let sample = pack_probe::tall_sample(ctx.args.seed, report);
    if let Some(p) = pack_probe::probe(&model, &sample, report) {
        side.set_probe(p);
    }

    let strudel = strudel_bin(ctx);
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..DAEMON_STARTS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        // The container's read side runs in process between start-ups,
        // never while the daemon is under load.
        side.round();
        side.round();
        let (d, took) = Daemon::start(strudel, &ctx.model_path, ctx.nproc);
        setup_s.push(took);
        daemon = Some(d);
    }
    let daemon = daemon.expect("started");
    let pid = daemon.pid();
    let next = AtomicUsize::new(0);
    let mut probes = 0;

    let before = Scrape::take(&daemon.addr);
    let mut conns = place(&daemon.addr, ctx.nproc, ctx.nproc, &mut probes);
    let open = drive(
        &daemon.addr,
        &mut conns,
        &pool,
        &next,
        Pace::Open {
            rps: OPEN_LOOP_RPS,
            n: open_n,
        },
    );
    drop(conns);
    let t0 = Instant::now();
    let (closed_samples, ops) = closed_loop(
        &daemon,
        ctx.nproc,
        &pool,
        &next,
        ctx.budget(0.35),
        &mut probes,
        &|| side.round(),
    );
    let closed_wall = t0.elapsed();
    let delta = Scrape::take(&daemon.addr).since(&before);
    let peak = proc::peak_rss_bytes(&pid).unwrap_or(0);
    daemon.shutdown();

    let late = lateness_ms(&open);
    let all: Vec<Sample> = open.iter().chain(&closed_samples).copied().collect();
    let refs = references(&model, &pool, &all, ctx.nproc, &|| side.round());
    check(report, &all, &refs);
    let hits = all.iter().filter(|s| s.hit).count();
    println!(
        "serve open loop {} req at {OPEN_LOOP_RPS} rps, closed loop {} req in {:.3} s, cache hits {hits} of {} (daemon: {} hits, {} misses, {} shed), late max {late:.3} ms",
        open.len(),
        closed_samples.len(),
        closed_wall.as_secs_f64(),
        all.len(),
        delta.hits,
        delta.misses,
        delta.shed
    );
    EndToEnd {
        setup_s,
        ops,
        latencies_ms: latency_slices(&open),
        peak_rss_bytes: peak,
    }
    .emit(report);
    if let Some(p) = side.finish() {
        p.finish(&model, report, None).emit(report);
    }
}

pub fn traced(ctx: &Ctx, report: &mut Report) {
    let open_n = (OPEN_LOOP_RPS * ctx.args.seconds * 0.3).round() as usize;
    let serial_n = 200;
    let pool = pool(ctx, report, (open_n + serial_n) * 2 / 5 + 2 * ctx.nproc + 8);
    let limits = Limits::standard();
    let cpu_self0 = proc::cpu_time("self").unwrap_or_default();
    let mut trace = Trace::new();
    let mut excluded = Duration::ZERO;
    let model = traced_load(ctx, &mut trace);

    let t0 = Instant::now();
    let (daemon, _) = Daemon::start(strudel_bin(ctx), &ctx.model_path, ctx.nproc);
    let pid = daemon.pid();
    let daemon_started = Instant::now();
    let next = AtomicUsize::new(0);
    let mut probes = 0;
    // Open loop, untraced: lateness, shedding and cache behaviour.
    let before = Scrape::take(&daemon.addr);
    let mut conns = place(&daemon.addr, ctx.nproc, ctx.nproc, &mut probes);
    let open = drive(
        &daemon.addr,
        &mut conns,
        &pool,
        &next,
        Pace::Open {
            rps: OPEN_LOOP_RPS,
            n: open_n,
        },
    );
    drop(conns);
    let open_delta = Scrape::take(&daemon.addr).since(&before);
    let mut conns = place(&daemon.addr, 1, ctx.nproc, &mut probes);
    let before = Scrape::take(&daemon.addr);
    excluded += t0.elapsed();

    // Traced: one connection, one span around the serial requests; the
    // pipeline time the daemon reports in `/metrics` is its inner time.
    let serial_start = next.load(Ordering::Relaxed);
    let span = trace.begin("server");
    let serial = drive(
        &daemon.addr,
        &mut conns,
        &pool,
        &next,
        Pace::Closed { n: serial_n },
    );
    trace.end(span);
    let t0 = Instant::now();
    let delta = Scrape::take(&daemon.addr).since(&before);
    trace.add_inner(span, Duration::from_secs_f64(delta.stage_s.max(0.0)));
    let daemon_cpu = proc::cpu_time(&pid).unwrap_or_default();
    let daemon_wall = daemon_started.elapsed();
    daemon.shutdown();
    excluded += t0.elapsed();

    // Rebuild every body the serial phase sent fresh and compare with
    // the daemon's answers and the whole-file entry point.
    let t0 = Instant::now();
    let all: Vec<Sample> = open.iter().chain(&serial).copied().collect();
    let refs = references(&model, &pool, &all, ctx.nproc, &|| {});
    check(report, &all, &refs);
    let fresh: Vec<usize> = (serial_start..next.load(Ordering::Relaxed))
        .map(|b| b % pool.len())
        .collect();
    let mut stages = StageTimings::default();
    let wants: Vec<_> = fresh
        .iter()
        .map(|&b| model.try_detect_structure_bytes_metered(&pool[b], &limits, 0, &mut stages))
        .collect();
    excluded += t0.elapsed();
    let mut counts = Counts::default();
    let mut rebuild_wall = Duration::ZERO;
    let n_threads = resolve_threads(0);
    for (&b, want) in fresh.iter().zip(&wants) {
        trace.set_input(b);
        let t0 = Instant::now();
        let got = layers::rebuild(
            &model,
            &pool[b],
            None,
            &limits,
            n_threads,
            &mut trace,
            &mut counts,
        );
        rebuild_wall += t0.elapsed();
        let t0 = Instant::now();
        let same = matches!((&got, want), (Ok(a), Ok(w)) if a == w)
            && got
                .as_ref()
                .ok()
                .map(|s| ContentHash::of(s.to_json().as_bytes()))
                == refs[b];
        report.attempt(same, || format!("rebuilt pipeline differs on body {b}"));
        excluded += t0.elapsed();
    }
    let ref_wall: Duration = [
        strudel::Stage::Dialect,
        strudel::Stage::Parse,
        strudel::Stage::DerivedCells,
        strudel::Stage::LineClassify,
        strudel::Stage::CellClassify,
        strudel::Stage::Materialize,
    ]
    .iter()
    .map(|&s| stages.total(s))
    .sum::<Duration>();

    let late = lateness_ms(&open);
    let lookups = open_delta.hits + open_delta.misses;
    let cpu_self = proc::cpu_time("self")
        .unwrap_or_default()
        .saturating_sub(cpu_self0);
    println!("bench process cpu {:.3} s", cpu_self.as_secs_f64());
    let extras = Extras {
        server_cache_hit_frac: if lookups > 0.0 {
            open_delta.hits / lookups
        } else {
            0.0
        },
        server_shed: open_delta.shed,
        server_pipeline_s: delta.stage_s,
        loadgen_late_ms: late,
        proc_cpu_s: daemon_cpu.as_secs_f64(),
        proc_cpu_per_wall: daemon_cpu.as_secs_f64() / daemon_wall.as_secs_f64(),
        trace_overhead_frac: rebuild_wall.as_secs_f64() / ref_wall.as_secs_f64() - 1.0,
        model_bytes: ctx.model_bytes as f64,
        ..Extras::default()
    };
    per_layer(
        report,
        &trace,
        &counts,
        &extras,
        excluded,
        &stages,
        ctx.n_trees,
    );
}
