//! The live telemetry plane's scrape endpoint: a zero-dependency HTTP
//! server over `std::net::TcpListener`.
//!
//! The build environment cannot pull hyper/axum, and a scrape endpoint
//! needs almost nothing from HTTP anyway: parse a `GET` request line,
//! write one `Connection: close` response. [`TelemetryServer`] does
//! exactly that: an accept thread hands each connection through a
//! bounded channel to a small fixed pool of handler threads, so one
//! client that drips its request head holds one handler, not the
//! endpoint. When every handler is busy and the channel is full, the
//! accept thread answers `503` at once and never waits on the client.
//! A sampler thread feeds a [`RollingWindow`] so windowed SLO numbers
//! are available the moment a scraper asks.
//!
//! ## Routes
//!
//! | path            | body                                              |
//! |-----------------|---------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition (cumulative registry)  |
//! | `/metrics.json` | full [`MetricsSnapshot`] JSON round-trip document |
//! | `/healthz`      | queue depth, worker liveness, uptime              |
//! | `/slo`          | per-class deadline attainment, cumulative+window  |
//! | `/`             | plain-text route index                            |
//!
//! ## Cost model
//!
//! The server never touches the serve hot path: every route reads the
//! shared [`Registry`] via `snapshot()` (a read-locked copy). The only
//! in-service work the
//! live plane adds is gated inside `serve.rs` behind one relaxed atomic
//! load — see `disabled_live_plane_still_counts_deadlines_but_no_gauges`.
//!
//! [`MetricsSnapshot`]: canopus_obs::MetricsSnapshot

use crate::serve::Priority;
use canopus_obs::export::prometheus_text;
use canopus_obs::json::Value;
use canopus_obs::{names, HistogramStat, Registry, RollingWindow, WindowConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the endpoint observes. Decoupled from [`CanopusService`]
/// so tests (and the CLI's offline `metrics` command) can serve a bare
/// registry; `CanopusService::telemetry_sources` fills in the rest.
///
/// [`CanopusService`]: crate::serve::CanopusService
pub struct TelemetrySources {
    registry: Arc<Registry>,
    /// Reads the deterministic sim clock, when the caller has one.
    sim_now: Option<Arc<dyn Fn() -> f64 + Send + Sync>>,
    /// Origin of `/healthz` uptime.
    epoch: Instant,
    /// Expected worker count (`None` when not serving a worker pool).
    workers: Option<usize>,
    queue_capacity: Option<usize>,
}

impl TelemetrySources {
    pub fn new(registry: Arc<Registry>) -> Self {
        Self {
            registry,
            sim_now: None,
            epoch: Instant::now(),
            workers: None,
            queue_capacity: None,
        }
    }

    /// Attach the deterministic sim clock (windowed rates can then be
    /// expressed against simulated seconds too).
    pub fn with_sim_clock(mut self, f: impl Fn() -> f64 + Send + Sync + 'static) -> Self {
        self.sim_now = Some(Arc::new(f));
        self
    }

    /// Re-anchor uptime to the service's start instant.
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        self.epoch = epoch;
        self
    }

    /// Declare the serving pool's shape so `/healthz` can compare the
    /// live `workers_alive` gauge against expectation.
    pub fn with_service_shape(mut self, workers: usize, queue_capacity: usize) -> Self {
        self.workers = Some(workers);
        self.queue_capacity = Some(queue_capacity);
        self
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn sim_secs(&self) -> f64 {
        self.sim_now.as_ref().map(|f| f()).unwrap_or(0.0)
    }
}

/// Endpoint configuration.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Shape of the rolling SLO window backing `/slo`.
    pub window: WindowConfig,
    /// Sampler cadence (also bounds shutdown latency of the sampler).
    pub sample_interval: Duration,
}

impl TelemetryConfig {
    pub const fn new() -> Self {
        Self {
            window: WindowConfig::new(),
            sample_interval: Duration::from_millis(250),
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::new()
    }
}

struct State {
    sources: TelemetrySources,
    window: RollingWindow,
    span_hint: WindowConfig,
    scrapes: Arc<canopus_obs::Counter>,
}

impl State {
    /// File a fresh sample as the window's leading edge.
    fn sample(&self) {
        self.window
            .sample_now(&self.sources.registry, self.sources.sim_secs());
    }
}

/// Handler threads, and connections that may wait for one; past both,
/// a connection is refused with `503`.
const HANDLERS: usize = 4;
const QUEUED: usize = 4;

/// The running endpoint: an accept thread, [`HANDLERS`] handler threads
/// and a sampler thread. Stops (and joins them all) on
/// [`stop`](TelemetryServer::stop) or drop.
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sampler_stop: Arc<(Mutex<bool>, Condvar)>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    state: Arc<State>,
}

impl TelemetryServer {
    /// Bind `listen` (e.g. `127.0.0.1:9090`, or port `0` for an
    /// ephemeral port — see [`addr`](TelemetryServer::addr)) and start
    /// serving. The window is primed with one immediate sample so early
    /// scrapes see a leading edge instead of an empty window.
    pub fn start(
        listen: &str,
        sources: TelemetrySources,
        cfg: TelemetryConfig,
    ) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let scrapes = sources.registry.counter(names::TELEMETRY_SCRAPES);
        let state = Arc::new(State {
            window: RollingWindow::new(cfg.window),
            span_hint: cfg.window,
            sources,
            scrapes,
        });
        state.sample();

        // Each connection travels with its accept instant: the head
        // deadline runs from there, so time spent queued counts too.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<(TcpStream, Instant)>(QUEUED);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let handlers = (0..HANDLERS)
            .map(|i| {
                let state = Arc::clone(&state);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("canopus-telemetry-{i}"))
                    .spawn(move || loop {
                        // The receiver's lock is held only while waiting
                        // for the next connection (a `let` drops it at
                        // the semicolon); the accept thread dropping the
                        // sender ends the loop.
                        let next = conn_rx
                            .lock()
                            .expect("no handler panics while it waits")
                            .recv();
                        let Ok((stream, accepted)) = next else { return };
                        // One slow or broken scraper must not take the
                        // endpoint down; errors only drop the connection.
                        let _ = serve_connection(stream, accepted + HEAD_DEADLINE, &state);
                    })
                    .expect("spawn telemetry handler thread")
            })
            .collect();

        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("canopus-telemetry".into())
                .spawn(move || {
                    let mut refused = VecDeque::with_capacity(QUEUED);
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let Ok(stream) = conn else { continue };
                        if let Err(TrySendError::Full((stream, _))) =
                            conn_tx.try_send((stream, Instant::now()))
                        {
                            if refused.len() == QUEUED {
                                if let Some(oldest) = refused.pop_front() {
                                    close_refused(oldest);
                                }
                            }
                            refused.push_back(refuse_busy(stream));
                        }
                    }
                })
                .expect("spawn telemetry accept thread")
        };

        let sampler_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let sampler = {
            let state = Arc::clone(&state);
            let flag = Arc::clone(&sampler_stop);
            let interval = cfg.sample_interval.max(Duration::from_millis(1));
            std::thread::Builder::new()
                .name("canopus-telemetry-sampler".into())
                .spawn(move || {
                    let (lock, cv) = &*flag;
                    let mut stopped = lock.lock().unwrap();
                    // Checked before every wait: a stop that lands before
                    // this thread first takes the lock has already
                    // notified, and waiting would sleep a whole interval.
                    while !*stopped {
                        let (guard, _) = cv.wait_timeout(stopped, interval).unwrap();
                        stopped = guard;
                        if !*stopped {
                            state.sample();
                        }
                    }
                })
                .expect("spawn telemetry sampler thread")
        };

        Ok(TelemetryServer {
            addr,
            stop,
            sampler_stop,
            accept: Some(accept),
            handlers,
            sampler: Some(sampler),
            state,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` of the running endpoint.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The rolling window backing `/slo` (tests drive it directly).
    pub fn window(&self) -> &RollingWindow {
        &self.state.window
    }

    /// Take a window sample right now (in addition to the sampler's
    /// cadence).
    pub fn sample_now(&self) {
        self.state.sample();
    }

    /// Scrape requests served so far (any route).
    pub fn scrapes(&self) -> u64 {
        self.state.scrapes.get()
    }

    /// Stop accepting, stop sampling, and join every thread. Idempotent.
    /// A handler finishes the connection it holds first, which the head
    /// deadline bounds.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        {
            let (lock, cv) = &*self.sampler_stop;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        // `accept` blocks in the listener; a throwaway connection to
        // ourselves wakes it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread has dropped the sender: each handler drains
        // what is queued and returns.
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// request handling
// ---------------------------------------------------------------------

/// The most a request head — request line, headers, blank line — may
/// occupy, and the longest a client may take, from its accept, to send
/// it. Both bound what one connection can cost a handler thread.
const MAX_HEAD_BYTES: u64 = 8 << 10;
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Answer a connection no handler has room for, on the accept thread:
/// the socket is non-blocking, so a client that reads nothing cannot
/// stall the accept loop. The refusal fits an empty send buffer.
///
/// The socket is half-closed, not closed: the accept thread keeps the
/// last [`QUEUED`] refused ones open. A request that arrives after the
/// refusal then lands on an open socket; on a closed one it would draw
/// a reset, which can overtake the 503 or fail the client's next write.
fn refuse_busy(mut stream: TcpStream) -> TcpStream {
    let _ = stream.set_nonblocking(true);
    let _ = stream.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: 1\r\nConnection: close\r\n\r\n",
    );
    let _ = stream.shutdown(Shutdown::Write);
    stream
}

/// Close a refused connection once newer ones have pushed it out. Its
/// request is read first (what has arrived, never waiting): a socket
/// closed with unread bytes sends a reset.
fn close_refused(stream: TcpStream) {
    let _ = io::copy(&mut (&stream).take(MAX_HEAD_BYTES), &mut io::sink());
}

/// Read a request head off `stream`: up to the blank line (or the
/// client's half-close), within [`MAX_HEAD_BYTES`] and by `deadline`
/// whatever the pace of the bytes — each read's timeout is what is left
/// of the one deadline. Past either limit the answer is the status line
/// to refuse the request with.
fn read_head(stream: &TcpStream, deadline: Instant) -> io::Result<Result<Vec<u8>, &'static str>> {
    let mut head = Vec::with_capacity(512);
    let mut limited = stream.take(MAX_HEAD_BYTES);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(Err("408 Request Timeout"));
        }
        stream.set_read_timeout(Some(left))?;
        let n = match limited.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::Interrupted) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(Err("408 Request Timeout"));
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            // The cap, or a client that sent what it had and shut down.
            return Ok(match limited.limit() {
                0 => Err("431 Request Header Fields Too Large"),
                _ => Ok(head),
            });
        }
        // The blank line may straddle two reads.
        let seen = head.len().saturating_sub(3);
        head.extend_from_slice(&chunk[..n]);
        let tail = &head[seen..];
        if tail.windows(2).any(|w| w == b"\n\n") || tail.windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(Ok(head));
        }
    }
}

/// Read one request (its head by `deadline`), write one response, close.
fn serve_connection(mut stream: TcpStream, deadline: Instant, state: &State) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Headers are read (so well-behaved clients aren't reset mid-send)
    // and ignored.
    let head = read_head(&stream, deadline)?;
    let head = head.as_ref().map(|head| String::from_utf8_lossy(head));
    let request_line = head
        .as_ref()
        .map_or("", |head| head.lines().next().unwrap_or(""));

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Scrapers sometimes append query strings; route on the path alone.
    let route = path.split('?').next().unwrap_or(path);

    let error = |why: &str| {
        Value::Obj(BTreeMap::from([(
            "error".to_string(),
            Value::Str(why.to_string()),
        )]))
        .to_pretty()
    };
    let (status, content_type, body) = if let Err(&refused) = head {
        (
            refused,
            "application/json",
            error("request head beyond 8 KiB or 2 s"),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "application/json",
            error("only GET is supported"),
        )
    } else {
        state.scrapes.inc();
        match route {
            "/" => ("200 OK", "text/plain; charset=utf-8", index_text()),
            "/metrics" => (
                "200 OK",
                // The Prometheus text exposition format version.
                "text/plain; version=0.0.4; charset=utf-8",
                prometheus_text(&state.sources.registry.snapshot()),
            ),
            "/metrics.json" => (
                "200 OK",
                "application/json",
                state.sources.registry.snapshot().to_json_string(),
            ),
            "/healthz" => ("200 OK", "application/json", healthz(state).to_pretty()),
            "/slo" => ("200 OK", "application/json", slo(state).to_pretty()),
            _ => (
                "404 Not Found",
                "application/json",
                Value::Obj(BTreeMap::from([
                    ("error".to_string(), Value::Str(format!("no route {route}"))),
                    (
                        "routes".to_string(),
                        Value::Arr(ROUTES.iter().map(|r| Value::Str(r.to_string())).collect()),
                    ),
                ]))
                .to_pretty(),
            ),
        }
    };

    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

const ROUTES: &[&str] = &["/metrics", "/metrics.json", "/healthz", "/slo"];

fn index_text() -> String {
    let mut s = String::from("canopus telemetry endpoint\n\nroutes:\n");
    for r in ROUTES {
        s.push_str("  ");
        s.push_str(r);
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------------
// route bodies
// ---------------------------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `/healthz`: is the service alive and keeping up?
fn healthz(state: &State) -> Value {
    let snap = state.sources.registry.snapshot();
    let uptime_ms = state.sources.epoch.elapsed().as_millis() as i64;
    let alive = snap.gauge(names::SERVE_WORKERS_ALIVE);
    let status = match state.sources.workers {
        // A pool was declared but every worker has exited: degraded.
        Some(w) if w > 0 && alive <= 0 => "degraded",
        _ => "ok",
    };
    obj(vec![
        ("status", Value::Str(status.to_string())),
        ("uptime_ms", Value::Int(uptime_ms as i128)),
        (
            "queue_depth",
            Value::Int(snap.gauge(names::SERVE_QUEUE_DEPTH) as i128),
        ),
        (
            "queue_capacity",
            state
                .sources
                .queue_capacity
                .map(|c| Value::Int(c as i128))
                .unwrap_or(Value::Null),
        ),
        (
            "inflight",
            Value::Int(snap.gauge(names::SERVE_INFLIGHT) as i128),
        ),
        ("workers_alive", Value::Int(alive as i128)),
        (
            "workers_expected",
            state
                .sources
                .workers
                .map(|w| Value::Int(w as i128))
                .unwrap_or(Value::Null),
        ),
    ])
}

fn quantiles(h: &HistogramStat) -> Value {
    obj(vec![
        ("count", Value::Int(h.count as i128)),
        ("p50_s", Value::Float(h.p50_secs())),
        ("p99_s", Value::Float(h.p99_secs())),
        ("max_s", Value::Float(h.max_secs())),
    ])
}

/// One class's SLO block from any snapshot-shaped source.
fn class_slo(
    class: &str,
    counter: &dyn Fn(&str) -> u64,
    histogram: &dyn Fn(&str) -> HistogramStat,
) -> Value {
    let hits = counter(&names::serve_deadline_hit(class));
    let misses = counter(&names::serve_deadline_miss(class));
    obj(vec![
        (
            "completed",
            Value::Int(counter(&names::serve_completed(class)) as i128),
        ),
        ("deadline_hits", Value::Int(hits as i128)),
        ("deadline_misses", Value::Int(misses as i128)),
        (
            "attainment_ppm",
            Value::Int(crate::serve::attainment_ppm(hits, misses) as i128),
        ),
        (
            "queue_wait",
            quantiles(&histogram(&names::serve_queue_wait_hist(class))),
        ),
        (
            "latency",
            quantiles(&histogram(&names::serve_latency_hist(class))),
        ),
    ])
}

/// `/slo`: per-class deadline attainment and latency quantiles, both
/// cumulative-since-start and over the rolling window.
fn slo(state: &State) -> Value {
    // Refresh the leading edge so the window always includes work done
    // right up to this scrape (not just the sampler's last pass).
    state.sample();
    let snap = state.sources.registry.snapshot();
    let delta = state.window.delta();

    let classes = [Priority::QuickLook, Priority::FullAccuracy];
    let mut cumulative = BTreeMap::new();
    let mut windowed = BTreeMap::new();
    for p in classes {
        let class = p.class();
        cumulative.insert(
            class.to_string(),
            class_slo(class, &|n| snap.counter(n), &|n| snap.histogram(n)),
        );
        if let Some(d) = &delta {
            windowed.insert(
                class.to_string(),
                class_slo(class, &|n| d.count(n), &|n| d.histogram(n)),
            );
        }
    }

    let mut deadlines = BTreeMap::new();
    for p in classes {
        deadlines.insert(
            p.class().to_string(),
            Value::Float(p.default_deadline().as_secs_f64()),
        );
    }

    obj(vec![
        ("deadline_budget_s", Value::Obj(deadlines)),
        ("cumulative", Value::Obj(cumulative)),
        (
            "window",
            obj(vec![
                ("span_secs_max", Value::Float(state.span_hint.span_secs())),
                (
                    "wall_secs",
                    delta
                        .as_ref()
                        .map(|d| Value::Float(d.wall_secs))
                        .unwrap_or(Value::Null),
                ),
                (
                    "sim_secs",
                    delta
                        .as_ref()
                        .map(|d| Value::Float(d.sim_secs))
                        .unwrap_or(Value::Null),
                ),
                ("classes", Value::Obj(windowed)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------
// a tiny scrape client (tests + `canopus serve` shutdown summary)
// ---------------------------------------------------------------------

/// Blocking one-shot `GET` against a running endpoint; returns
/// `(status_code, body)`. Deliberately minimal — test and CLI helper,
/// not a general HTTP client.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        if line == "\r\n" || line == "\n" {
            break;
        }
        line.clear();
    }
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_obs::json;

    fn bare_sources() -> TelemetrySources {
        let reg = Arc::new(Registry::new());
        reg.counter("canopus.test.events").add(7);
        TelemetrySources::new(reg).with_sim_clock(|| 1.5)
    }

    fn start(sources: TelemetrySources) -> TelemetryServer {
        TelemetryServer::start("127.0.0.1:0", sources, TelemetryConfig::default()).unwrap()
    }

    #[test]
    fn serves_all_routes_on_an_ephemeral_port() {
        let server = start(bare_sources());
        let addr = server.addr();
        let t = Duration::from_secs(5);

        let (status, body) = http_get(addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("canopus_test_events 7"),
            "prometheus text: {body}"
        );

        let (status, body) = http_get(addr, "/metrics.json", t).unwrap();
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("canopus.test.events"))
                .and_then(Value::as_u64),
            Some(7)
        );

        let (status, body) = http_get(addr, "/healthz", t).unwrap();
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(doc.get("workers_expected"), Some(&Value::Null));

        let (status, body) = http_get(addr, "/slo", t).unwrap();
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        assert!(doc.get("cumulative").and_then(|c| c.get("quick")).is_some());

        let (status, _) = http_get(addr, "/nope", t).unwrap();
        assert_eq!(status, 404);
        assert_eq!(server.scrapes(), 5, "every GET counted, including the 404");
    }

    /// A connected pair: the server's end and the client's.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (listener.accept().unwrap().0, client)
    }

    #[test]
    fn a_head_ends_at_its_blank_line_however_it_arrives() {
        let soon = || Instant::now() + Duration::from_secs(5);
        for (sent, what) in [
            (
                &[&b"GET /x HTTP/1.1\r\nHost: a\r\n\r\nbody"[..]][..],
                "one write",
            ),
            (
                &[b"GET /x HTTP/1.1\r\nHost: a\r", b"\n\r", b"\n"],
                "straddled",
            ),
            (&[b"GET /x HTTP/1.1\n", b"\n"], "bare newlines"),
        ] {
            let (server, mut client) = socket_pair();
            for part in sent {
                client.write_all(part).unwrap();
                client.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
            let head = read_head(&server, soon()).unwrap().expect(what);
            assert!(head.starts_with(b"GET /x HTTP/1.1"), "{what}");
        }
        // A client that sends a bare request line and half-closes.
        let (server, mut client) = socket_pair();
        client.write_all(b"GET /healthz").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(
            read_head(&server, soon()).unwrap(),
            Ok(b"GET /healthz".to_vec())
        );
    }

    #[test]
    fn a_head_is_refused_past_the_byte_cap_and_past_the_one_deadline() {
        // More than the cap without a blank line: refused after reading
        // the cap, not the megabyte.
        let (server, mut client) = socket_pair();
        let writer = std::thread::spawn(move || {
            // The server stops reading; the write may fail.
            let _ = client.write_all(&vec![b'a'; 1 << 20]);
            client
        });
        let refused = read_head(&server, Instant::now() + Duration::from_secs(5)).unwrap();
        assert_eq!(refused, Err("431 Request Header Fields Too Large"));
        drop(server);
        writer.join().unwrap();

        // Bytes that keep coming, each well inside a per-read timeout:
        // the deadline is one for the whole head. The dripper is told
        // when to stop, so the test does not race it.
        let (server, mut client) = socket_pair();
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let dripper = std::thread::spawn(move || {
            while stopped.recv_timeout(Duration::from_millis(5)).is_err() {
                if client.write_all(b"a").is_err() {
                    break;
                }
            }
        });
        let begun = Instant::now();
        let refused = read_head(&server, begun + Duration::from_millis(100)).unwrap();
        assert_eq!(refused, Err("408 Request Timeout"));
        assert!(begun.elapsed() >= Duration::from_millis(100));
        assert!(begun.elapsed() < Duration::from_secs(2));
        stop.send(()).unwrap();
        dripper.join().unwrap();
    }

    #[test]
    fn an_oversized_request_gets_its_431_and_the_next_scrape_its_answer() {
        let server = start(bare_sources());
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Exactly the cap, so the server's close finds nothing unread
        // and the refusal is not lost to a reset.
        client
            .write_all(&vec![b'a'; MAX_HEAD_BYTES as usize])
            .unwrap();
        let mut answer = String::new();
        client.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 431 "), "{answer}");
        let (status, _) = http_get(server.addr(), "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(server.scrapes(), 1, "a refused head is not a scrape");
    }

    #[test]
    fn a_dripping_client_holds_one_handler_not_the_endpoint() {
        let mut server = start(bare_sources());
        // A head that is never finished: its handler waits out the 2 s
        // deadline while the other handlers serve.
        let mut dripper = TcpStream::connect(server.addr()).unwrap();
        dripper.write_all(b"GET /heal").unwrap();
        let begun = Instant::now();
        let (status, _) = http_get(server.addr(), "/healthz", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert!(
            begun.elapsed() < Duration::from_millis(100),
            "/healthz took {:?} behind a dripping client",
            begun.elapsed()
        );
        // Stop joins every thread, the dripper's handler once its
        // deadline has passed.
        let begun = Instant::now();
        server.stop();
        assert!(begun.elapsed() < HEAD_DEADLINE + Duration::from_secs(1));
        assert!(http_get(server.addr(), "/healthz", Duration::from_millis(300)).is_err());
        drop(dripper);
    }

    #[test]
    fn a_full_pool_answers_503_at_once() {
        let server = start(bare_sources());
        // Silent clients: the pool holds at most one per handler and one
        // per queue slot, so of one more than that at least one is
        // refused, whichever order the handlers take them in.
        let clients: Vec<TcpStream> = (0..=HANDLERS + QUEUED)
            .map(|_| {
                let client = TcpStream::connect(server.addr()).unwrap();
                client.set_nonblocking(true).unwrap();
                client
            })
            .collect();
        let begun = Instant::now();
        let mut answers = vec![Vec::new(); clients.len()];
        while !answers.iter().any(|a| a.starts_with(b"HTTP/1.1 503 ")) {
            // A held client hears nothing before its 2 s deadline.
            assert!(
                begun.elapsed() < Duration::from_secs(1),
                "no connection refused: {answers:?}"
            );
            for (mut client, answer) in clients.iter().zip(&mut answers) {
                let mut buf = [0u8; 256];
                if let Ok(n) = client.read(&mut buf) {
                    answer.extend_from_slice(&buf[..n]);
                }
            }
            std::thread::yield_now();
        }
        // A scraper sends its request before it reads: refused, it still
        // reads the whole 503 to the end, not a reset. (Should a handler
        // have freed a queue slot late, the scraper waits there, to be
        // served once a silent client's deadline passes; the next one is
        // refused.)
        let (mut refused, mut queued) = (None, 0);
        while refused.is_none() && queued <= HANDLERS {
            match http_get(server.addr(), "/healthz", Duration::from_millis(300)) {
                Ok(answer) => refused = Some(answer),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    queued += 1
                }
                Err(e) => panic!("a refused scraper read {e}"),
            }
        }
        assert_eq!(refused, Some((503, String::new())));
        // Closed clients free their handlers and the endpoint serves
        // again (once the handlers have drained the queue).
        drop(clients);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(
            http_get(server.addr(), "/healthz", Duration::from_secs(5)),
            Ok((200, _))
        ) {
            assert!(Instant::now() < deadline, "the pool never freed up");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.scrapes(),
            1 + queued as u64,
            "a refusal is not a scrape"
        );
    }

    #[test]
    fn stop_is_prompt_and_idempotent() {
        let mut server = start(bare_sources());
        let addr = server.addr();
        let begun = Instant::now();
        server.stop();
        server.stop();
        assert!(begun.elapsed() < Duration::from_secs(5));
        assert!(
            http_get(addr, "/metrics", Duration::from_millis(300)).is_err(),
            "stopped endpoint no longer answers"
        );
    }

    #[test]
    fn slo_scrape_includes_work_done_this_instant() {
        let reg = Arc::new(Registry::new());
        let server = start(TelemetrySources::new(Arc::clone(&reg)));
        // Record between sampler passes; the handler's own leading-edge
        // sample must still pick it up.
        reg.counter(&names::serve_deadline_miss("quick")).add(3);
        let (_, body) = http_get(server.addr(), "/slo", Duration::from_secs(5)).unwrap();
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.get("cumulative")
                .and_then(|c| c.get("quick"))
                .and_then(|q| q.get("deadline_misses"))
                .and_then(Value::as_u64),
            Some(3)
        );
        // The windowed view exists and is itself a per-class object.
        assert!(doc
            .get("window")
            .and_then(|w| w.get("classes"))
            .and_then(|c| c.get("quick"))
            .is_some());
    }
}
