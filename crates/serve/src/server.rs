//! The `fitsd` server: accept loop, bounded worker pool, the
//! cache → coalesce → compute request pipeline, and the telemetry plane
//! threaded through all of it.
//!
//! ```text
//! accept ──try_push──▶ JobQueue ──pop──▶ worker ──▶ route
//!    │ Full                                           │ POST
//!    ▼                                                ▼
//!  503 + Retry-After              cache hit? ── yes ─▶ respond (X-Cache: hit)
//!                                      │ no
//!                                 claim canonical
//!                                 ├─ Follower ───────▶ respond (X-Cache: coalesced)
//!                                 └─ Leader ─ compute ▶ cache.put + complete
//! ```
//!
//! Every request gets a trace id (echoed as `X-Fits-Trace`) and, with
//! tracing on, a per-request span tree covering queue-wait / parse /
//! cache-lookup / coalesce-wait / execute / serialize / write. Engine
//! phases (profile, synthesis, replay pricing) land *inside* the
//! `execute` span through the [`fits_obs::ScopedObserver`] installed for
//! the duration of the compute call. Completed requests feed three sinks:
//! the metrics plane (lifetime + windowed), the JSONL access log (bounded
//! channel, never blocks the request path), and the in-memory flight
//! recorder behind `GET /debug/flight`.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fits_bench::ArtifactsPool;
use fits_core::TeeObserver;
use fits_obs::event::{event_line, Level};
use fits_obs::{
    AccessRecord, EventLog, FlightRecorder, RequestSummary, ScopedObserver, ScopedSpans,
    SpanRegistry,
};

use crate::api::{self, ApiError, PostRequest};
use crate::cache::{content_address, fnv64, ResultCache};
use crate::coalesce::{Claim, Coalescer};
use crate::http::{read_request, write_response, Response};
use crate::metrics::{MetricsContext, ServeMetrics};
use crate::queue::{JobQueue, PushError};

/// Tunables for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Job-queue capacity; pushes beyond it are shed with 503.
    pub queue_capacity: usize,
    /// Result-cache capacity in responses (0 disables caching).
    pub cache_capacity: usize,
    /// Per-request span tracing. Trace ids are always issued; this gates
    /// span collection (and therefore flight-recorder span trees and
    /// access-log phase entries). Response *bodies* are byte-identical
    /// either way — tracing only ever adds headers and side channels.
    pub tracing: bool,
    /// JSONL access-log path (`None` disables the log entirely).
    pub access_log: Option<PathBuf>,
    /// Access-log channel capacity (lines in flight to the writer
    /// thread); overflow is dropped and counted, never waited on.
    pub log_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: 128,
            cache_capacity: 256,
            tracing: true,
            access_log: None,
            log_capacity: 1024,
        }
    }
}

/// Everything the worker and accept threads share.
pub struct ServerState {
    /// Artifact caches, one per synthesis-option set. Carries a scoped
    /// observer so engine stages report into the in-flight request's
    /// span tree (plus the lifetime span registry).
    pub pool: ArtifactsPool,
    /// Finished-response cache.
    pub cache: ResultCache,
    /// In-flight request table.
    pub coalescer: Coalescer,
    /// The backpressure queue of accepted connections, stamped with their
    /// accept time so queue-wait is measurable.
    pub queue: JobQueue<(TcpStream, Instant)>,
    /// Service counters, latency (lifetime + windowed) and gauges.
    pub metrics: ServeMetrics,
    /// Recent-request ring + slowest-N exemplars (`GET /debug/flight`).
    pub flight: FlightRecorder,
    /// The JSONL access/event log (disabled unless configured).
    pub log: EventLog,
    /// Worker-thread count (reported in `/metrics`).
    pub workers: usize,
    /// Whether per-request span tracing is on.
    pub tracing: bool,
    /// The build's git commit (stamped into healthz and the log meta).
    pub commit: String,
    started: Instant,
    trace_nonce: u64,
    trace_seq: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    fn new(config: &ServerConfig) -> ServerState {
        let metrics = ServeMetrics::new();
        // Engine stages tee into two sinks: the thread-scoped per-request
        // registry (nested under that request's `execute` span) and the
        // lifetime registry in /metrics (flat, top-level).
        let observer = TeeObserver::new()
            .with(Arc::new(ScopedObserver))
            .with(Arc::new(metrics.spans.clone()));
        let commit = fits_bench::stamp::git_commit();
        let log = match &config.access_log {
            Some(path) => match EventLog::to_file(path, config.log_capacity, &commit) {
                Ok(log) => log,
                Err(e) => {
                    eprintln!(
                        "fitsd: access log {}: {e}; logging disabled",
                        path.display()
                    );
                    EventLog::disabled()
                }
            },
            None => EventLog::disabled(),
        };
        let nonce_seed = format!(
            "{}:{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos())
        );
        ServerState {
            pool: ArtifactsPool::new().with_flow_observer(Arc::new(observer)),
            cache: ResultCache::new(config.cache_capacity),
            coalescer: Coalescer::new(),
            queue: JobQueue::new(config.queue_capacity),
            metrics,
            flight: FlightRecorder::default(),
            log,
            workers: config.workers,
            tracing: config.tracing,
            commit,
            started: Instant::now(),
            trace_nonce: fnv64(nonce_seed.as_bytes()),
            trace_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// A fresh trace id: a per-process nonce plus a sequence number, so
    /// ids are unique within a run and distinguishable across restarts.
    #[must_use]
    pub fn next_trace(&self) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:06x}", self.trace_nonce as u32)
    }

    /// Seconds since the daemon started.
    #[must_use]
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The gauge values and log counters a metrics render needs.
    #[must_use]
    pub fn metrics_context(&self) -> MetricsContext {
        MetricsContext {
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            workers: self.workers,
            cache_entries: self.cache.len(),
            uptime_s: self.uptime_s(),
            log_emitted: self.log.emitted(),
            log_dropped: self.log.dropped(),
        }
    }
}

/// A running daemon: its bound address plus the handles needed to stop it.
pub struct ServerHandle {
    /// The bound socket address (resolved port included).
    pub addr: std::net::SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The shared state (tests inspect counters through this).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops the daemon: closes the queue (pending requests still drain),
    /// unblocks the accept loop, joins every thread, dumps the flight
    /// recorder into the event log, and flushes the log.
    pub fn stop(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.close();
        // The accept loop is parked in accept(2); a throwaway connection
        // wakes it so it can observe the shutdown flag.
        drop(TcpStream::connect(self.addr));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(ticker) = self.ticker.take() {
            let _ = ticker.join();
        }
        self.state.log.emit(event_line(
            Level::Info,
            &format!("shutdown flight dump: {}", self.state.flight.render_json()),
        ));
        self.state.log.close();
    }
}

/// Binds and starts a daemon.
///
/// # Errors
///
/// Socket bind failures.
pub fn spawn(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(config));
    state.log.emit(event_line(
        Level::Info,
        &format!("fitsd listening on {addr} ({} workers)", config.workers),
    ));

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("fitsd-worker-{i}"))
                .spawn(move || {
                    while let Some((mut stream, accepted)) = state.queue.pop() {
                        handle_connection(&state, &mut stream, accepted);
                    }
                })
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    // Queue-depth and cache-size gauges are sampled on a ticker (several
    // times per second), not per request, so an idle daemon still has a
    // truthful last-minute view.
    let ticker = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("fitsd-gauges".to_string())
            .spawn(move || {
                while !state.shutdown.load(Ordering::SeqCst) {
                    state.metrics.queue_gauge.sample(state.queue.depth() as u64);
                    state.metrics.cache_gauge.sample(state.cache.len() as u64);
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            })?
    };

    let accept = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("fitsd-accept".to_string())
            .spawn(move || accept_loop(&listener, &state))?
    };

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        ticker: Some(ticker),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, state: &ServerState) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Err(((mut stream, _), err)) = state.queue.try_push((stream, Instant::now())) {
            match err {
                PushError::Full => shed(state, &mut stream),
                PushError::Closed => return,
            }
        }
    }
}

/// Answers 503 with `Retry-After` directly from the accept thread — the
/// whole point of bounding the queue is that overload costs one small
/// write, not a worker slot. Sheds still get a trace id and a `warn`
/// event-log line, but stay out of the request counters (`rejected` is
/// their ledger).
fn shed(state: &ServerState, stream: &mut TcpStream) {
    state.metrics.rejected.inc();
    let trace = state.next_trace();
    let err = ApiError::new("overloaded", "", "job queue is full; retry shortly");
    let response = Response::json(503, err.body())
        .with_header("Retry-After", "1".to_string())
        .with_header("X-Fits-Trace", trace.clone());
    let _ = stream.set_write_timeout(Some(crate::http::IO_TIMEOUT));
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let _ = write_response(stream, &response);
    state
        .log
        .emit_with(|| event_line(Level::Warn, &format!("shed trace={trace}: job queue full")));
    // Drain the unread request before closing, or the kernel answers the
    // client's pending bytes with RST and it never sees the 503.
    use std::io::Read;
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn handle_connection(state: &ServerState, stream: &mut TcpStream, accepted: Instant) {
    let start = Instant::now();
    let trace = state.next_trace();
    let spans = state.tracing.then(SpanRegistry::new);
    if let Some(reg) = &spans {
        reg.add("queue-wait", start.duration_since(accepted));
    }
    let parse_started = Instant::now();
    let request = match read_request(stream) {
        Ok(request) => request,
        Err(err) => {
            if let Some(reg) = &spans {
                reg.add("parse", parse_started.elapsed());
            }
            // Includes oversized heads/bodies; the error body still follows
            // the response schema so clients can always parse what they get.
            let api_err = ApiError::new("bad_request", "", err.to_string());
            let status = match err {
                crate::http::HttpError::BodyTooLarge => 413,
                _ => 400,
            };
            respond(
                state,
                stream,
                &trace,
                "-",
                "http",
                start,
                spans.as_ref(),
                Response::json(status, api_err.body()),
            );
            return;
        }
    };
    if let Some(reg) = &spans {
        reg.add("parse", parse_started.elapsed());
    }

    let endpoint = request.path().trim_start_matches('/').to_string();
    let response = match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => {
            Response::json(200, api::healthz_body(state.uptime_s(), &state.commit))
        }
        ("GET", "/metrics") => {
            let ctx = state.metrics_context();
            if request.query_param("format") == Some("text") {
                Response::text(200, state.metrics.render_prometheus(&ctx))
            } else {
                Response::json(200, state.metrics.render_json(&ctx))
            }
        }
        ("GET", "/debug/flight") => Response::json(200, state.flight.render_json()),
        ("POST", path) => handle_post(state, path, &request.body, spans.as_ref())
            .unwrap_or_else(|| misrouted(&request.method, path)),
        (method, path) => misrouted(method, path),
    };
    respond(
        state,
        stream,
        &trace,
        &request.method,
        &endpoint,
        start,
        spans.as_ref(),
        response,
    );
}

/// Writes the response (with the trace id echoed), then fans the finished
/// request out to the three telemetry sinks: metrics, access log, flight
/// recorder.
#[allow(clippy::too_many_arguments)]
fn respond(
    state: &ServerState,
    stream: &mut TcpStream,
    trace: &str,
    method: &str,
    endpoint: &str,
    start: Instant,
    spans: Option<&SpanRegistry>,
    response: Response,
) {
    let response = response.with_header("X-Fits-Trace", trace.to_string());
    let status = response.status;
    let write_started = Instant::now();
    let _ = write_response(stream, &response);
    if let Some(reg) = spans {
        reg.add("write", write_started.elapsed());
    }
    let wall = start.elapsed();
    state.metrics.finish(endpoint, status, wall);
    let cache = response
        .headers
        .iter()
        .find(|(name, _)| *name == "X-Cache")
        .map_or("-", |(_, v)| v.as_str());
    let us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    let phases = spans.map(SpanRegistry::snapshot).unwrap_or_default();
    state.log.emit_with(|| {
        AccessRecord {
            trace,
            method,
            endpoint,
            status,
            cache,
            us,
            phases: &phases,
        }
        .line()
    });
    state.flight.record(
        RequestSummary {
            seq: 0,
            trace: trace.to_string(),
            method: method.to_string(),
            endpoint: endpoint.to_string(),
            status,
            cache: cache.to_string(),
            us,
        },
        phases,
    );
}

/// The answer to a request no route takes: 405 for GET or POST on a path
/// that serves the other method, 404 otherwise.
fn misrouted(method: &str, path: &str) -> Response {
    let known = matches!(path, "/healthz" | "/metrics" | "/debug/flight")
        || api::POST_ENDPOINTS.iter().any(|row| row.0 == path);
    let (status, err) = if known && matches!(method, "GET" | "POST") {
        let message = format!("{method} not supported on {path}");
        (405, ApiError::new("method_not_allowed", "", message))
    } else {
        let message = format!("no such endpoint {path:?}");
        (404, ApiError::new("not_found", "", message))
    };
    Response::json(status, err.body())
}

/// Answers a POST to `target`, or `None` when no POST endpoint has that
/// target ([`api::POST_ENDPOINTS`] decides).
fn handle_post(
    state: &ServerState,
    target: &str,
    body: &str,
    spans: Option<&SpanRegistry>,
) -> Option<Response> {
    let parse_started = Instant::now();
    let parsed = PostRequest::from_target(target, body);
    if let Some(reg) = spans {
        // Merges with the head-read parse span by name.
        reg.add("parse", parse_started.elapsed());
    }
    let request = match parsed {
        Ok(request) => request?,
        Err(err) => return Some(Response::json(400, err.body())),
    };
    let canonical = request.canonical();
    let address = content_address(&canonical);

    let lookup_started = Instant::now();
    let cached = state.cache.get(&canonical);
    if let Some(reg) = spans {
        reg.add("cache-lookup", lookup_started.elapsed());
    }
    if let Some(cached) = cached {
        state.metrics.cache_hits.inc();
        return Some(
            serialize(spans, 200, &cached)
                .with_header("X-Fits-Key", address)
                .with_header("X-Cache", "hit".to_string()),
        );
    }

    let claim_started = Instant::now();
    Some(match state.coalescer.claim(&canonical) {
        Claim::Follower(shared) => {
            if let Some(reg) = spans {
                reg.add("coalesce-wait", claim_started.elapsed());
            }
            state.metrics.coalesced_joins.inc();
            serialize(spans, shared.0, &shared.1)
                .with_header("X-Fits-Key", address)
                .with_header("X-Cache", "coalesced".to_string())
        }
        Claim::Leader => {
            state.metrics.executions.inc();
            let artifacts = state.pool.for_config(request.synth(), request.isa());
            // Install the per-request registry as this thread's scoped
            // span sink for the duration of the compute call: engine
            // stages (profile, synthesis, replay pricing) nest under the
            // open `execute` span.
            let result = {
                let _install = spans.map(ScopedSpans::install);
                let exec_guard = spans.map(|reg| reg.enter("execute"));
                let result = request.compute(&artifacts);
                drop(exec_guard);
                result
            };
            let (status, body) = match result {
                Ok(body) => (200, body),
                Err(err) => (500, api::internal_error_body(&err)),
            };
            let shared_body = Arc::new(body);
            if status == 200 {
                state.cache.put(&canonical, Arc::clone(&shared_body));
            }
            // Publish even on failure, or followers hang to their timeout.
            state
                .coalescer
                .complete(&canonical, Arc::new((status, Arc::clone(&shared_body))));
            serialize(spans, status, &shared_body)
                .with_header("X-Fits-Key", address)
                .with_header("X-Cache", "miss".to_string())
        }
    })
}

/// Builds the response from a shared body, timing the copy as the
/// `serialize` phase.
fn serialize(spans: Option<&SpanRegistry>, status: u16, body: &Arc<String>) -> Response {
    let started = Instant::now();
    let response = Response::json(status, (**body).clone());
    if let Some(reg) = spans {
        reg.add("serialize", started.elapsed());
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn boots_serves_health_and_stops() {
        let handle = spawn(&ServerConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = handle.addr;
        let response = client::request_raw(addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!(response.status, 200);
        assert_eq!(api::validate_serve_json(&response.body).unwrap(), "healthz");
        let trace = response
            .header("x-fits-trace")
            .expect("every response carries a trace id")
            .to_string();
        assert!(!trace.is_empty());
        let (status, body) = client::get(addr, "/metrics").expect("metrics");
        assert_eq!(status, 200);
        assert_eq!(api::validate_serve_json(&body).unwrap(), "metrics");
        let (status, text) = client::get(addr, "/metrics?format=text").expect("text metrics");
        assert_eq!(status, 200);
        assert!(crate::metrics::validate_prometheus(&text).unwrap() > 0);
        let (status, flight) = client::get(addr, "/debug/flight").expect("flight");
        assert_eq!(status, 200);
        api::validate_flight_json(&flight).expect("flight dump validates");
        let (status, _) = client::get(addr, "/nope").expect("404");
        assert_eq!(status, 404);
        let (status, _) = client::post(addr, "/healthz", "").expect("405");
        assert_eq!(status, 405);
        let (status, _) = client::post(addr, "/debug/flight", "").expect("405");
        assert_eq!(status, 405);
        // POST targets come from the endpoint table: a GET on one is a 405,
        // a POST to a path the table lacks a 404.
        let (status, _) = client::get(addr, "/sweep").expect("405");
        assert_eq!(status, 405);
        let (status, _) = client::post(addr, "/nope", "{}").expect("404");
        assert_eq!(status, 404);
        // Trace ids are unique per request.
        let second = client::request_raw(addr, "GET", "/healthz", "").expect("healthz again");
        assert_ne!(second.header("x-fits-trace"), Some(trace.as_str()));
        handle.stop();
    }

    #[test]
    fn zero_capacity_queue_sheds_with_retry_after() {
        let handle = spawn(&ServerConfig {
            workers: 1,
            queue_capacity: 0,
            cache_capacity: 8,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = handle.addr;
        let response = client::request_raw(addr, "GET", "/healthz", "").expect("shed");
        assert_eq!(response.status, 503);
        assert!(
            response
                .headers
                .iter()
                .any(|(n, v)| n == "retry-after" && v == "1"),
            "503 must carry Retry-After: {:?}",
            response.headers
        );
        assert!(
            response.header("x-fits-trace").is_some(),
            "sheds get trace ids too"
        );
        assert_eq!(api::validate_serve_json(&response.body).unwrap(), "error");
        assert_eq!(handle.state().metrics.rejected.get(), 1);
        handle.stop();
    }

    #[test]
    fn structured_400_for_a_bad_body() {
        let handle = spawn(&ServerConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = handle.addr;
        let (status, body) =
            client::post(addr, "/synthesize", "{\"kernel\": \"zzz\"}").expect("post");
        assert_eq!(status, 400);
        assert_eq!(api::validate_serve_json(&body).unwrap(), "error");
        assert!(body.contains("\"pointer\": \"/kernel\""));
        handle.stop();
    }

    #[test]
    fn deeply_nested_body_is_a_400_and_the_daemon_survives() {
        let handle = spawn(&ServerConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = handle.addr;
        let (status, body) =
            client::post(addr, "/synthesize", &"[".repeat(64 * 1024)).expect("post");
        assert_eq!(status, 400);
        assert_eq!(api::validate_serve_json(&body).unwrap(), "error");
        assert!(body.contains("\"code\": \"parse\""), "{body}");
        let (status, body) = client::get(addr, "/healthz").expect("healthz");
        assert_eq!(status, 200);
        assert_eq!(api::validate_serve_json(&body).unwrap(), "healthz");
        handle.stop();
    }
}
