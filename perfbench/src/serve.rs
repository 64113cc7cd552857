//! `serve`: an in-process `fitsd` with its shipped defaults, driven by a
//! closed loop of two connections. Requests are a seeded stream over
//! `/simulate`, `/synthesize`, `/analyze` (static only) and
//! `/synthesize-multi`: a popular head, warmed during set-up so it hits
//! the result cache, and a ~5% tail of `/simulate` keys that differ from
//! the head only in cost-neutral machine fields. The tail is larger than
//! the 256-entry cache, so every tail request misses, inserts and evicts.
//!
//! Calibration runs in slices: both clients run for [`SLICE`], park, a
//! loopback reference burst is timed, and they resume. Each request is
//! calibrated against the bursts around its slice.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fits_bench::ArtifactsPool;
use fits_obs::json::{parse, Value};
use fits_rng::StdRng;
use fits_serve::client::request_raw;
use fits_serve::{spawn, PostRequest, ServerConfig, ServerHandle};

use crate::calib::{EchoServer, Reference, Timeline};
use crate::report::{report_latency, Report, SetupTimes};
use crate::stats::{geomean, mean, median, quantile};

/// Share of requests drawn from the tail, in percent.
const TAIL_PERCENT: u32 = 5;

/// Client-activity window between two reference bursts.
const SLICE: Duration = Duration::from_millis(100);

/// Concurrent client connections (the closed loop's population).
const CLIENTS: usize = 2;

/// Pre-generated stream length; clients wrap around past it.
const STREAM_LEN: usize = 1 << 20;

/// The kernels the stream asks about: the cheaper half of the suite at
/// the default test scale, so a tail miss costs a few milliseconds.
const KERNELS: &[&str] = &[
    "crc32",
    "adpcm.dec",
    "blowfish.enc",
    "rijndael.enc",
    "lame.filter",
    "fft",
    "ispell",
    "jpeg.dct",
];

/// `/synthesize-multi` member pairs in the head (indices into [`KERNELS`]).
const PAIRS: &[(usize, usize)] = &[(0, 4), (1, 5), (2, 7)];

/// Tail machine points: every preset x tech node x I-cache size. Each
/// names the same work as the head's default point.
const PRESETS: &[&str] = &["sa1100", "small-embedded", "modern-node"];
const TECHS: &[Option<&str>] = &[None, Some("sa1100"), Some("65nm")];
const ICACHE_BYTES: &[u32] = &[2048, 4096, 8192, 32768, 65536];

/// The response-cache capacity of a default `fitsd`.
const CACHE_CAPACITY: usize = 256;

/// One request the stream can send, with the body it must get back.
pub struct Request {
    /// Endpoint path.
    pub target: &'static str,
    /// JSON request body.
    pub body: String,
    /// The byte-exact expected 200 body.
    pub expected: String,
}

/// The request catalogue: head entries first, then the tail.
pub struct Catalogue {
    /// Every request.
    pub requests: Vec<Request>,
    /// How many leading entries are the head.
    pub head: usize,
}

fn head_requests() -> Vec<(&'static str, String)> {
    let mut head = Vec::new();
    for k in KERNELS {
        head.push(("/simulate", format!("{{\"kernel\": \"{k}\"}}")));
        head.push(("/synthesize", format!("{{\"kernel\": \"{k}\"}}")));
        head.push((
            "/analyze",
            format!("{{\"kernel\": \"{k}\", \"static_only\": true}}"),
        ));
    }
    for &(a, b) in PAIRS {
        head.push((
            "/synthesize-multi",
            format!("{{\"kernels\": [\"{}\", \"{}\"]}}", KERNELS[a], KERNELS[b]),
        ));
    }
    head
}

fn tail_requests() -> Vec<(&'static str, String)> {
    let mut tail = Vec::new();
    for k in KERNELS {
        for preset in PRESETS {
            for tech in TECHS {
                let tech = tech.map_or(String::new(), |t| format!(", \"tech\": \"{t}\""));
                for bytes in ICACHE_BYTES {
                    tail.push((
                        "/simulate",
                        format!(
                            "{{\"kernel\": \"{k}\", \"scenario\": \"{preset}\"{tech}, \"icache_bytes\": {bytes}}}"
                        ),
                    ));
                }
            }
        }
    }
    tail
}

/// Builds the catalogue with every expected body computed by
/// `PostRequest::compute` on a private artifact pool — the oracle the
/// daemon's answers are compared with byte for byte.
///
/// # Errors
///
/// A request that does not parse or compute, as text.
pub fn catalogue() -> Result<Catalogue, String> {
    let pool = ArtifactsPool::new();
    let head = head_requests();
    let head_len = head.len();
    let requests = head
        .into_iter()
        .chain(tail_requests())
        .map(|(target, body)| {
            let req = PostRequest::from_target(target, &body)
                .map_err(|e| format!("{target} {body}: {}", e.body()))?
                .ok_or_else(|| format!("{target}: not a POST endpoint"))?;
            let expected = req
                .compute(&pool.for_config(req.synth(), req.isa()))
                .map_err(|e| format!("{target} {body}: {e}"))?;
            Ok(Request {
                target,
                body,
                expected,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Catalogue {
        requests,
        head: head_len,
    })
}

/// The seeded request stream: indices into the catalogue. Head requests
/// are uniform over the head; tail requests walk a seeded permutation of
/// the tail, so a tail key returns only after every other tail key.
#[must_use]
pub fn stream(seed: u64, catalogue: &Catalogue, len: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tail_len = catalogue.requests.len() - catalogue.head;
    let mut order: Vec<usize> = (0..tail_len).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut next_tail = 0;
    (0..len)
        .map(|_| {
            let index = if rng.gen_range(0..100u32) < TAIL_PERCENT {
                next_tail += 1;
                catalogue.head + order[(next_tail - 1) % tail_len]
            } else {
                rng.gen_range(0..catalogue.head)
            };
            u32::try_from(index).expect("catalogue fits u32")
        })
        .collect()
}

/// A daemon that stops (joining every thread) when dropped.
struct Daemon(Option<ServerHandle>);

impl Daemon {
    fn addr(&self) -> std::net::SocketAddr {
        self.0.as_ref().expect("daemon running").addr
    }

    fn stop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.stop();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Setup {
    daemon: Daemon,
    catalogue: Catalogue,
    stream: Vec<u32>,
}

/// Set-up: oracle catalogue, a fresh daemon, and the head warmed into
/// its cache (each warm-up answer is checked too).
fn setup(seed: u64, access_log: Option<PathBuf>) -> Result<Setup, String> {
    if let Some(path) = &access_log {
        // The log appends; start each set-up's daemon on an empty one.
        let _ = std::fs::remove_file(path);
    }
    let catalogue = catalogue()?;
    if catalogue.requests.len() - catalogue.head <= CACHE_CAPACITY {
        return Err("the tail must outnumber the result cache".to_string());
    }
    let config = ServerConfig {
        access_log,
        ..ServerConfig::default()
    };
    let daemon = Daemon(Some(
        spawn(&config).map_err(|e| format!("spawn fitsd: {e}"))?,
    ));
    for req in &catalogue.requests[..catalogue.head] {
        let resp = request_raw(daemon.addr(), "POST", req.target, &req.body)
            .map_err(|e| format!("warm {}: {e}", req.target))?;
        if resp.status != 200 || resp.body != req.expected {
            return Err(format!(
                "warm {} {}: status {}",
                req.target, req.body, resp.status
            ));
        }
    }
    let stream = stream(seed, &catalogue, STREAM_LEN);
    Ok(Setup {
        daemon,
        catalogue,
        stream,
    })
}

/// One finished request as a client saw it.
#[derive(Clone, Copy)]
struct Sample {
    slice: u32,
    ms: f64,
    cache: CacheClass,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CacheClass {
    Hit,
    Coalesced,
    Miss,
    Other,
}

/// What one client thread collected.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failures: Vec<String>,
    failed: u64,
    shed: u64,
    /// Trace id and latency of each request in a traced slice (the
    /// benchmark-side trace).
    traces: Vec<(String, f64)>,
}

/// Shared slice control between the timing thread and the clients.
struct Control {
    go: Barrier,
    halt: Barrier,
    pause: AtomicBool,
    stop: AtomicBool,
    slice: AtomicUsize,
    traced: AtomicBool,
    next: AtomicUsize,
}

fn client(control: &Control, setup: &Setup) -> ClientLog {
    let mut log = ClientLog::default();
    let addr = setup.daemon.addr();
    loop {
        control.go.wait();
        if control.stop.load(Ordering::SeqCst) {
            return log;
        }
        let slice = u32::try_from(control.slice.load(Ordering::SeqCst)).unwrap_or(u32::MAX);
        let traced = control.traced.load(Ordering::SeqCst);
        while !control.pause.load(Ordering::SeqCst) {
            let i = control.next.fetch_add(1, Ordering::Relaxed);
            let req = &setup.catalogue.requests[setup.stream[i % setup.stream.len()] as usize];
            let start = Instant::now();
            let resp = request_raw(addr, "POST", req.target, &req.body);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let mut cache = CacheClass::Other;
            match resp {
                Ok(resp) if resp.status == 200 && resp.body == req.expected => {
                    cache = match resp.header("x-cache") {
                        Some("hit") => CacheClass::Hit,
                        Some("coalesced") => CacheClass::Coalesced,
                        Some("miss") => CacheClass::Miss,
                        _ => CacheClass::Other,
                    };
                    if traced {
                        let id = resp.header("x-fits-trace").unwrap_or("-").to_string();
                        log.traces.push((id, ms));
                    }
                }
                Ok(resp) => {
                    log.failed += 1;
                    if resp.status == 503 {
                        log.shed += 1;
                    }
                    if log.failures.len() < 8 {
                        log.failures.push(format!(
                            "{} {}: status {}{}",
                            req.target,
                            req.body,
                            resp.status,
                            if resp.status == 200 {
                                " with a body that differs from the oracle"
                            } else {
                                ""
                            }
                        ));
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    if log.failures.len() < 8 {
                        log.failures
                            .push(format!("{} {}: {e}", req.target, req.body));
                    }
                }
            }
            log.samples.push(Sample { slice, ms, cache });
        }
        control.halt.wait();
    }
}

/// Per-slice wall time and whether the slice was traced.
struct Slice {
    wall_ms: f64,
    traced: bool,
}

/// Drives the clients slice by slice for `seconds`.
fn drive(
    setup: &Setup,
    timeline: &mut Timeline,
    seconds: f64,
    trace: bool,
) -> (Vec<Slice>, Vec<ClientLog>) {
    let control = Control {
        go: Barrier::new(CLIENTS + 1),
        halt: Barrier::new(CLIENTS + 1),
        pause: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        slice: AtomicUsize::new(0),
        traced: AtomicBool::new(false),
        next: AtomicUsize::new(0),
    };
    let mut slices = Vec::new();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(&control, setup)))
            .collect();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let burst = timeline.burst();
            let traced = trace && burst % 2 == 1;
            control.slice.store(burst, Ordering::SeqCst);
            control.traced.store(traced, Ordering::SeqCst);
            control.pause.store(false, Ordering::SeqCst);
            control.go.wait();
            let start = Instant::now();
            std::thread::sleep(SLICE);
            control.pause.store(true, Ordering::SeqCst);
            control.halt.wait();
            slices.push(Slice {
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                traced,
            });
        }
        timeline.burst();
        control.stop.store(true, Ordering::SeqCst);
        control.go.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (slices, logs)
}

/// Geomeans of the served FITS-over-ARM ratios: I-cache energy from the
/// head `/simulate` bodies, code size from the head `/synthesize` bodies
/// (kernel order, so the values are bit-identical across runs).
fn served_ratios(catalogue: &Catalogue) -> Result<(f64, f64), String> {
    let num = |v: &Value, path: &[&str]| {
        path.iter()
            .try_fold(v, |v, k| v.get(k))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("body lacks {}", path.join(".")))
    };
    let (mut energy, mut code) = (Vec::new(), Vec::new());
    for req in &catalogue.requests[..catalogue.head] {
        let body = parse(&req.expected).map_err(|e| format!("{}: {}", req.target, e.message))?;
        match req.target {
            "/simulate" => {
                energy.push(num(&body, &["fits", "icache_j"])? / num(&body, &["arm", "icache_j"])?)
            }
            "/synthesize" => {
                code.push(num(&body, &["fits_code_bytes"])? / num(&body, &["arm_code_bytes"])?)
            }
            _ => {}
        }
    }
    Ok((geomean(&energy), geomean(&code)))
}

/// Server-side phase times from the daemon's JSONL access log, after
/// skipping the first `skip` request lines (the set-up warm-up): the mean
/// per request of each top-level phase (ms), and each request's summed
/// phase time keyed by its trace id.
fn phases(log: &str, skip: usize) -> (Vec<(String, f64)>, HashMap<String, f64>) {
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut per_trace = HashMap::new();
    let records = log
        .lines()
        .filter_map(|line| parse(line).ok())
        .filter(|r| r.get("type").and_then(Value::as_str) == Some("request"))
        .skip(skip);
    for record in records {
        let mut sum = 0.0;
        if let Some(Value::Arr(phases)) = record.get("phases") {
            for phase in phases {
                let name = phase.get("name").and_then(Value::as_str).unwrap_or("/");
                let ms = phase.get("us").and_then(Value::as_f64).unwrap_or(0.0) / 1e3;
                if !name.contains('/') {
                    *totals.entry(name.to_string()).or_default() += ms;
                    sum += ms;
                }
            }
        }
        let trace = record.get("trace").and_then(Value::as_str).unwrap_or("-");
        per_trace.insert(trace.to_string(), sum);
    }
    let requests = per_trace.len().max(1) as f64;
    let means = totals
        .into_iter()
        .map(|(name, ms)| (name, ms / requests))
        .collect();
    (means, per_trace)
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    // The traced run also turns on the daemon's access log, which carries
    // its per-request phase spans; the untraced run is the shipped default.
    let access_log = AccessLog::new(trace);
    let log_path = access_log.0.clone();
    let mut setup_times = SetupTimes::default();
    let mut inputs = match setup_times.repeat(|| setup(seed, log_path.clone())) {
        Ok(setup) => setup,
        Err(msg) => {
            report.attempted = 1;
            report.fail(format!("set-up: {msg}"));
            return report;
        }
    };
    let echo = match EchoServer::start() {
        Ok(echo) => echo,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("echo server: {e}"));
            return report;
        }
    };
    let mut timeline = Timeline::new(Reference::Loopback(echo));
    let (slices, logs) = drive(&inputs, &mut timeline, seconds, trace);
    inputs.daemon.stop();
    // Read before the after-loop set-ups, which are measurement only.
    let peak_rss_mb = crate::stats::peak_rss_mb();

    let mut samples = Vec::new();
    let mut traces = Vec::new();
    let mut shed = 0;
    for log in logs {
        report.failed += log.failed;
        shed += log.shed;
        for failure in log.failures {
            report.note(failure);
        }
        samples.extend(log.samples);
        traces.extend(log.traces);
    }
    report.attempted = samples.len() as u64;

    let slice_ref: Vec<f64> = (0..slices.len()).map(|s| timeline.local_ref(s)).collect();
    let pick = |traced: bool| -> (Vec<f64>, Vec<f64>, f64) {
        let chosen: Vec<&Sample> = samples
            .iter()
            .filter(|s| {
                slices
                    .get(s.slice as usize)
                    .is_some_and(|sl| sl.traced == traced)
            })
            .collect();
        let norm = chosen
            .iter()
            .map(|s| s.ms / slice_ref[s.slice as usize])
            .collect();
        let wall = chosen.iter().map(|s| s.ms).collect();
        let ref_time: f64 = slices
            .iter()
            .zip(&slice_ref)
            .filter(|(sl, _)| sl.traced == traced)
            .map(|(sl, r)| sl.wall_ms / r)
            .sum();
        (norm, wall, chosen.len() as f64 / ref_time)
    };
    let (norm, wall, throughput) = pick(false);

    if trace {
        let (_, _, traced_throughput) = pick(true);
        let count = |class: CacheClass| {
            samples.iter().filter(|s| s.cache == class).count() as f64 / samples.len().max(1) as f64
        };
        report.put("serve.hit_ratio", count(CacheClass::Hit), "ratio");
        report.put(
            "serve.coalesced_ratio",
            count(CacheClass::Coalesced),
            "ratio",
        );
        report.put("serve.miss_ratio", count(CacheClass::Miss), "ratio");
        report.put("serve.shed_count", shed as f64, "count");
        let log = log_path
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .unwrap_or_default();
        let (means, per_trace) = phases(&log, inputs.catalogue.head);
        for (name, ms) in means {
            report.put(&format!("serve.{}_ms", name.replace('-', "_")), ms, "ms");
        }
        // Client-observed time the daemon's phases do not cover (connect,
        // accept, kernel socket work), over the traced requests.
        let uncovered: Vec<f64> = traces
            .iter()
            .filter_map(|(id, ms)| per_trace.get(id).map(|server| (ms - server).max(0.0)))
            .collect();
        report.put("bench.ref_ms", timeline.ref_ms(), "ms");
        report.put("bench.wall_p50_ms", quantile(&wall, 0.5), "ms");
        report.put("bench.wall_p90_ms", quantile(&wall, 0.9), "ms");
        report.put("bench.wall_p99_ms", quantile(&wall, 0.99), "ms");
        report.put(
            "bench.tracing_overhead",
            throughput / traced_throughput,
            "ratio",
        );
        if uncovered.len() * 2 < traces.len() {
            report.fail(format!(
                "only {} of {} traced requests appear in the access log",
                uncovered.len(),
                traces.len()
            ));
        }
        report.put("bench.unattributed_ms", mean(&uncovered), "ms");
    } else {
        if let Err(msg) = setup_times.repeat(|| setup(seed, None)) {
            report.fail(format!("set-up: {msg}"));
        }
        setup_times.report(&mut report);
        report_latency(&mut report, &norm);
        report.put("throughput_norm", throughput, "ops/ref");
        report.put("peak_rss_mb", peak_rss_mb, "MB");
        match served_ratios(&inputs.catalogue) {
            Ok((energy, code)) => {
                report.put("icache_energy_ratio", energy, "ratio");
                report.put("code_size_ratio", code, "ratio");
            }
            Err(msg) => report.fail(msg),
        }
        report.put_raw("bench.ref_ms", median(&timeline.bursts), "ms");
        report.put_raw("bench.wall_p50_ms", quantile(&wall, 0.5), "ms");
        report.put_raw("bench.wall_p90_ms", quantile(&wall, 0.9), "ms");
        report.put_raw("bench.wall_p99_ms", quantile(&wall, 0.99), "ms");
        let misses = samples
            .iter()
            .filter(|s| s.cache == CacheClass::Miss)
            .count();
        report.put_raw(
            "serve.miss_ratio",
            misses as f64 / samples.len().max(1) as f64,
            "ratio",
        );
    }
    report
}

/// The traced run's access-log file under `.perfbench/` in the working
/// directory, removed (with the directory, once empty) when dropped.
struct AccessLog(Option<PathBuf>);

impl AccessLog {
    fn new(enabled: bool) -> AccessLog {
        AccessLog(enabled.then(|| {
            let dir = PathBuf::from(".perfbench");
            let _ = std::fs::create_dir_all(&dir);
            dir.join(format!("serve-access-{}.jsonl", std::process::id()))
        }))
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            let _ = std::fs::remove_file(path);
            if let Some(dir) = path.parent() {
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}
