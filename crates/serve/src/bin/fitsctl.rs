//! `fitsctl` — client and load generator for `fitsd`.
//!
//! Usage:
//!
//! ```text
//! fitsctl [--addr HOST:PORT] COMMAND [ARGS]
//!
//!   health                    GET /healthz
//!   metrics [--text]          GET /metrics (--text: Prometheus exposition)
//!   flight                    GET /debug/flight (recent + slowest traces)
//!   top [--interval SECS] [--count N]
//!                             live per-endpoint request rates and latency
//!   checklog PATH             schema-validate a JSONL access log
//!   wait [--timeout SECS]     poll /healthz until the daemon answers
//!   synthesize [JSON]         POST /synthesize (default {"kernel":"crc32"})
//!   simulate   [JSON]         POST /simulate   (default {"kernel":"crc32"})
//!   analyze    [JSON]         POST /analyze    (default {"kernel":"crc32"})
//!   sweep      [JSON]         POST /sweep      (default {} = full grid)
//!   synthesize-multi [JSON]   POST /synthesize-multi
//!                             (default {"kernels": ["crc32", "sha"]})
//!   smoke                     drive every endpoint once, validate schemas
//!   bench [--clients N] [--passes N] [--expect-hit-rate F]
//!                             load-generate the full kernel suite
//! ```
//!
//! Every response body is validated against the `powerfits-serve-v1`
//! schema before it is accepted; any violation is a failure. `wait`
//! additionally asserts the daemon speaks the expected `schema_version`,
//! so a version skew fails fast instead of mid-run. `bench`
//! fans the full 21-kernel suite out over `--clients` threads for
//! `--passes` passes and demands zero failed requests and byte-identical
//! bodies across clients; with `--expect-hit-rate` it also enforces a
//! minimum cache-hit rate on the final pass (the acceptance gate is 0.9).
//! `top` polls `/metrics` and renders the sliding last-minute window
//! (req/s, p50/p99) per endpoint x status class next to the lifetime
//! hit/coalesce/shed rates.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fits_kernels::kernels::Kernel;
use fits_obs::json::{parse, Value};
use fits_obs::validate_access_jsonl;
use fits_serve::client::{get, post, request_raw};
use fits_serve::{validate_flight_json, validate_prometheus, validate_serve_json, SCHEMA_VERSION};

struct Options {
    addr: String,
    command: String,
    rest: Vec<String>,
}

fn parse_args() -> Options {
    let mut addr = "127.0.0.1:4717".to_string();
    let mut command = String::new();
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" if command.is_empty() => {
                addr = args.next().unwrap_or_else(|| usage("--addr needs a value"));
            }
            "--help" | "-h" if command.is_empty() => usage(""),
            _ if command.is_empty() => command = arg,
            _ => rest.push(arg),
        }
    }
    if command.is_empty() {
        usage("a command is required");
    }
    Options {
        addr,
        command,
        rest,
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("fitsctl: {err}");
    }
    eprintln!(
        "usage: fitsctl [--addr HOST:PORT] COMMAND\n\
         commands: health | metrics [--text] | flight | \
         top [--interval SECS] [--count N] | checklog PATH | \
         wait [--timeout SECS] | \
         synthesize [JSON] | simulate [JSON] | analyze [JSON] | sweep [JSON] | \
         synthesize-multi [JSON] | \
         smoke | bench [--clients N] [--passes N] [--expect-hit-rate F]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn fail(what: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("fitsctl: {what}: {err}");
    std::process::exit(1);
}

fn resolve(addr: &str) -> SocketAddr {
    match addr.to_socket_addrs() {
        Ok(mut addrs) => match addrs.next() {
            Some(a) => a,
            None => fail("resolve", &format!("{addr} resolved to nothing")),
        },
        Err(e) => fail(&format!("resolve {addr}"), &e),
    }
}

/// Fetches, validates, and prints one response; exits nonzero on a non-2xx
/// status or a schema violation.
fn checked(addr: SocketAddr, method: &str, target: &str, body: &str) -> String {
    let result = if method == "GET" {
        get(addr, target)
    } else {
        post(addr, target, body)
    };
    let (status, text) = match result {
        Ok(r) => r,
        Err(e) => fail(&format!("{method} {target}"), &e),
    };
    if let Err(e) = validate_serve_json(&text) {
        fail(&format!("{method} {target} schema"), &e);
    }
    if !(200..300).contains(&status) {
        eprintln!("fitsctl: {method} {target}: HTTP {status}");
        eprintln!("{text}");
        std::process::exit(1);
    }
    text
}

fn cmd_wait(addr: SocketAddr, rest: &[String]) {
    let mut timeout = Duration::from_secs(120);
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timeout" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--timeout needs a value"));
                let secs: u64 = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --timeout value: {v}")));
                timeout = Duration::from_secs(secs);
            }
            other => usage(&format!("unknown wait argument: {other}")),
        }
    }
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok((200, body)) = get(addr, "/healthz") {
            if validate_serve_json(&body).is_ok() {
                // A healthy daemon speaking the wrong schema version is a
                // deployment bug; fail fast rather than mid-run.
                let version = parse(&body)
                    .ok()
                    .and_then(|doc| doc.get("schema_version").and_then(Value::as_f64));
                match version {
                    Some(v) if v == SCHEMA_VERSION as f64 => {
                        println!("fitsctl: {addr} is up (schema v{SCHEMA_VERSION})");
                        return;
                    }
                    Some(v) => fail(
                        "wait",
                        &format!("{addr} answers schema_version {v}, want {SCHEMA_VERSION}"),
                    ),
                    None => fail("wait", &format!("{addr} /healthz lacks schema_version")),
                }
            }
        }
        if Instant::now() >= deadline {
            fail("wait", &format!("{addr} not healthy after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// `GET /debug/flight`, validated against `powerfits-flight-v1`.
fn cmd_flight(addr: SocketAddr) {
    let (status, body) = match get(addr, "/debug/flight") {
        Ok(r) => r,
        Err(e) => fail("GET /debug/flight", &e),
    };
    if status != 200 {
        fail("GET /debug/flight", &format!("HTTP {status}"));
    }
    if let Err(e) = validate_flight_json(&body) {
        fail("flight schema", &e);
    }
    println!("{body}");
}

/// `GET /metrics?format=text`, validated as Prometheus exposition.
fn cmd_metrics_text(addr: SocketAddr) {
    let (status, body) = match get(addr, "/metrics?format=text") {
        Ok(r) => r,
        Err(e) => fail("GET /metrics?format=text", &e),
    };
    if status != 200 {
        fail("GET /metrics?format=text", &format!("HTTP {status}"));
    }
    if let Err(e) = validate_prometheus(&body) {
        fail("prometheus exposition", &e);
    }
    print!("{body}");
}

/// Schema-validates a JSONL access log written by `fitsd --access-log`
/// and prints its summary counts.
fn cmd_checklog(rest: &[String]) {
    let path = rest
        .first()
        .unwrap_or_else(|| usage("checklog needs a PATH"));
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => fail(&format!("read {path}"), &e),
    };
    match validate_access_jsonl(&text) {
        Ok(stats) => println!(
            "fitsctl: {path} ok: {} requests, {} events, {} distinct traces (commit {})",
            stats.requests,
            stats.events,
            stats.traces.len(),
            stats.commit
        ),
        Err(e) => fail(&format!("checklog {path}"), &e),
    }
}

fn field(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// One rendered frame of `fitsctl top`: the lifetime header plus the
/// sliding last-minute window per endpoint x status class.
fn render_top(addr: SocketAddr, doc: &Value) -> String {
    let mut out = String::new();
    let requests = field(doc, "requests");
    let hits = field(doc, "cache_hits");
    let coalesced = field(doc, "coalesced_joins");
    let posts = field(doc, "executions") + hits + coalesced;
    let pct = |part: f64| {
        if posts > 0.0 {
            100.0 * part / posts
        } else {
            0.0
        }
    };
    out.push_str(&format!(
        "fitsd {addr}  up {}s  queue {}/{}  cache {}  log {}/{} emitted/dropped\n",
        field(doc, "uptime_s"),
        field(doc, "queue_depth"),
        field(doc, "queue_capacity"),
        field(doc, "cache_entries"),
        doc.get("log").map_or(0.0, |l| field(l, "emitted")),
        doc.get("log").map_or(0.0, |l| field(l, "dropped")),
    ));
    out.push_str(&format!(
        "lifetime: {requests} requests ({} ok, {} 4xx, {} 5xx, {} shed)  \
         hit {:.1}%  coalesced {:.1}%\n",
        field(doc, "ok"),
        field(doc, "client_errors"),
        field(doc, "server_errors"),
        field(doc, "rejected"),
        pct(hits),
        pct(coalesced),
    ));
    out.push_str(&format!(
        "{:<14} {:<5} {:>8} {:>6} {:>9} {:>9} {:>9}\n",
        "last 60s", "class", "req/s", "count", "p50(us)", "p99(us)", "max(us)"
    ));
    let mut rows = 0;
    if let Some(Value::Arr(cells)) = doc.get("window") {
        for cell in cells {
            let endpoint = cell.get("endpoint").and_then(Value::as_str).unwrap_or("?");
            let class = cell.get("class").and_then(Value::as_str).unwrap_or("?");
            out.push_str(&format!(
                "{endpoint:<14} {class:<5} {:>8.3} {:>6} {:>9} {:>9} {:>9}\n",
                field(cell, "rate_per_sec"),
                field(cell, "count"),
                field(cell, "p50"),
                field(cell, "p99"),
                field(cell, "max"),
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        out.push_str("(no requests in the last 60s)\n");
    }
    out
}

fn cmd_top(addr: SocketAddr, rest: &[String]) {
    let mut interval = Duration::from_secs(2);
    let mut count: Option<u64> = None;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut num = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--interval" => {
                let v = num("--interval");
                let secs: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --interval value: {v}")));
                if secs <= 0.0 || !secs.is_finite() {
                    usage("--interval must be positive");
                }
                interval = Duration::from_secs_f64(secs);
            }
            "--count" => {
                let v = num("--count");
                let n: u64 = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --count value: {v}")));
                count = Some(n.max(1));
            }
            other => usage(&format!("unknown top argument: {other}")),
        }
    }
    // Only repaint in place when stdout is a real terminal; piped output
    // gets plain appended frames.
    use std::io::IsTerminal;
    let ansi = std::io::stdout().is_terminal();
    let mut frame = 0u64;
    loop {
        let (status, body) = match get(addr, "/metrics") {
            Ok(r) => r,
            Err(e) => fail("GET /metrics", &e),
        };
        if status != 200 {
            fail("GET /metrics", &format!("HTTP {status}"));
        }
        let doc = match parse(&body) {
            Ok(doc) => doc,
            Err(e) => fail("parse /metrics", &e),
        };
        let rendered = render_top(addr, &doc);
        if ansi {
            // Clear screen + home, then the frame.
            print!("\x1b[2J\x1b[H{rendered}");
        } else {
            print!("{rendered}");
        }
        use std::io::Write;
        let _ = std::io::stdout().flush();
        frame += 1;
        if count.is_some_and(|n| frame >= n) {
            return;
        }
        std::thread::sleep(interval);
    }
}

fn cmd_smoke(addr: SocketAddr) {
    checked(addr, "GET", "/healthz", "");
    let body = checked(addr, "POST", "/synthesize", "{\"kernel\": \"crc32\"}");
    // Re-issuing the identical request must serve the identical bytes.
    let again = checked(addr, "POST", "/synthesize", "{\"kernel\": \"crc32\"}");
    if body != again {
        fail("smoke", &"repeated /synthesize responses differ");
    }
    checked(addr, "POST", "/simulate", "{\"kernel\": \"crc32\"}");
    // The cache analysis must come back sound for a healthy daemon; the
    // static-only variant exercises the bounds report without a trace.
    let analyzed = checked(
        addr,
        "POST",
        "/analyze",
        "{\"kernel\": \"crc32\", \"static_only\": true}",
    );
    if !analyzed.contains("\"sound\": true") {
        fail("smoke", &"/analyze reported unsound cache bounds");
    }
    checked(
        addr,
        "POST",
        "/sweep",
        "{\"kernels\": [\"crc32\", \"sha\"], \"icache_bytes\": [16384, 8192]}",
    );
    // Shared-ISA synthesis must accept the pair, and a proportional
    // weight respelling must come back byte-identical (one execution,
    // one cache entry).
    let multi = checked(
        addr,
        "POST",
        "/synthesize-multi",
        "{\"kernels\": [\"crc32\", \"sha\"]}",
    );
    if !multi.contains("\"accepted\": true") {
        fail("smoke", &"/synthesize-multi did not accept the pair");
    }
    let respelled = checked(
        addr,
        "POST",
        "/synthesize-multi",
        "{\"kernels\": [\"sha\", \"crc32\"], \"weights\": [2, 2]}",
    );
    if multi != respelled {
        fail(
            "smoke",
            &"respelled /synthesize-multi weights broke canonicalization",
        );
    }
    // A degenerate weight vector must be a structured 400 at /weights.
    match post(
        addr,
        "/synthesize-multi",
        "{\"kernels\": [\"crc32\", \"sha\"], \"weights\": [0, 0]}",
    ) {
        Ok((400, text)) => {
            if !text.contains("\"pointer\": \"/weights\"") {
                fail("smoke", &"all-zero weights 400 lacks a /weights pointer");
            }
        }
        Ok((status, _)) => fail(
            "smoke",
            &format!("all-zero weights answered HTTP {status}, want 400"),
        ),
        Err(e) => fail("smoke zero-weight request", &e),
    }
    // A bad body must come back as a schema-valid structured 400.
    match post(addr, "/synthesize", "{\"kernel\": \"no-such-kernel\"}") {
        Ok((400, text)) => match validate_serve_json(&text) {
            Ok(endpoint) if endpoint == "error" => {}
            Ok(endpoint) => fail("smoke", &format!("400 body has endpoint {endpoint:?}")),
            Err(e) => fail("smoke 400 schema", &e),
        },
        Ok((status, _)) => fail(
            "smoke",
            &format!("bad body answered HTTP {status}, want 400"),
        ),
        Err(e) => fail("smoke bad-body request", &e),
    }
    // Hostile bodies: nesting past the parser's depth cap is a structured
    // 400 `parse`, a 256 KiB string value gets a structured answer within
    // the client timeout, and the daemon stays healthy after both.
    match post(addr, "/synthesize", &"[".repeat(64 * 1024)) {
        Ok((400, text)) if text.contains("\"code\": \"parse\"") => {
            if let Err(e) = validate_serve_json(&text) {
                fail("smoke nested-body 400 schema", &e);
            }
        }
        Ok((status, text)) => fail(
            "smoke",
            &format!("64 KiB nested body answered HTTP {status}: {text}"),
        ),
        Err(e) => fail("smoke nested-body request", &e),
    }
    let long = format!(
        "{{\"kernel\": \"crc32\", \"isa\": \"{}\"}}",
        "x".repeat(256 * 1024)
    );
    match post(addr, "/synthesize", &long) {
        Ok((_, text)) => {
            if let Err(e) = validate_serve_json(&text) {
                fail("smoke 256 KiB string schema", &e);
            }
        }
        Err(e) => fail("smoke 256 KiB string request", &e),
    }
    // Oversized request text is quoted in a 400, never echoed whole: a
    // 256 KiB preset name and a 256 KiB unknown key each get a
    // schema-valid 400 body under 1 KiB.
    let huge = "k".repeat(256 * 1024);
    for (target, body) in [
        (
            "/simulate",
            format!("{{\"kernel\": \"crc32\", \"scenario\": \"{huge}\"}}"),
        ),
        ("/sweep", format!("{{\"{huge}\": 1}}")),
    ] {
        match post(addr, target, &body) {
            Ok((400, text)) if text.len() < 1024 => {
                if let Err(e) = validate_serve_json(&text) {
                    fail(&format!("smoke oversized {target} 400 schema"), &e);
                }
            }
            Ok((status, text)) => fail(
                "smoke",
                &format!(
                    "oversized {target} request answered HTTP {status}, {} bytes",
                    text.len()
                ),
            ),
            Err(e) => fail(&format!("smoke oversized {target} request"), &e),
        }
    }
    checked(addr, "GET", "/healthz", "");
    checked(addr, "GET", "/metrics", "");
    println!("fitsctl: smoke ok");
}

struct BenchOptions {
    clients: usize,
    passes: usize,
    expect_hit_rate: Option<f64>,
}

fn parse_bench(rest: &[String]) -> BenchOptions {
    let mut opts = BenchOptions {
        clients: 8,
        passes: 2,
        expect_hit_rate: None,
    };
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        let mut num = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--clients" => {
                let v = num("--clients");
                opts.clients = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --clients value: {v}")));
            }
            "--passes" => {
                let v = num("--passes");
                opts.passes = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --passes value: {v}")));
            }
            "--expect-hit-rate" => {
                let v = num("--expect-hit-rate");
                let rate: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid --expect-hit-rate value: {v}")));
                opts.expect_hit_rate = Some(rate);
            }
            other => usage(&format!("unknown bench argument: {other}")),
        }
    }
    if opts.clients == 0 || opts.passes == 0 {
        usage("--clients and --passes must be at least 1");
    }
    opts
}

#[derive(Default)]
struct ClientReport {
    bodies: Vec<Option<String>>,
    failures: u64,
    retries: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// One request with retry-on-503: the load generator honors the daemon's
/// backpressure instead of counting sheds as failures.
fn bench_request(
    addr: SocketAddr,
    target: &str,
    body: &str,
    report: &mut ClientReport,
) -> Option<String> {
    for _attempt in 0..100 {
        match request_raw(addr, "POST", target, body) {
            Ok(response) if response.status == 503 => {
                report.retries += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(response) => {
                if response.status != 200 || validate_serve_json(&response.body).is_err() {
                    report.failures += 1;
                    return None;
                }
                match response.header("x-cache") {
                    Some("hit") => report.hits += 1,
                    Some("coalesced") => report.coalesced += 1,
                    _ => report.misses += 1,
                }
                return Some(response.body);
            }
            Err(_) => {
                report.failures += 1;
                return None;
            }
        }
    }
    report.failures += 1;
    None
}

fn cmd_bench(addr: SocketAddr, rest: &[String]) {
    let opts = parse_bench(rest);
    let jobs: Arc<Vec<(String, String)>> = Arc::new(
        Kernel::ALL
            .iter()
            .flat_map(|k| {
                [
                    (
                        "/synthesize".to_string(),
                        format!("{{\"kernel\": \"{}\"}}", k.name()),
                    ),
                    (
                        "/simulate".to_string(),
                        format!("{{\"kernel\": \"{}\"}}", k.name()),
                    ),
                ]
            })
            .collect(),
    );
    println!(
        "fitsctl: bench {} jobs x {} clients x {} passes against {addr}",
        jobs.len(),
        opts.clients,
        opts.passes
    );

    let mut exit_code = 0;
    for pass in 1..=opts.passes {
        let started = Instant::now();
        let reports: Vec<ClientReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..opts.clients)
                .map(|client| {
                    let jobs = Arc::clone(&jobs);
                    s.spawn(move || {
                        let mut report = ClientReport {
                            bodies: vec![None; jobs.len()],
                            ..ClientReport::default()
                        };
                        // Each client starts at a different rotation so
                        // identical jobs overlap in flight (coalescing food).
                        let offset = client * jobs.len() / opts.clients.max(1);
                        for i in 0..jobs.len() {
                            let idx = (offset + i) % jobs.len();
                            let (target, body) = &jobs[idx];
                            report.bodies[idx] = bench_request(addr, target, body, &mut report);
                        }
                        report
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(report) => report,
                    Err(_) => ClientReport {
                        failures: 1,
                        ..ClientReport::default()
                    },
                })
                .collect()
        });

        let failures: u64 = reports.iter().map(|r| r.failures).sum();
        let retries: u64 = reports.iter().map(|r| r.retries).sum();
        let hits: u64 = reports.iter().map(|r| r.hits).sum();
        let misses: u64 = reports.iter().map(|r| r.misses).sum();
        let coalesced: u64 = reports.iter().map(|r| r.coalesced).sum();
        let total = hits + misses + coalesced;
        let hit_rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        };

        // Byte-identical across clients, job by job.
        let mut mismatches = 0u64;
        for job in 0..jobs.len() {
            let mut reference: Option<&String> = None;
            for report in &reports {
                if let Some(body) = &report.bodies[job] {
                    match reference {
                        None => reference = Some(body),
                        Some(r) if r == body => {}
                        Some(_) => mismatches += 1,
                    }
                }
            }
        }

        println!(
            "fitsctl: pass {pass}: {total} ok, {failures} failed, {retries} retries, \
             {hits} hit / {coalesced} coalesced / {misses} miss (hit rate {:.1}%), \
             {mismatches} body mismatches, {:.2?}",
            hit_rate * 100.0,
            started.elapsed()
        );
        if failures > 0 || mismatches > 0 {
            exit_code = 1;
        }
        if pass == opts.passes {
            if let Some(expect) = opts.expect_hit_rate {
                if hit_rate < expect {
                    eprintln!(
                        "fitsctl: final-pass hit rate {:.3} below required {expect:.3}",
                        hit_rate
                    );
                    exit_code = 1;
                }
            }
        }
    }

    // Close with the server's own view of the run.
    let (status, metrics) = match get(addr, "/metrics") {
        Ok(r) => r,
        Err(e) => fail("GET /metrics", &e),
    };
    if status == 200 && validate_serve_json(&metrics).is_ok() {
        println!("{metrics}");
    }
    if exit_code != 0 {
        eprintln!("fitsctl: bench FAILED");
    }
    std::process::exit(exit_code);
}

fn main() {
    let opts = parse_args();
    let addr = resolve(&opts.addr);
    match opts.command.as_str() {
        "health" => println!("{}", checked(addr, "GET", "/healthz", "")),
        "metrics" if opts.rest.first().is_some_and(|a| a == "--text") => cmd_metrics_text(addr),
        "metrics" => println!("{}", checked(addr, "GET", "/metrics", "")),
        "flight" => cmd_flight(addr),
        "top" => cmd_top(addr, &opts.rest),
        "checklog" => cmd_checklog(&opts.rest),
        "wait" => cmd_wait(addr, &opts.rest),
        "smoke" => cmd_smoke(addr),
        "synthesize" | "simulate" | "analyze" | "sweep" | "synthesize-multi" => {
            let default = match opts.command.as_str() {
                "sweep" => "{}",
                "synthesize-multi" => "{\"kernels\": [\"crc32\", \"sha\"]}",
                _ => "{\"kernel\": \"crc32\"}",
            };
            let body = opts.rest.first().map_or(default, String::as_str);
            let target = format!("/{}", opts.command);
            println!("{}", checked(addr, "POST", &target, body));
        }
        "bench" => cmd_bench(addr, &opts.rest),
        other => usage(&format!("unknown command: {other}")),
    }
}
