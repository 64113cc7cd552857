//! The daemon's `/metrics` surface: service counters, lifetime and
//! windowed latency, sampled gauges and per-endpoint `fits-obs` spans in
//! one JSON snapshot — plus a Prometheus-style text exposition behind
//! `GET /metrics?format=text`.
//!
//! Lifetime aggregates converge and hide regressions; the windowed
//! histograms ([`fits_obs::WindowedHistogram`], ~60 s per endpoint ×
//! status class) answer "what is happening *now*". Both views come from
//! the same [`ServeMetrics::finish`] call, so they can never disagree
//! about what was counted.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fits_obs::json::{Spacing, Writer};
use fits_obs::{Counter, GaugeSeries, LatencyHistogram, SpanRegistry, WindowedHistogram};

/// The `2xx`/`4xx`/`5xx` label a status code falls into (sheds never get
/// here; 1xx/3xx are not emitted by the API).
#[must_use]
pub fn status_class(status: u16) -> &'static str {
    match status {
        200..=299 => "2xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

/// Server-owned values a metrics render needs: gauges read at render time
/// and the event-log counters (the log lives in the server, not here).
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsContext {
    /// Current job-queue depth.
    pub queue_depth: usize,
    /// Configured job-queue capacity.
    pub queue_capacity: usize,
    /// Worker-thread count.
    pub workers: usize,
    /// Result-cache entries.
    pub cache_entries: usize,
    /// Seconds since the daemon started.
    pub uptime_s: u64,
    /// Access-log lines accepted into the writer channel.
    pub log_emitted: u64,
    /// Access-log lines dropped (channel full or closed).
    pub log_dropped: u64,
}

/// Everything `fitsd` counts. All counters are lock-free
/// ([`fits_obs::metrics`]); the span registry and the windowed histograms
/// take short locks per request, off the cache-hit fast path.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests that reached routing (everything but 503 sheds).
    pub requests: Counter,
    /// Responses with status 200.
    pub ok: Counter,
    /// Responses with status 4xx.
    pub client_errors: Counter,
    /// Responses with status 5xx (excluding sheds).
    pub server_errors: Counter,
    /// Connections shed with 503 at the queue door.
    pub rejected: Counter,
    /// POST responses served from the result cache.
    pub cache_hits: Counter,
    /// POST requests that joined an in-flight identical computation.
    pub coalesced_joins: Counter,
    /// Pipeline computations actually executed (cache/coalesce misses).
    pub executions: Counter,
    /// End-to-end request latency (read → response written), lifetime.
    pub latency: LatencyHistogram,
    /// Per-endpoint timing spans (`request/<endpoint>`), plus the flat
    /// engine-stage timings the pool's observer tees in.
    pub spans: SpanRegistry,
    /// Queue depth sampled by the server's gauge ticker.
    pub queue_gauge: GaugeSeries,
    /// Result-cache entries sampled by the server's gauge ticker.
    pub cache_gauge: GaugeSeries,
    /// Sliding-window latency per `(endpoint, status class)`.
    windows: Mutex<BTreeMap<(String, &'static str), Arc<WindowedHistogram>>>,
}

impl ServeMetrics {
    /// A zeroed metrics set.
    #[must_use]
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Records one finished request: status class, lifetime and windowed
    /// latency, and the endpoint span.
    pub fn finish(&self, endpoint: &str, status: u16, wall: Duration) {
        self.requests.inc();
        match status {
            200..=299 => self.ok.inc(),
            400..=499 => self.client_errors.inc(),
            _ => self.server_errors.inc(),
        }
        self.latency.record(wall);
        self.spans.add(&format!("request/{endpoint}"), wall);
        self.window_for(endpoint, status_class(status)).record(wall);
    }

    /// The windowed histogram for one `(endpoint, class)` cell, created on
    /// first use.
    fn window_for(&self, endpoint: &str, class: &'static str) -> Arc<WindowedHistogram> {
        let mut map = match self.windows.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(
            map.entry((endpoint.to_string(), class))
                .or_insert_with(|| Arc::new(WindowedHistogram::new())),
        )
    }

    /// A stable-ordered snapshot of every windowed cell.
    fn window_cells(&self) -> Vec<(String, &'static str, fits_obs::WindowSnapshot)> {
        let map = match self.windows.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.iter()
            .map(|((endpoint, class), h)| (endpoint.clone(), *class, h.snapshot()))
            .collect()
    }

    /// The `/metrics` JSON body.
    #[must_use]
    pub fn render_json(&self, ctx: &MetricsContext) -> String {
        let mut w = Writer::new(Spacing::Spaced);
        w.begin_obj();
        w.field_str("schema", "powerfits-serve-v1");
        w.field_str("endpoint", "metrics");
        w.field_u64("uptime_s", ctx.uptime_s);
        w.field_u64("requests", self.requests.get());
        w.field_u64("ok", self.ok.get());
        w.field_u64("client_errors", self.client_errors.get());
        w.field_u64("server_errors", self.server_errors.get());
        w.field_u64("rejected", self.rejected.get());
        w.field_u64("cache_hits", self.cache_hits.get());
        w.field_u64("coalesced_joins", self.coalesced_joins.get());
        w.field_u64("executions", self.executions.get());
        w.field_u64("cache_entries", ctx.cache_entries as u64);
        w.field_u64("queue_depth", ctx.queue_depth as u64);
        w.field_u64("queue_capacity", ctx.queue_capacity as u64);
        w.field_u64("workers", ctx.workers as u64);
        w.key("latency_us");
        w.begin_obj();
        w.field_u64("count", self.latency.count());
        w.field_f64_prec("mean", self.latency.mean_us(), 1);
        w.field_u64("p50", self.latency.quantile_us(0.50));
        w.field_u64("p99", self.latency.quantile_us(0.99));
        w.field_u64("max", self.latency.max_us());
        w.end_obj();
        w.key("log");
        w.begin_obj();
        w.field_u64("emitted", ctx.log_emitted);
        w.field_u64("dropped", ctx.log_dropped);
        w.end_obj();
        w.key("window");
        w.begin_arr();
        for (endpoint, class, snap) in self.window_cells() {
            w.begin_obj();
            w.field_str("endpoint", &endpoint);
            w.field_str("class", class);
            w.field_u64("count", snap.count);
            w.field_f64_prec("rate_per_sec", snap.rate_per_sec(), 3);
            w.field_f64_prec("mean", snap.mean_us(), 1);
            w.field_u64("p50", snap.quantile_us(0.50));
            w.field_u64("p99", snap.quantile_us(0.99));
            w.field_u64("max", snap.max_us);
            w.end_obj();
        }
        w.end_arr();
        w.key("gauges");
        w.begin_obj();
        for (name, gauge) in [
            ("queue_depth", &self.queue_gauge),
            ("cache_entries", &self.cache_gauge),
        ] {
            let snap = gauge.snapshot();
            w.key(name);
            w.begin_obj();
            w.field_u64("last", snap.last);
            w.field_u64("min", snap.min);
            w.field_u64("max", snap.max);
            w.field_f64_prec("mean", snap.mean, 1);
            w.field_u64("samples", snap.samples);
            w.end_obj();
        }
        w.end_obj();
        w.key("spans");
        w.begin_arr();
        self.spans.visit(|path, span| {
            w.begin_obj();
            w.field_str("path", path);
            w.field_f64_prec("ms", span.nanos as f64 / 1.0e6, 3);
            w.field_u64("count", span.count);
            w.end_obj();
        });
        w.end_arr();
        w.end_obj();
        let mut body = w.finish();
        body.push('\n');
        body
    }

    /// The `/metrics?format=text` body: a Prometheus text exposition
    /// (version 0.0.4) of the same numbers the JSON snapshot carries.
    #[must_use]
    pub fn render_prometheus(&self, ctx: &MetricsContext) -> String {
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        counter(
            &mut out,
            "fitsd_requests_total",
            "Requests that reached routing.",
            self.requests.get(),
        );
        counter(
            &mut out,
            "fitsd_responses_total_ok",
            "Responses with status 2xx.",
            self.ok.get(),
        );
        counter(
            &mut out,
            "fitsd_responses_total_client_error",
            "Responses with status 4xx.",
            self.client_errors.get(),
        );
        counter(
            &mut out,
            "fitsd_responses_total_server_error",
            "Responses with status 5xx.",
            self.server_errors.get(),
        );
        counter(
            &mut out,
            "fitsd_rejected_total",
            "Connections shed with 503 at the queue door.",
            self.rejected.get(),
        );
        counter(
            &mut out,
            "fitsd_cache_hits_total",
            "POST responses served from the result cache.",
            self.cache_hits.get(),
        );
        counter(
            &mut out,
            "fitsd_coalesced_joins_total",
            "POST requests that joined an in-flight computation.",
            self.coalesced_joins.get(),
        );
        counter(
            &mut out,
            "fitsd_executions_total",
            "Pipeline computations actually executed.",
            self.executions.get(),
        );
        counter(
            &mut out,
            "fitsd_access_log_emitted_total",
            "Access-log lines accepted into the writer channel.",
            ctx.log_emitted,
        );
        counter(
            &mut out,
            "fitsd_access_log_dropped_total",
            "Access-log lines dropped (channel full or closed).",
            ctx.log_dropped,
        );
        gauge(
            &mut out,
            "fitsd_uptime_seconds",
            "Seconds since the daemon started.",
            ctx.uptime_s,
        );
        gauge(
            &mut out,
            "fitsd_queue_depth",
            "Current job-queue depth.",
            ctx.queue_depth as u64,
        );
        gauge(
            &mut out,
            "fitsd_queue_capacity",
            "Configured job-queue capacity.",
            ctx.queue_capacity as u64,
        );
        gauge(
            &mut out,
            "fitsd_workers",
            "Worker-thread count.",
            ctx.workers as u64,
        );
        gauge(
            &mut out,
            "fitsd_cache_entries",
            "Result-cache entries.",
            ctx.cache_entries as u64,
        );

        // Lifetime latency as a classic cumulative-bucket histogram.
        let name = "fitsd_request_latency_microseconds";
        out.push_str(&format!(
            "# HELP {name} End-to-end request latency, lifetime.\n# TYPE {name} histogram\n"
        ));
        let counts = self.latency.bucket_counts();
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            let upper = LatencyHistogram::bucket_upper_us(i);
            if upper == u64::MAX {
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            } else {
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
        }
        out.push_str(&format!("{name}_sum {}\n", self.latency.sum_us()));
        out.push_str(&format!("{name}_count {}\n", self.latency.count()));

        // Windowed per-endpoint × class latency quantiles and rates.
        out.push_str(
            "# HELP fitsd_window_requests Requests in the sliding window.\n\
             # TYPE fitsd_window_requests gauge\n",
        );
        let cells = self.window_cells();
        for (endpoint, class, snap) in &cells {
            out.push_str(&format!(
                "fitsd_window_requests{{endpoint=\"{endpoint}\",class=\"{class}\"}} {}\n",
                snap.count
            ));
        }
        out.push_str(
            "# HELP fitsd_window_latency_microseconds Windowed latency quantiles.\n\
             # TYPE fitsd_window_latency_microseconds gauge\n",
        );
        for (endpoint, class, snap) in &cells {
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "fitsd_window_latency_microseconds{{endpoint=\"{endpoint}\",\
                     class=\"{class}\",quantile=\"{label}\"}} {}\n",
                    snap.quantile_us(q)
                ));
            }
        }
        out
    }
}

/// Validates a Prometheus text exposition (version 0.0.4): every sample
/// line is `name{labels} value` with a legal metric name and a numeric
/// value, and every sample's family has a preceding `# TYPE` declaration.
/// Returns the number of samples.
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_ascii_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !name_ok(name) {
                return Err(format!("line {line_no}: bad metric name in TYPE"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {line_no}: bad metric type '{kind}'"));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {line_no}: sample has no value"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(format!("line {line_no}: unparseable value '{value}'"));
        }
        let name = match name_labels.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {line_no}: unterminated label set"));
                }
                for pair in labels[..labels.len() - 1].split(',') {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {line_no}: label without '='"))?;
                    if !name_ok(k) {
                        return Err(format!("line {line_no}: bad label name '{k}'"));
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {line_no}: unquoted label value {v}"));
                    }
                }
                name
            }
            None => name_labels,
        };
        if !name_ok(name) {
            return Err(format!("line {line_no}: bad metric name '{name}'"));
        }
        // A histogram's _bucket/_sum/_count samples belong to the base
        // family name; everything else must match a TYPE exactly.
        let family_declared = typed.iter().any(|t| {
            t == name
                || [
                    format!("{t}_bucket"),
                    format!("{t}_sum"),
                    format!("{t}_count"),
                ]
                .iter()
                .any(|suffixed| suffixed == name)
        });
        if !family_declared {
            return Err(format!("line {line_no}: sample '{name}' has no # TYPE"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_obs::json::{parse, Value};

    fn ctx() -> MetricsContext {
        MetricsContext {
            queue_depth: 3,
            queue_capacity: 64,
            workers: 8,
            cache_entries: 5,
            uptime_s: 12,
            log_emitted: 7,
            log_dropped: 1,
        }
    }

    #[test]
    fn snapshot_is_valid_json_with_all_counters() {
        let m = ServeMetrics::new();
        m.finish("synthesize", 200, Duration::from_millis(3));
        m.finish("synthesize", 400, Duration::from_millis(1));
        m.finish("sweep", 500, Duration::from_millis(9));
        m.cache_hits.inc();
        m.coalesced_joins.add(2);
        m.rejected.inc();
        m.queue_gauge.sample(3);
        m.cache_gauge.sample(5);
        let json = m.render_json(&ctx());
        let v = parse(&json).expect("metrics snapshot parses");
        let num = |key: &str| v.get(key).and_then(Value::as_f64).expect(key);
        assert_eq!(num("requests"), 3.0);
        assert_eq!(num("ok"), 1.0);
        assert_eq!(num("client_errors"), 1.0);
        assert_eq!(num("server_errors"), 1.0);
        assert_eq!(num("rejected"), 1.0);
        assert_eq!(num("cache_hits"), 1.0);
        assert_eq!(num("coalesced_joins"), 2.0);
        assert_eq!(num("queue_depth"), 3.0);
        assert_eq!(num("queue_capacity"), 64.0);
        assert_eq!(num("workers"), 8.0);
        assert_eq!(num("cache_entries"), 5.0);
        assert_eq!(num("uptime_s"), 12.0);
        let lat = v.get("latency_us").expect("latency object");
        assert_eq!(lat.get("count").and_then(Value::as_f64), Some(3.0));
        assert!(lat.get("p99").and_then(Value::as_f64).unwrap() >= 1000.0);
        let log = v.get("log").expect("log object");
        assert_eq!(log.get("emitted").and_then(Value::as_f64), Some(7.0));
        assert_eq!(log.get("dropped").and_then(Value::as_f64), Some(1.0));
        match v.get("window") {
            Some(Value::Arr(cells)) => {
                assert_eq!(cells.len(), 3, "one cell per endpoint × class");
                assert!(cells.iter().any(|c| {
                    c.get("endpoint").and_then(Value::as_str) == Some("synthesize")
                        && c.get("class").and_then(Value::as_str) == Some("4xx")
                }));
                for c in cells {
                    assert!(c.get("p99").and_then(Value::as_f64).is_some());
                }
            }
            other => panic!("window not an array: {other:?}"),
        }
        let gauges = v.get("gauges").expect("gauges object");
        let q = gauges.get("queue_depth").expect("queue gauge");
        assert_eq!(q.get("last").and_then(Value::as_f64), Some(3.0));
        match v.get("spans") {
            Some(Value::Arr(items)) => {
                assert_eq!(items.len(), 2, "same-endpoint spans merge by name");
                assert!(items
                    .iter()
                    .any(|s| s.get("path").and_then(Value::as_str) == Some("request/synthesize")));
            }
            other => panic!("spans not an array: {other:?}"),
        }
    }

    #[test]
    fn prometheus_exposition_validates_and_carries_the_counters() {
        let m = ServeMetrics::new();
        m.finish("synthesize", 200, Duration::from_micros(700));
        m.finish("simulate", 200, Duration::from_millis(40));
        let text = m.render_prometheus(&ctx());
        let samples = validate_prometheus(&text).expect("valid exposition");
        assert!(samples > 20, "got only {samples} samples");
        assert!(text.contains("fitsd_requests_total 2"));
        assert!(text.contains("fitsd_request_latency_microseconds_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("fitsd_window_requests{endpoint=\"synthesize\",class=\"2xx\"} 1"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("fitsd_access_log_dropped_total 1"));
    }

    #[test]
    fn prometheus_validator_rejects_garbage() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("just words\n").is_err());
        // A sample without a TYPE declaration.
        assert!(validate_prometheus("fitsd_x 1\n").is_err());
        // Bad value.
        assert!(validate_prometheus("# TYPE fitsd_x counter\nfitsd_x pumpkin\n").is_err());
        // Unquoted label value.
        assert!(validate_prometheus("# TYPE fitsd_x gauge\nfitsd_x{endpoint=bare} 1\n").is_err());
        // Minimal valid exposition.
        assert_eq!(validate_prometheus("# TYPE up gauge\nup 1\n").unwrap(), 1);
    }

    #[test]
    fn windowed_cells_track_status_classes_separately() {
        let m = ServeMetrics::new();
        for _ in 0..10 {
            m.finish("simulate", 200, Duration::from_micros(100));
        }
        m.finish("simulate", 500, Duration::from_millis(50));
        let cells = m.window_cells();
        assert_eq!(cells.len(), 2);
        let ok = cells.iter().find(|(_, c, _)| *c == "2xx").unwrap();
        let err = cells.iter().find(|(_, c, _)| *c == "5xx").unwrap();
        assert_eq!(ok.2.count, 10);
        assert_eq!(err.2.count, 1);
        assert!(err.2.quantile_us(0.5) > ok.2.quantile_us(0.99));
    }
}
