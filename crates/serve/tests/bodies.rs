//! Every fitsd body kind, pinned byte for byte.
//!
//! POST bodies are cached and coalesced by canonical key, so their bytes
//! are part of the service contract: a layout, spacing or number-spelling
//! change is a schema change even when every value survives. Each body
//! here is recomputed at `Scale::test()` and compared with its committed
//! copy under `tests/bodies/`: the 200 bodies of every POST endpoint
//! (`/synthesize-multi` both accepted and rejected), `/healthz`, a 500,
//! and three 400s, one quoting an oversized value through `excerpt`.

#![allow(clippy::unwrap_used)]

use fits_bench::{ArtifactsPool, ExperimentError};
use fits_serve::api::{healthz_body, internal_error_body};
use fits_serve::PostRequest;

/// Compares `body` with the committed `tests/bodies/{name}`.
fn pinned(name: &str, body: &str) {
    let path = format!("{}/tests/bodies/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap();
    assert!(
        body == want,
        "{name} drifted from {path}\n--- got ---\n{body}--- want ---\n{want}"
    );
}

#[test]
fn post_bodies_are_pinned() {
    let pool = ArtifactsPool::new();
    for (name, target, request) in [
        ("synthesize.json", "/synthesize", "{\"kernel\": \"crc32\"}"),
        ("simulate.json", "/simulate", "{\"kernel\": \"crc32\"}"),
        (
            "analyze.json",
            "/analyze",
            "{\"kernel\": \"crc32\", \"static_only\": true}",
        ),
        (
            "sweep.json",
            "/sweep",
            "{\"kernels\": [\"crc32\", \"sha\"], \"icache_bytes\": [16384, 8192], \
             \"tech\": [\"sa1100\", \"65nm\"]}",
        ),
        (
            "multi_accepted.json",
            "/synthesize-multi",
            "{\"kernels\": [\"bitcount\", \"crc32\"]}",
        ),
        (
            "multi_rejected.json",
            "/synthesize-multi",
            "{\"kernels\": [\"bitcount\", \"crc32\"], \"epsilon\": -0.99}",
        ),
    ] {
        let req = PostRequest::from_target(target, request).unwrap().unwrap();
        let artifacts = pool.for_config(req.synth(), req.isa());
        pinned(name, &req.compute(&artifacts).unwrap());
    }
}

#[test]
fn fixed_bodies_are_pinned() {
    pinned("healthz.json", &healthz_body(42, "deadbeef"));
    let err = ExperimentError::Verify {
        kernel: "crc32".to_string(),
        report: "error[TV001]: \"quoted\"\n\tat fits[3]".to_string(),
    };
    pinned("internal_error.json", &internal_error_body(&err));
    let huge = format!("\\\"\\u00e9{}", "x".repeat(4096));
    for (name, target, request) in [
        ("error_parse.json", "/synthesize", "{\"kernel\": "),
        (
            "error_unknown_field.json",
            "/simulate",
            "{\"kernel\": \"crc32\", \"icache\": 1}",
        ),
        (
            "error_excerpt.json",
            "/synthesize",
            &format!("{{\"kernel\": \"{huge}\"}}") as &str,
        ),
    ] {
        let err = PostRequest::from_target(target, request).unwrap_err();
        pinned(name, &err.body());
    }
}
