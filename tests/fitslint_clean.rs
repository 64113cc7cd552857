//! Suite-wide verification gate: every shipped kernel's synthesized
//! instruction set and translated binary must pass all four static analysis
//! families (`ENC`, `CFI`, `DF`, `TV`) at the test scale — the same check
//! the `fitslint --all` CI job runs.

#![allow(clippy::unwrap_used)]

use powerfits::bench::lint::lint_json;
use powerfits::kernels::kernels::{Kernel, Scale};
use powerfits::verify::lint_kernel;

#[test]
fn every_kernel_lints_clean() {
    let mut dirty = Vec::new();
    for &kernel in Kernel::ALL {
        let report = lint_kernel(kernel, Scale::test()).unwrap();
        if !report.is_clean() {
            dirty.push(report.render_text());
        }
    }
    assert!(
        dirty.is_empty(),
        "kernels failed static verification:\n{}",
        dirty.join("\n")
    );
}

#[test]
fn reports_render_machine_readable_json() {
    let report = lint_kernel(Kernel::Crc32, Scale::test()).unwrap();
    let json = lint_json("kernels", &[("crc32".to_string(), Ok(report))]);
    assert_eq!(
        json,
        "{\"kernels\":[{\"name\":\"crc32\",\"clean\":true,\"diagnostics\":[]}],\"clean\":true}\n"
    );
}
