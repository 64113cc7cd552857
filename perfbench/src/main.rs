//! `perfbench --workload paper|explore|serve --seed N --seconds S --trace 0|1`
//!
//! Prints diagnostics to stderr and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! any output check failed, 2 on a usage error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = perfbench::run(&args);
    for error in &report.errors {
        eprintln!("perfbench: FAILED {error}");
    }
    if !report.raw.is_empty() {
        let raw: Vec<String> = report
            .raw
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.value))
            .collect();
        eprintln!("perfbench raw: {{{}}}", raw.join(", "));
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
