//! The machine-readable `fitslint --format json` document: one entry per
//! linted kernel or ISA spec (its `fits-verify` report, or the error that
//! stopped it) and the overall verdict.

use fits_obs::json::{Spacing, Writer};
use fits_verify::Report;

/// One linted item: its name, and its report or the error that stopped it.
pub type LintEntry = (String, Result<Report, String>);

/// Whether every entry produced a clean report.
#[must_use]
pub fn lint_clean(entries: &[LintEntry]) -> bool {
    entries
        .iter()
        .all(|(_, r)| r.as_ref().is_ok_and(Report::is_clean))
}

/// Renders `entries` as the compact `{"<key>":[…],"clean":…}` document
/// (`key` is `kernels` or `specs`), newline-terminated.
#[must_use]
pub fn lint_json(key: &str, entries: &[LintEntry]) -> String {
    let mut w = Writer::new(Spacing::Compact);
    w.begin_obj();
    w.key(key);
    w.begin_arr();
    for (name, result) in entries {
        w.begin_obj();
        match result {
            Ok(report) => {
                w.field_str("name", &report.name);
                w.field_bool("clean", report.is_clean());
                w.key("diagnostics");
                w.begin_arr();
                for d in &report.diagnostics {
                    w.begin_obj();
                    w.field_str("severity", d.severity.as_str());
                    w.field_str("code", d.code);
                    w.field_str("message", &d.message);
                    for (key, index) in [("fits_index", d.fits_index), ("arm_index", d.arm_index)] {
                        w.key(key);
                        match index {
                            Some(i) => w.u64(i as u64),
                            None => w.raw("null"),
                        }
                    }
                    w.end_obj();
                }
                w.end_arr();
            }
            Err(err) => {
                w.field_str("name", name);
                w.field_bool("clean", false);
                w.field_str("error", err);
            }
        }
        w.end_obj();
    }
    w.end_arr();
    w.field_bool("clean", lint_clean(entries));
    w.end_obj();
    w.finish() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_verify::Diagnostic;

    #[test]
    fn entries_render_byte_for_byte() {
        let report = Report {
            name: "crc32".to_string(),
            diagnostics: vec![
                Diagnostic::error("TV001", "says \"no\"\n")
                    .at_fits(3)
                    .at_arm(1),
                Diagnostic::warning("ENC002", "tab\there"),
            ],
        };
        let entries = [
            ("crc32".to_string(), Ok(report)),
            ("sha".to_string(), Err("compile: \u{1}".to_string())),
        ];
        assert_eq!(
            lint_json("kernels", &entries),
            "{\"kernels\":[{\"name\":\"crc32\",\"clean\":false,\"diagnostics\":[\
             {\"severity\":\"error\",\"code\":\"TV001\",\"message\":\"says \\\"no\\\"\\n\",\
             \"fits_index\":3,\"arm_index\":1},\
             {\"severity\":\"warning\",\"code\":\"ENC002\",\"message\":\"tab\\there\",\
             \"fits_index\":null,\"arm_index\":null}]},\
             {\"name\":\"sha\",\"clean\":false,\"error\":\"compile: \\u0001\"}],\"clean\":false}\n"
        );
    }
}
