//! Provenance stamps for archived JSON records (`SWEEP.json`,
//! `PARETO.json`): git commit, timestamp, host — so numbers stay
//! attributable after they leave the working tree. Also the two float
//! renderers the archived records (`CACHE_BOUNDS.json` too) use.

use fits_obs::json::escape;

/// The current git commit hash, or `"unknown"` outside a work tree.
#[must_use]
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Best-effort host name: `/etc/hostname`, then `$HOSTNAME`, then
/// `uname -n`.
fn hostname() -> String {
    std::fs::read_to_string("/etc/hostname")
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok().filter(|s| !s.is_empty()))
        .or_else(|| {
            std::process::Command::new("uname")
                .arg("-n")
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_timestamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// `render(v)` for a finite `v`; `null` otherwise, since JSON has no
/// NaN or infinity.
fn finite_or_null(v: f64, render: impl FnOnce(f64) -> String) -> String {
    if v.is_finite() {
        render(v)
    } else {
        "null".to_owned()
    }
}

/// A finite `f64` rendered as a JSON number with fixed precision, `null`
/// otherwise.
#[must_use]
pub fn json_f64(v: f64) -> String {
    finite_or_null(v, |v| format!("{v:.6}"))
}

/// A finite `f64` rendered in full precision, `null` otherwise.
/// Scientific notation keeps nano-joule block energies exact (and is
/// valid JSON), where [`json_f64`]'s six decimals would flush them to
/// zero.
#[must_use]
pub(crate) fn json_energy(v: f64) -> String {
    finite_or_null(v, |v| format!("{v:e}"))
}

/// The shared `"meta"` object of the archived records. `isa` is the
/// content hash of the ISA spec catalog the numbers were produced under
/// (the shipped catalog unless a record says otherwise), so results stay
/// comparable across machine-description changes.
#[must_use]
pub fn meta_json(indent: &str) -> String {
    meta_json_with(indent, &[])
}

/// [`meta_json`] extended with record-specific fields — each `(key,
/// value)` pair is appended verbatim, so the value must already be valid
/// JSON (quote strings with [`escape`]). `PARETO.json` uses this to stamp
/// the merged-profile hash next to the catalog hash.
#[must_use]
pub fn meta_json_with(indent: &str, extra: &[(&str, String)]) -> String {
    let extra: String = extra
        .iter()
        .map(|(key, value)| format!(",\n{indent}  \"{}\": {value}", escape(key)))
        .collect();
    format!(
        "{{\n{indent}  \"commit\": \"{commit}\",\n{indent}  \"timestamp_unix\": {stamp},\n\
         {indent}  \"host\": \"{host}\",\n{indent}  \"os\": \"{os}\",\n\
         {indent}  \"arch\": \"{arch}\",\n{indent}  \"isa\": \"{isa}\"{extra}\n{indent}}}",
        commit = escape(&git_commit()),
        stamp = unix_timestamp(),
        host = escape(&hostname()),
        os = escape(std::env::consts::OS),
        arch = escape(std::env::consts::ARCH),
        isa = fits_isa::spec::SpecCatalog::default().hash_hex(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_is_valid_json_with_required_fields() {
        let v = fits_obs::json::parse(&meta_json("  ")).unwrap();
        for key in ["commit", "host", "os", "arch", "isa"] {
            assert!(v.get(key).and_then(fits_obs::json::Value::as_str).is_some());
        }
        assert!(v.get("timestamp_unix").and_then(|t| t.as_f64()).is_some());
        let isa = v
            .get("isa")
            .and_then(fits_obs::json::Value::as_str)
            .unwrap();
        assert_eq!(isa.len(), 48, "three 16-hex spec hashes joined");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_f64(v), "null");
            assert_eq!(json_energy(v), "null");
        }
        assert_eq!(json_f64(1.5), "1.500000");
    }

    #[test]
    fn energy_keeps_what_fixed_precision_flushes() {
        assert_eq!(json_f64(1e-12), "0.000000");
        assert_eq!(json_energy(1e-12), "1e-12");
        let v = fits_obs::json::parse(&json_energy(1e-12)).unwrap();
        assert_eq!(v.as_f64(), Some(1e-12));
        assert_eq!(json_energy(2.5e-9), "2.5e-9");
    }
}
