//! Provenance stamps for archived JSON records (`SWEEP.json`,
//! `PARETO.json`): git commit, timestamp, host — so numbers stay
//! attributable after they leave the working tree.

use fits_obs::json::Writer;

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

/// Writes the shared `"meta"` object of the archived records, one member
/// per line, as `w`'s next value. `isa` is the content hash of the ISA spec
/// catalog the numbers were produced under (the shipped catalog unless a
/// record says otherwise), so results stay comparable across
/// machine-description changes. `extra` string fields follow it:
/// `PARETO.json` stamps the merged-profile hash next to the catalog hash.
pub fn write_meta(w: &mut Writer, extra: &[(&str, &str)]) {
    w.begin_obj_lines();
    w.field_str("commit", &git_commit());
    w.field_u64("timestamp_unix", unix_timestamp());
    w.field_str("host", &hostname());
    w.field_str("os", std::env::consts::OS);
    w.field_str("arch", std::env::consts::ARCH);
    w.field_str("isa", &fits_isa::spec::SpecCatalog::default().hash_hex());
    for (key, value) in extra {
        w.field_str(key, value);
    }
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fits_obs::json::{parse, Spacing, Value};

    #[test]
    fn meta_is_valid_json_with_required_fields() {
        let mut w = Writer::new(Spacing::Spaced);
        write_meta(&mut w, &[("merged_profile", "0123")]);
        let v = parse(&w.finish()).unwrap();
        for key in ["commit", "host", "os", "arch", "isa", "merged_profile"] {
            assert!(v.get(key).and_then(Value::as_str).is_some());
        }
        assert!(v.get("timestamp_unix").and_then(Value::as_f64).is_some());
        let isa = v.get("isa").and_then(Value::as_str).unwrap();
        assert_eq!(isa.len(), 48, "three 16-hex spec hashes joined");
    }
}
