//! Every `--bin NAME`, `--bench NAME` and `--example NAME` that the docs,
//! the CI workflow and the verify recipe tell a reader to run must name a
//! real cargo target, so deleting or renaming a tool cannot leave its
//! commands behind.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The documents whose commands are checked, relative to the repo root.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// The package manifests whose targets a command may name.
fn manifests(root: &Path) -> Vec<std::path::PathBuf> {
    let mut dirs = vec![root.to_path_buf(), root.join("perfbench")];
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is readable");
    dirs.extend(crates.map(|entry| entry.expect("crates/ entry").path()));
    dirs.into_iter()
        .map(|dir| dir.join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect()
}

/// The string value of a manifest line `key = "…"`, if it is one.
fn value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.trim().strip_prefix(key)?.trim_start();
    let value = rest.strip_prefix('=')?.trim();
    Some(value.trim_matches('"'))
}

/// File stems of `dir/*.rs` plus names of `dir/*/main.rs`: the targets
/// cargo discovers without a manifest entry. A file some entry already
/// claims by `path` is that entry's target, not a discovered one.
fn discovered(dir: &Path, claimed: &[std::path::PathBuf]) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let (file, name) = if path.extension().is_some_and(|ext| ext == "rs") {
                (path.clone(), path.file_stem()?)
            } else {
                (path.join("main.rs"), path.file_name()?)
            };
            let unclaimed = file.is_file() && !claimed.contains(&file);
            unclaimed.then(|| name.to_string_lossy().into_owned())
        })
        .collect()
}

/// Each target flag, the manifest section that declares such a target, and
/// the directory cargo discovers them in.
const KINDS: &[(&str, &str, &str)] = &[
    ("--bin", "[[bin]]", "src/bin"),
    ("--bench", "[[bench]]", "benches"),
    ("--example", "[[example]]", "examples"),
];

/// The target names over every manifest, keyed by flag: the entries of
/// each kind's section, the files in its directory, and `src/main.rs`
/// (a bin named after the package).
fn targets(root: &Path) -> BTreeMap<&'static str, BTreeSet<String>> {
    let mut targets: BTreeMap<_, BTreeSet<String>> = KINDS
        .iter()
        .map(|&(flag, ..)| (flag, BTreeSet::new()))
        .collect();
    for manifest in manifests(root) {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        let dir = manifest.parent().expect("manifest has a directory");
        let mut section = "";
        let mut claimed = Vec::new();
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                section = trimmed;
            } else if let Some(path) = value(line, "path") {
                claimed.push(dir.join(path));
            } else if let Some(name) = value(line, "name") {
                let kind = if section == "[package]" && dir.join("src/main.rs").is_file() {
                    Some("--bin")
                } else {
                    KINDS
                        .iter()
                        .find(|&&(_, declared, _)| section == declared)
                        .map(|&(flag, ..)| flag)
                };
                if let Some(flag) = kind {
                    targets.entry(flag).or_default().insert(name.to_owned());
                }
            }
        }
        for &(flag, _, subdir) in KINDS {
            let found = discovered(&dir.join(subdir), &claimed);
            targets.entry(flag).or_default().extend(found);
        }
    }
    targets
}

/// Every `(flag, name)` a text passes to a target flag, as
/// `--flag NAME` or `--flag=NAME`. A flag quoted on its own (`` `--bin` ``)
/// is prose, not a command, and is skipped.
fn references(text: &str) -> Vec<(&'static str, String)> {
    let name_of = |token: &str| -> String {
        token
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect()
    };
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut refs = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let token = token.trim_start_matches('`');
        for &(flag, ..) in KINDS {
            if token == flag {
                let next = tokens.get(i + 1).copied().unwrap_or("");
                refs.push((flag, name_of(next.trim_start_matches('`'))));
            } else if let Some(value) = token.strip_prefix(flag).and_then(|t| t.strip_prefix('=')) {
                refs.push((flag, name_of(value)));
            }
        }
    }
    refs
}

#[test]
fn every_documented_target_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let targets = targets(root);
    let mut dangling = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("document is readable");
        for (flag, name) in references(&text) {
            checked += 1;
            if !targets[flag].contains(&name) {
                dangling.push(format!("{doc}: {flag} {name:?}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "commands name targets that do not exist: {dangling:#?}\ntargets: {targets:#?}"
    );
    // The docs really do name targets: a scanner that found none would
    // pass vacuously.
    assert!(checked >= 10, "only {checked} references found");
}

#[test]
fn targets_cover_manifest_entries_and_discovered_files() {
    let targets = targets(Path::new(env!("CARGO_MANIFEST_DIR")));
    // `[[bin]]` with a custom path, an auto-discovered `src/bin/` file and a
    // package `src/main.rs`.
    for bin in ["powerfits-repro", "fitslint", "fitsd", "perfbench"] {
        assert!(
            targets["--bin"].contains(bin),
            "{bin} missing from {targets:?}"
        );
    }
    assert!(
        !targets["--bin"].contains("repro"),
        "a [[bin]] path is not a target name"
    );
    // Root `examples/` and a member crate's `examples/`.
    for example in ["quickstart", "custom_kernel", "design_space", "thumbsize"] {
        assert!(
            targets["--example"].contains(example),
            "{example} missing from {targets:?}"
        );
    }
    // The workspace has no bench targets: `powerfits-repro` prints the
    // figures and the ablations, and perfbench is the timing harness.
    for bench in ["ablations", "paper_figures", "components"] {
        let (flag, name) = &references(&format!("cargo bench --bench {bench}"))[0];
        assert!(
            !targets[flag].contains(name),
            "--bench {bench} still names a target"
        );
    }
}

#[test]
fn references_parse_commands_and_skip_prose() {
    let text = "run `cargo run --bin fitslint -- --all` and\n\
                cargo bench --bench\nablations`, or --bin=fitsd; the `--bin` flag";
    assert_eq!(
        references(text),
        [
            ("--bin", "fitslint".to_owned()),
            ("--bench", "ablations".to_owned()),
            ("--bin", "fitsd".to_owned()),
        ]
    );
    assert_eq!(
        references("cargo run --example quickstart --release"),
        [("--example", "quickstart".to_owned())]
    );
    let targets = targets(Path::new(env!("CARGO_MANIFEST_DIR")));
    let (flag, name) = &references("cargo run --bin no-such-tool")[0];
    assert_eq!(*flag, "--bin");
    assert!(!targets[flag].contains(name), "an unknown name is flagged");
}
