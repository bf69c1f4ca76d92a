//! The user-facing documents must name what the code actually ships: every
//! request verb, every workspace crate, every flag `moptd` parses. The lists
//! come from the code (the `Verb` table `Request` dispatches through, the
//! workspace manifest, `moptd`'s argument parser), so adding or removing one
//! without touching the docs fails here.

use mopt_service::metrics::Verb;

/// Read a file named relative to the repository root.
fn read(relative: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `"--flag" =>` match arms of `moptd`'s argument parser (`--help` shares
/// its arm with `-h` and is not a setting).
fn moptd_flags() -> Vec<String> {
    read("crates/service/src/bin/moptd.rs")
        .lines()
        .filter_map(|line| line.trim().strip_prefix("\"--"))
        .filter_map(|rest| rest.split_once('"'))
        .filter(|(_, after)| after.trim_start().starts_with("=>"))
        .map(|(name, _)| format!("--{name}"))
        .collect()
}

/// `[package] name` of every non-vendored workspace member, plus the root
/// umbrella package.
fn workspace_crates() -> Vec<String> {
    let package_name = |manifest: &str| {
        let text = read(manifest);
        let package = text.split("[package]").nth(1).unwrap_or_else(|| panic!("{manifest}"));
        let line = package.lines().find(|l| l.starts_with("name")).expect("package name");
        line.split('"').nth(1).expect("quoted name").to_string()
    };
    let root = read("Cargo.toml");
    let members = root.split("members = [").nth(1).and_then(|s| s.split(']').next()).unwrap();
    let mut crates: Vec<String> = members
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|member| !member.starts_with("crates/vendor/"))
        .map(|member| package_name(&format!("{member}/Cargo.toml")))
        .collect();
    crates.push(package_name("Cargo.toml"));
    crates
}

/// Whether `text` contains `name` as a whole word: not as part of a longer
/// identifier or flag (`Trace` in `TraceContext`, `--snapshot` in a longer
/// flag).
fn mentions(text: &str, name: &str) -> bool {
    let part_of_word = |c: char| c.is_alphanumeric() || c == '_' || c == '-';
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + name.len()..].chars().next();
        !before.is_some_and(part_of_word) && !after.is_some_and(part_of_word)
    })
}

fn assert_all_named(what: &str, names: &[String], documents: &[&str]) {
    for document in documents {
        let text = read(document);
        let missing: Vec<&String> = names.iter().filter(|name| !mentions(&text, name)).collect();
        assert!(missing.is_empty(), "{document} does not mention {what} {missing:?}");
    }
}

#[test]
fn docs_name_every_verb_crate_and_flag() {
    let verbs: Vec<String> = Verb::ALL.iter().map(|v| v.name().to_string()).collect();
    assert_eq!(verbs.len(), 10);
    assert_all_named("verb", &verbs, &["README.md", "docs/PROTOCOL.md"]);

    let crates = workspace_crates();
    assert_eq!(crates.len(), 14, "{crates:?}");
    assert_all_named("crate", &crates, &["README.md", "docs/ARCHITECTURE.md"]);

    let flags = moptd_flags();
    assert_eq!(flags.len(), 8, "{flags:?}");
    assert_all_named("flag", &flags, &["README.md", "docs/PROTOCOL.md"]);
    // The parser and `--help` agree too.
    let moptd = read("crates/service/src/bin/moptd.rs");
    let help = moptd.split("USAGE:").nth(1).expect("help text");
    for flag in &flags {
        assert!(help.contains(flag.as_str()), "moptd --help does not mention {flag}");
    }
}
