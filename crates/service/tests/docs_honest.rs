//! The user-facing documents must name what the code actually ships: every
//! request verb, every workspace crate, every flag `moptd` parses. The lists
//! come from the code (the `Verb` table `Request` dispatches through, the
//! workspace manifest, `moptd`'s argument parser), so adding or removing one
//! without touching the docs fails here. The reverse holds too: a path,
//! package, cargo target or `moptd` flag a document names must exist. And the
//! manifests are held to the same rule: a `[dependencies]` entry must be a
//! name the crate's own sources use.

use mopt_service::metrics::Verb;

/// The repository root.
fn root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Read a file named relative to the repository root.
fn read(relative: &str) -> String {
    let path = root().join(relative);
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

/// The directory of every non-vendored workspace member, plus `.` for the
/// root umbrella package.
fn workspace_member_dirs() -> Vec<String> {
    let root = read("Cargo.toml");
    let members = root.split("members = [").nth(1).and_then(|s| s.split(']').next()).unwrap();
    let mut dirs: Vec<String> = members
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|member| !member.starts_with("crates/vendor/"))
        .map(str::to_string)
        .collect();
    dirs.push(".".to_string());
    dirs
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
    workspace_member_dirs().iter().map(|dir| package_name(&format!("{dir}/Cargo.toml"))).collect()
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

/// File stems under `<root>/<dir>` and `<root>/crates/*/<dir>`: the cargo
/// targets of one kind (`src/bin`, `tests`, `examples`, `benches`).
fn cargo_targets(dir: &str) -> Vec<String> {
    let mut parents = vec![root()];
    parents.extend(std::fs::read_dir(root().join("crates")).unwrap().map(|e| e.unwrap().path()));
    parents
        .iter()
        .filter_map(|parent| std::fs::read_dir(parent.join(dir)).ok())
        .flatten()
        .filter_map(|entry| entry.unwrap().path().file_stem()?.to_str().map(str::to_string))
        .collect()
}

/// Every repository path `line` names: a run of path characters starting at
/// a top-level directory. A path is checked up to a `target` component (what
/// lies below is build output) and up to a placeholder or glob character.
fn named_paths(line: &str) -> Vec<&str> {
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut paths = Vec::new();
    for top in ["crates/", "tests/", "examples/", "docs/", ".github/", ".claude/"] {
        for (at, _) in line.match_indices(top) {
            if line[..at].chars().next_back().is_some_and(path_char) {
                continue; // the middle of a longer path, found from its start
            }
            let rest = &line[at..];
            let path = &rest[..rest.find(|c| !path_char(c)).unwrap_or(rest.len())];
            let path = path.split("/target/").next().unwrap();
            paths.push(path.trim_end_matches(['.', '/']));
        }
    }
    paths
}

/// The flags `line` passes to `moptd`: the `--flag [VALUE]` run after the
/// binary's name (after the bare `--` when cargo is the one being invoked).
fn flags_passed_to_moptd(line: &str) -> Vec<String> {
    let mut flags = Vec::new();
    for (at, _) in line.match_indices("moptd ") {
        if line[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let mut tokens = line[at + "moptd ".len()..].split_whitespace();
        if line[..at].ends_with("--bin ") {
            // cargo's own arguments run up to the bare `--`.
            while tokens.next().is_some_and(|token| token != "--") {}
        }
        let mut after_flag = false;
        for token in tokens {
            let token = token.trim_matches(|c: char| "[]`,.;:)(\"".contains(c));
            if token.starts_with("--") {
                flags.push(token.to_string());
                after_flag = true;
            } else if after_flag {
                after_flag = false; // the flag's value
            } else {
                break;
            }
        }
    }
    flags
}

#[test]
fn docs_name_nothing_the_workspace_lacks() {
    let mut documents = vec!["README.md".to_string(), ".claude/skills/verify/SKILL.md".to_string()];
    for entry in std::fs::read_dir(root().join("docs")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".md") {
            documents.push(format!("docs/{name}"));
        }
    }
    let crates = workspace_crates();
    let mut flags = moptd_flags();
    flags.push("--help".to_string());
    let benches = cargo_targets("benches");
    let targets = [
        ("--bin", cargo_targets("src/bin")),
        ("--test", cargo_targets("tests")),
        ("--example", cargo_targets("examples")),
        ("--bench", benches.clone()),
    ];
    let mut stale = Vec::new();
    for document in &documents {
        for (number, line) in read(document).lines().enumerate() {
            let mut complain =
                |what: &str| stale.push(format!("{document}:{}: {what}", number + 1));
            for path in named_paths(line) {
                if !root().join(path).exists() {
                    complain(&format!("path `{path}` does not exist"));
                }
            }
            let words: Vec<&str> = line
                .split(|c: char| c.is_whitespace() || c == '`')
                .filter(|word| !word.is_empty())
                .collect();
            for pair in words.windows(2) {
                if pair[0] == "-p" && !crates.iter().any(|name| name == pair[1]) {
                    complain(&format!("`-p {}` is not a workspace package", pair[1]));
                }
                for (option, names) in &targets {
                    if pair[0] == *option && !names.iter().any(|name| name == pair[1]) {
                        complain(&format!("`{option} {}` is not a cargo target", pair[1]));
                    }
                }
            }
            if line.contains("cargo bench") && benches.is_empty() {
                complain("`cargo bench` but the workspace has no bench target");
            }
            for flag in flags_passed_to_moptd(line) {
                if !flags.contains(&flag) {
                    complain(&format!("`moptd {flag}` is not a flag moptd parses"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "documents name things that do not exist:\n{}", stale.join("\n"));
}

/// The text of every `.rs` file under `dir`, stopping at a directory with a
/// manifest of its own (a nested package is not this crate's source).
fn rust_sources(dir: &std::path::Path) -> String {
    let mut text = String::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() && !path.join("Cargo.toml").exists() {
            text.push_str(&rust_sources(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            text.push_str(&std::fs::read_to_string(&path).unwrap());
        }
    }
    text
}

#[test]
fn manifests_list_only_dependencies_the_sources_use() {
    let mut unused = Vec::new();
    for dir in workspace_member_dirs() {
        let manifest = read(&format!("{dir}/Cargo.toml"));
        let dependencies = manifest.split("\n[dependencies]\n").nth(1).unwrap_or("");
        let dependencies = dependencies.split("\n[").next().unwrap();
        let sources = rust_sources(&root().join(&dir).join("src"));
        // The optimizer and the serving stack do not link the simulator that
        // validates them (`mopt_bench` owns that edge).
        let serving = ["mopt-core", "db", "graph", "service"].map(|name| format!("crates/{name}"));
        for line in dependencies.lines().filter(|line| !line.trim().is_empty()) {
            let name = line.split(['.', ' ', '=']).next().unwrap();
            assert!(!(serving.contains(&dir) && name == "cache_sim"), "{dir} depends on cache_sim");
            // As a path root (`name::`) or a re-export (`use name;`): a
            // comment that merely names the crate is not a use.
            let used = sources.match_indices(name).any(|(at, _)| {
                let rest = &sources[at + name.len()..];
                !sources[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    && (rest.starts_with("::") || rest.starts_with(';'))
            });
            if !used {
                unused.push(format!("{dir}/Cargo.toml: `{name}`"));
            }
        }
    }
    assert!(unused.is_empty(), "[dependencies] no source file names:\n{}", unused.join("\n"));
}
