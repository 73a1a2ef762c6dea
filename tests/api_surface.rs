//! Every public function has a caller outside the file that defines it.
//!
//! A `pub fn` under `crates/*/src` or `src/` must be named in some other
//! `.rs` file under `crates/`, `src/`, `tests/`, `examples/` or
//! `brbench/`. `use` declarations (multi-line ones too) and `//` comments
//! are not mentions: a re-export or a doc link is not a caller. A function
//! only its own unit tests call is either deleted or moved under
//! `#[cfg(test)]`; one called only inside its file is private.
//!
//! The check is textual and std-only: it matches whole identifiers, so a
//! common name (`new`, `run`) is always "used". It catches the items a
//! name search finds, which is what it is for.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `line` with any `//` comment cut off. Quotes are tracked so that a
/// `//` inside a string literal stays.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'/' if !in_str && bytes.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// The code of a file that can name a function: comments and `use`
/// declarations removed.
fn mention_text(source: &str) -> String {
    let mut text = String::new();
    let mut in_use = false;
    for line in source.lines() {
        let code = strip_comment(line);
        let trimmed = code.trim_start();
        if !in_use {
            let decl = trimmed
                .strip_prefix("pub(crate) ")
                .or_else(|| trimmed.strip_prefix("pub "))
                .unwrap_or(trimmed);
            in_use = decl.starts_with("use ");
        }
        if in_use {
            in_use = !code.contains(';');
            continue;
        }
        text.push_str(code);
        text.push('\n');
    }
    text
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The whole identifiers in `text`.
fn identifiers(text: &str) -> BTreeSet<&str> {
    let bytes = text.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            out.insert(&text[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

/// The names of the `pub fn`s a file defines, with their line numbers.
fn public_fns(source: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (n, line) in source.lines().enumerate() {
        let code = strip_comment(line).trim_start();
        let Some(rest) = code.strip_prefix("pub ") else {
            continue;
        };
        let rest = rest.strip_prefix("const ").unwrap_or(rest);
        let Some(rest) = rest.strip_prefix("fn ") else {
            continue;
        };
        let name: String = rest
            .bytes()
            .take_while(|&b| is_ident(b))
            .map(char::from)
            .collect();
        if !name.is_empty() {
            out.push((name, n + 1));
        }
    }
    out
}

#[test]
fn every_public_function_is_named_outside_its_file() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "brbench"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(
        files.len() > 50,
        "found only {} files under {}",
        files.len(),
        root.display()
    );

    let sources: BTreeMap<&Path, String> = files
        .iter()
        .map(|f| (f.as_path(), fs::read_to_string(f).expect("readable source")))
        .collect();
    let texts: BTreeMap<&Path, String> =
        sources.iter().map(|(&f, s)| (f, mention_text(s))).collect();
    let named: BTreeMap<&Path, BTreeSet<&str>> =
        texts.iter().map(|(&f, t)| (f, identifiers(t))).collect();

    let defining = |f: &Path| {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
        match parts.next().as_deref() {
            Some("src") => true,
            Some("crates") => parts.nth(1).as_deref() == Some("src"),
            _ => false,
        }
    };

    let mut orphans = Vec::new();
    for (&file, source) in sources.iter().filter(|(f, _)| defining(f)) {
        for (name, line) in public_fns(source) {
            let elsewhere = named
                .iter()
                .any(|(&other, idents)| other != file && idents.contains(name.as_str()));
            if !elsewhere {
                let rel = file.strip_prefix(&root).unwrap_or(file);
                orphans.push(format!("{}:{line}: pub fn {name}", rel.display()));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "{} public functions are named in no other file; delete them, move them under \
         #[cfg(test)], or make them private:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
}

#[test]
fn use_declarations_and_comments_are_not_mentions() {
    let source = "use a::{\n    alpha,\n    beta,\n};\npub use c::gamma;\n// delta\nlet s = \"//\"; epsilon(); // zeta\n/// eta\n";
    let text = mention_text(source);
    let names: Vec<&str> = identifiers(&text).into_iter().collect();
    assert_eq!(names, ["epsilon", "let", "s"]);
    assert_eq!(
        public_fns("pub fn one() {}\n    pub const fn two() {}\npub(crate) fn three() {}\n// pub fn four()\n"),
        [("one".to_string(), 1), ("two".to_string(), 2)]
    );
}
