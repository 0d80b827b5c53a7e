//! Fixes the analyzer id: a hash of the source of every crate that computes
//! or encodes an invariant. The invariant store keys each result by it, so
//! a change to any of those sources (a soundness fix in a domain, say)
//! turns every result an older build stored into a miss.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose source the id covers, relative to this one's directory.
const SOURCES: [&str; 5] =
    ["../core/src", "../domains/src", "../memory/src", "../float/src", "../pmap/src"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let mut files = Vec::new();
    for dir in SOURCES {
        println!("cargo:rerun-if-changed={dir}");
        rust_files(Path::new(dir), &mut files);
    }
    files.sort();
    // 64-bit FNV-1a over each file's path and length-prefixed contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in &files {
        let text = fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eat(path.to_string_lossy().as_bytes());
        eat(&(text.len() as u64).to_le_bytes());
        eat(&text);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let id = format!(
        "/// The analyzer id `build.rs` computed.\npub const ANALYZER_ID: u64 = 0x{h:016x};\n"
    );
    fs::write(out.join("analyzer_id.rs"), id).expect("OUT_DIR is writable");
}
