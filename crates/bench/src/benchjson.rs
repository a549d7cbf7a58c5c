//! Minimal JSON emission for the persisted `BENCH_<name>.json` perf
//! trajectory files.
//!
//! The workspace is std-only (no serde), and the documents we write are
//! small and flat, so the binaries assemble them from string fragments;
//! this module owns the two fiddly parts — string escaping and non-finite
//! floats — plus the output-path convention.
//!
//! Files land in `CITRUS_BENCH_DIR` (default: the current directory, i.e.
//! the repo root under `cargo run`), so successive runs overwrite in place
//! and the checked-in copy records the trajectory across commits.

use std::io;
use std::path::{Path, PathBuf};

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `v` as a JSON number token; non-finite values (which JSON
/// cannot represent) become `null`.
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Writes `body` (a complete JSON document) as `BENCH_<name>.json` under
/// `CITRUS_BENCH_DIR` (default: current directory) and returns the path.
pub fn write(name: &str, body: &str) -> io::Result<PathBuf> {
    let dir =
        std::env::var_os("CITRUS_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from);
    write_to(&dir, name, body)
}

/// Writes `body` as `BENCH_<name>.json` under `dir` (created if missing)
/// and returns the path. [`write`](fn@write) is the env-reading wrapper; taking the
/// directory explicitly keeps tests off the process-global environment.
pub fn write_to(dir: &Path, name: &str, body: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(esc(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(esc("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }

    #[test]
    fn numbers_stay_plain_and_nonfinite_becomes_null() {
        assert_eq!(num(12.5), "12.5");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn write_to_creates_dir_and_names_file() {
        let dir = std::env::temp_dir().join("citrus_benchjson_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_to(&dir, "probe", "{\"ok\": true}\n").unwrap();
        assert_eq!(path, dir.join("BENCH_probe.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\": true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
