//! The pinned checkpoint schema: `xtask/lint-baseline.toml`.
//!
//! The file holds one `[checkpoint-schema]` table with the FNV-1a 64
//! fingerprint of the checkpoint codec's non-test token stream and the
//! `CHECKPOINT_VERSION` it was recorded at; the `checkpoint-schema-drift`
//! lint fails when the fingerprint moves without a version bump, and its
//! message prints the two lines to record after a bump.
//!
//! The file is a deliberately restricted TOML dialect (comments and scalar
//! keys inside that one table) so it can be parsed with no dependencies.
//! Any other table is rejected: the lint gate has no per-file budgets.

use std::io;
use std::path::Path;

/// Where the pin lives, relative to the repo root.
pub const BASELINE_PATH: &str = "xtask/lint-baseline.toml";

/// Loads the `(fingerprint, format-version)` pin from
/// `root/xtask/lint-baseline.toml`; a missing file or table is no pin.
pub fn load(root: &Path) -> io::Result<Option<(u64, u32)>> {
    let path = root.join(BASELINE_PATH);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)?;
    parse(&text).map_err(|msg| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {msg}", path.display()),
        )
    })
}

/// Parses the restricted-TOML pin file.
pub fn parse(text: &str) -> Result<Option<(u64, u32)>, String> {
    let mut in_table = false;
    let mut fingerprint: Option<u64> = None;
    let mut version: Option<u32> = None;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[checkpoint-schema]" {
            in_table = true;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {}: unknown table `{line}`; only [checkpoint-schema] is allowed",
                no + 1
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`", no + 1));
        };
        if !in_table {
            return Err(format!("line {}: key outside a table", no + 1));
        }
        match key.trim() {
            "fingerprint" => {
                let hex = unquote(value)?;
                fingerprint = Some(
                    u64::from_str_radix(&hex, 16)
                        .map_err(|e| format!("line {}: bad fingerprint `{hex}`: {e}", no + 1))?,
                );
            }
            "format-version" => {
                version = Some(
                    value
                        .trim()
                        .parse::<u32>()
                        .map_err(|e| format!("line {}: bad format-version: {e}", no + 1))?,
                );
            }
            other => return Err(format!("line {}: unknown key `{other}`", no + 1)),
        }
    }
    match (fingerprint, version) {
        (Some(fp), Some(ver)) => Ok(Some((fp, ver))),
        (None, None) => Ok(None),
        _ => Err("[checkpoint-schema] needs both `fingerprint` and `format-version`".to_string()),
    }
}

fn unquote(value: &str) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected quoted string, got `{v}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_pin() {
        let text = "# header\n\n[checkpoint-schema]\nfingerprint = \"deadbeef00000001\"\nformat-version = 3\n";
        assert_eq!(parse(text), Ok(Some((0xdead_beef_0000_0001, 3))));
        assert_eq!(parse("# nothing pinned\n"), Ok(None));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("count = 3\n").is_err());
        assert!(parse("[checkpoint-schema]\nfingerprint = \"ff\"\n").is_err());
        assert!(parse("[checkpoint-schema]\nfingerprint = ff\nformat-version = 1\n").is_err());
        assert!(parse("[checkpoint-schema]\nfingerprint = \"zz\"\nformat-version = 1\n").is_err());
        assert!(parse("[checkpoint-schema]\nid = \"panic-freedom\"\n").is_err());
    }

    #[test]
    fn rejects_budget_tables() {
        let budget = "[[entry]]\nid = \"panic-freedom\"\nfile = \"a.rs\"\ncount = 1\n";
        let err = parse(budget).unwrap_err();
        assert!(err.contains("unknown table `[[entry]]`"), "{err}");
        let after_pin =
            format!("[checkpoint-schema]\nfingerprint = \"ff\"\nformat-version = 1\n\n{budget}");
        assert!(parse(&after_pin).is_err());
    }
}
