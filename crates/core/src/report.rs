//! Result tables: console (Markdown) and CSV output, plus JSON records.

use crate::Result;
use serde::Serialize;
use std::path::Path;

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must match `headers.len()`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width — a programmer
    /// error in the exhibit binary.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Renders a Markdown table (what the exhibit binaries print).
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("## {}\n\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}-|", "-".repeat(w + 1)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes only where needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Parses CSV text back into a table with an empty title: the exact
    /// inverse of [`Table::to_csv`] for any table with at least one column.
    /// A quoted cell may hold commas and newlines, and `""` inside it is
    /// one literal quote.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] on empty text, an unterminated
    /// quoted cell, a quote inside an unquoted cell, text after a closing
    /// quote, or a row whose width differs from the header row's.
    pub fn from_csv(text: &str) -> Result<Table> {
        let bad = |msg: &str| crate::CoreError::InvalidConfig(format!("malformed CSV: {msg}"));
        if text.is_empty() {
            return Err(bad("no header row"));
        }
        let mut records: Vec<Vec<String>> = Vec::new();
        let mut record = Vec::new();
        let mut chars = text.chars().peekable();
        loop {
            let mut cell = String::new();
            if chars.next_if_eq(&'"').is_some() {
                loop {
                    match chars.next() {
                        // A quote ends the cell unless a second one follows;
                        // the pair falls through as one literal quote.
                        Some('"') if chars.next_if_eq(&'"').is_none() => break,
                        Some(c) => cell.push(c),
                        None => return Err(bad("unterminated quoted cell")),
                    }
                }
            } else {
                while let Some(c) = chars.next_if(|&c| c != ',' && c != '\n') {
                    if c == '"' {
                        return Err(bad("quote inside an unquoted cell"));
                    }
                    cell.push(c);
                }
            }
            record.push(cell);
            match chars.next() {
                Some(',') => {}
                Some('\n') | None => {
                    records.push(std::mem::take(&mut record));
                    if chars.peek().is_none() {
                        break;
                    }
                }
                Some(_) => return Err(bad("text after a closing quote")),
            }
        }
        let mut records = records.into_iter();
        let headers = records.next().unwrap_or_default();
        let rows: Vec<Vec<String>> = records.collect();
        if let Some(row) = rows.iter().find(|r| r.len() != headers.len()) {
            return Err(bad(&format!(
                "row width {} != header width {}",
                row.len(),
                headers.len()
            )));
        }
        Ok(Table {
            title: String::new(),
            headers,
            rows,
        })
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    /// Crash-safe: see [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn write_csv(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.to_csv())
    }
}

/// Writes any serialisable experiment record as pretty JSON, creating
/// parent directories. Crash-safe: see [`write_atomic`].
///
/// # Errors
///
/// Returns I/O errors (serialisation of these plain records cannot fail).
pub fn write_json<T: Serialize>(value: &T, path: &Path) -> Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| crate::CoreError::InvalidConfig(format!("serialisation failed: {e}")))?;
    write_atomic(path, &json)
}

/// Crash-safe file write: creates parent directories, writes the full
/// contents to a `.tmp` sibling, then atomically renames it over `path`.
/// A crash (or injected fault) mid-write leaves either the previous file
/// intact or a stale temp file — never a truncated report that a later
/// resume or plotting step would trust.
///
/// # Errors
///
/// Returns I/O errors (including one injected at the `report_write` fault
/// site).
pub fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    if let Some(e) = advcomp_nn::faults::io_error("report_write") {
        return Err(crate::CoreError::Io(e));
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Formats an accuracy in percent with two decimals, e.g. `"85.93"`.
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "hello".into()]);
        t.push_row(vec!["2".into(), "wor,ld".into()]);
        t
    }

    #[test]
    fn markdown_render() {
        let md = table().to_markdown();
        assert!(md.contains("## Demo"));
        // Column b is padded to the widest cell ("wor,ld", 6 chars).
        assert!(md.contains("| a | b      |"));
        assert!(md.contains("| 1 | hello  |"));
    }

    #[test]
    fn csv_escaping() {
        let csv = table().to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("\"wor,ld\""));
    }

    #[test]
    fn from_csv_inverts_to_csv() {
        // Commas, quotes, `""` escapes, newlines and empty cells, in headers
        // and rows alike.
        let mut t = Table::new("", &["plain", "com,ma", "quo\"te"]);
        t.push_row(vec!["a".into(), "x,y".into(), "say \"hi\"".into()]);
        t.push_row(vec!["".into(), "line\nbreak".into(), "\"\"".into()]);
        t.push_row(vec!["".into(), "".into(), "".into()]);
        t.push_row(vec!["\n".into(), ",".into(), "\"".into()]);
        assert_eq!(Table::from_csv(&t.to_csv()).unwrap(), t);
        let mut one = Table::new("", &["only"]);
        one.push_row(vec!["".into()]);
        assert_eq!(Table::from_csv(&one.to_csv()).unwrap(), one);
    }

    #[test]
    fn from_csv_rejects_malformed_text() {
        for bad in ["", "a,b\n1\n", "\"open\n", "a\"b\n", "\"x\"y\n"] {
            assert!(Table::from_csv(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn csv_file_roundtrip() {
        let dir = std::env::temp_dir().join("advcomp_report_test");
        let path = dir.join("t.csv");
        table().write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, table().to_csv());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_write() {
        let dir = std::env::temp_dir().join("advcomp_report_test");
        let path = dir.join("r.json");
        write_json(&vec![1, 2, 3], &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.8593), "85.93");
        assert_eq!(pct(1.0), "100.00");
    }

    #[test]
    fn atomic_write_leaves_no_temp_residue() {
        let dir = std::env::temp_dir().join(format!(
            "advcomp_report_atomic_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("nested/deeper/out.json");
        write_atomic(&path, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_fault_preserves_previous_report() {
        use advcomp_nn::faults::{install, FaultKind, FaultSpec};
        let dir = std::env::temp_dir().join(format!(
            "advcomp_report_fault_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("r.csv");
        table().write_csv(&path).unwrap();
        let _g = install(vec![FaultSpec::once(FaultKind::Io, "report_write", 0)]);
        assert!(table().write_csv(&path).is_err());
        // The earlier report is still intact and complete.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), table().to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }
}
