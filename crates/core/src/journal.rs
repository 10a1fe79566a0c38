//! Checkpoint/resume journal for sweep runs.
//!
//! A full Figure 2/5 grid at paper scale runs for hours; losing it to a
//! crash at point 17 of 20 used to mean recomputing all 20. The journal
//! persists each sweep point to its own file **as soon as it completes**,
//! keyed by a content hash of everything that determines the point's value
//! (network, attack list, compression recipe, sweep coordinate, seed and
//! the full [`ExperimentScale`]). A re-run with the same configuration
//! loads finished points instead of recomputing them; a re-run with *any*
//! config change hashes to different keys and recomputes honestly.
//!
//! Two properties carry the design:
//!
//! * **Bit-exact resume.** `f64` values are written with Rust's
//!   shortest-round-trip `{:?}` formatting and read back by the wire
//!   codec ([`advcomp_wire::json`]), whose correctly rounded
//!   `str::parse::<f64>` returns the same bits, so a resumed sweep's final
//!   report is byte-identical to an uninterrupted one. The writers format
//!   records themselves rather than through `Json`'s `Display`, which
//!   prints integral floats as integers and `-0.0` as `0`.
//! * **Crash-safe writes.** Entries are written to a `.tmp` sibling and
//!   atomically renamed into place; a crash mid-write leaves at worst a
//!   stale temp file, never a truncated entry that would poison resume.
//!
//! Besides the per-point files, a run directory carries an append-only
//! [`EventLog`] (`events.log`, one JSON object per line) used by the
//! distributed coordinator to record lifecycle events and restore its
//! counters across a crash. Unlike point files, event appends are *not*
//! atomic — a crash mid-append leaves a torn final line, which
//! [`EventLog::open`] tolerates by design (skip + warn + truncate) rather
//! than failing the whole resume.

use crate::scale::ExperimentScale;
use crate::{CoreError, Result};
use advcomp_wire::json::{Escaped, Json};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Content-hash key for one sweep point: 16 hex digits of FNV-1a 64 over a
/// canonical description of everything that determines the point's value.
/// `attacks` must be in evaluation order — the scenario triples stored
/// under the key are indexed by that order.
pub fn point_key(
    net: &str,
    attacks: &[&str],
    x: f64,
    recipe: &str,
    seed: u64,
    scale: &ExperimentScale,
) -> String {
    let canonical = format!(
        "v1|net={net}|attacks={}|x={x:?}|recipe={recipe}|seed={seed}|scale={scale:?}",
        attacks.join(",")
    );
    format!("{:016x}", fnv1a64(&canonical))
}

pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Terminal state of a journalled point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// The point computed successfully; its numbers are present.
    Ok,
    /// The point exhausted its retry budget; the error is recorded so the
    /// sweep can report it without recomputing on every resume.
    Failed,
}

/// One persisted sweep point: the result (or recorded failure) of a single
/// train→compress→attack pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Content-hash key (see [`point_key`]); also the file name.
    pub key: String,
    /// Sweep coordinate (density or bitwidth).
    pub x: f64,
    /// Compression recipe identifier.
    pub compression: String,
    /// Whether the point completed or failed permanently.
    pub status: PointStatus,
    /// Attempts consumed (1 on a clean first run).
    pub attempts: u32,
    /// Clean test accuracy of the compressed model (`Ok` only; 0 on failure).
    pub base_accuracy: f64,
    /// One `(comp→comp, full→comp, comp→full)` triple per attack, in key
    /// order (`Ok` only; empty on failure).
    pub scenarios: Vec<(f64, f64, f64)>,
    /// Numerical-health incidents recorded while computing the point.
    pub health: Vec<String>,
    /// Failure message (`Failed` only).
    pub error: Option<String>,
}

impl PointRecord {
    /// Serialises to the journal's JSON format (deterministic; `f64` via
    /// shortest-round-trip tokens).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"key\": {},", Escaped(&self.key));
        let _ = writeln!(out, "  \"x\": {:?},", self.x);
        let _ = writeln!(out, "  \"compression\": {},", Escaped(&self.compression));
        let status = match self.status {
            PointStatus::Ok => "ok",
            PointStatus::Failed => "failed",
        };
        let _ = writeln!(out, "  \"status\": {},", Escaped(status));
        let _ = writeln!(out, "  \"attempts\": {},", self.attempts);
        let _ = writeln!(out, "  \"base_accuracy\": {:?},", self.base_accuracy);
        out.push_str("  \"scenarios\": [");
        for (i, (s1, s2, s3)) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{s1:?}, {s2:?}, {s3:?}]");
        }
        out.push_str("],\n  \"health\": [");
        for (i, h) in self.health.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}", Escaped(h));
        }
        out.push_str("],\n  \"error\": ");
        let _ = match &self.error {
            Some(e) => write!(out, "{}", Escaped(e)),
            None => write!(out, "null"),
        };
        out.push_str("\n}\n");
        out
    }

    /// Parses a journal entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] on malformed input — with atomic
    /// writes this means real corruption, which should be surfaced (and the
    /// file deleted by hand) rather than silently recomputed.
    pub fn from_json(text: &str) -> Result<PointRecord> {
        let doc = Json::parse(text.as_bytes()).map_err(CoreError::Journal)?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| CoreError::Journal(format!("missing field '{k}'")))
        };
        let bad = |k: &str| CoreError::Journal(format!("malformed field '{k}'"));
        let version = field("version")?.as_u64().ok_or_else(|| bad("version"))?;
        if version != 1 {
            return Err(CoreError::Journal(format!(
                "unsupported journal version {version}"
            )));
        }
        let status = match field("status")?.as_str().ok_or_else(|| bad("status"))? {
            "ok" => PointStatus::Ok,
            "failed" => PointStatus::Failed,
            other => {
                return Err(CoreError::Journal(format!("unknown status '{other}'")));
            }
        };
        let scenarios = field("scenarios")?
            .as_array()
            .ok_or_else(|| bad("scenarios"))?
            .iter()
            .map(|row| {
                let t = row.as_array()?;
                match t {
                    [a, b, c] => Some((a.as_f64()?, b.as_f64()?, c.as_f64()?)),
                    _ => None,
                }
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| bad("scenarios"))?;
        let health = field("health")?
            .as_array()
            .ok_or_else(|| bad("health"))?
            .iter()
            .map(|h| h.as_str().map(String::from))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| bad("health"))?;
        let error = match field("error")? {
            Json::Null => None,
            v => Some(v.as_str().ok_or_else(|| bad("error"))?.to_string()),
        };
        Ok(PointRecord {
            key: field("key")?
                .as_str()
                .ok_or_else(|| bad("key"))?
                .to_string(),
            x: field("x")?.as_f64().ok_or_else(|| bad("x"))?,
            compression: field("compression")?
                .as_str()
                .ok_or_else(|| bad("compression"))?
                .to_string(),
            status,
            attempts: field("attempts")?
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| bad("attempts"))?,
            base_accuracy: field("base_accuracy")?
                .as_f64()
                .ok_or_else(|| bad("base_accuracy"))?,
            scenarios,
            health,
            error,
        })
    }
}

/// An on-disk journal: one file per completed sweep point under
/// `<run_dir>/points/<key>.json`.
#[derive(Debug, Clone)]
pub struct Journal {
    points: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal under `run_dir`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] if the directory cannot be created.
    pub fn open(run_dir: &Path) -> Result<Journal> {
        let points = run_dir.join("points");
        fs::create_dir_all(&points)?;
        Ok(Journal { points })
    }

    /// The file path an entry with `key` lives at.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.points.join(format!("{key}.json"))
    }

    /// Loads the entry for `key`, or `None` if it has not been written.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] on a corrupt entry and
    /// [`CoreError::Io`] on read failures other than not-found.
    pub fn load(&self, key: &str) -> Result<Option<PointRecord>> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CoreError::Io(e)),
        };
        let record = PointRecord::from_json(&text)
            .map_err(|e| CoreError::Journal(format!("{}: {e}", path.display())))?;
        if record.key != key {
            return Err(CoreError::Journal(format!(
                "{}: entry key '{}' does not match file name",
                path.display(),
                record.key
            )));
        }
        Ok(Some(record))
    }

    /// Persists `record` crash-safely: full write to a `.tmp` sibling, then
    /// an atomic rename over the final path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on write failure (including one injected
    /// at the `journal_write` fault site).
    pub fn store(&self, record: &PointRecord) -> Result<()> {
        if let Some(e) = advcomp_nn::faults::io_error("journal_write") {
            return Err(CoreError::Io(e));
        }
        let path = self.path_for(&record.key);
        let tmp = self.points.join(format!("{}.json.tmp", record.key));
        fs::write(&tmp, record.to_json())?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }
}

/// One entry in a run's append-only event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic sequence number (restart-safe: continues from the last
    /// persisted record).
    pub seq: u64,
    /// Event kind, e.g. `lease_expired`, `redispatch`, `worker_lost`.
    pub kind: String,
    /// Sweep-point key the event concerns (empty for run-level events).
    pub key: String,
    /// Free-form detail.
    pub detail: String,
}

impl EventRecord {
    fn to_line(&self) -> String {
        format!(
            "{{\"seq\": {}, \"kind\": {}, \"key\": {}, \"detail\": {}}}\n",
            self.seq,
            Escaped(&self.kind),
            Escaped(&self.key),
            Escaped(&self.detail)
        )
    }

    fn from_line(line: &[u8]) -> std::result::Result<EventRecord, String> {
        let doc = Json::parse(line)?;
        let s = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("missing/malformed field '{k}'"))
        };
        Ok(EventRecord {
            seq: doc
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or("missing/malformed field 'seq'")?,
            kind: s("kind")?,
            key: s("key")?,
            detail: s("detail")?,
        })
    }
}

/// Append-only JSONL event log at `<run_dir>/events.log`.
///
/// Appends are a single `write_all` + flush, **not** atomic-rename — an
/// event log is written far too often for a tmp+rename per record, and
/// unlike point records a lost event only costs counter accuracy, never
/// result correctness. The recovery contract is therefore asymmetric:
///
/// * a **torn final line** (crash mid-append) is expected damage — it is
///   skipped with a warning and truncated away so the next append starts at
///   a clean line boundary;
/// * a **malformed line followed by more data** cannot be produced by a
///   crashed appender and is treated as real corruption
///   ([`CoreError::Journal`]).
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    next_seq: u64,
}

impl EventLog {
    /// Opens (creating if needed) `<run_dir>/events.log`, replaying what
    /// survives. Returns the log handle, the intact records in file order,
    /// and human-readable warnings for anything skipped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures and
    /// [`CoreError::Journal`] on mid-file corruption (see type docs).
    pub fn open(run_dir: &Path) -> Result<(EventLog, Vec<EventRecord>, Vec<String>)> {
        fs::create_dir_all(run_dir)?;
        let path = run_dir.join("events.log");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CoreError::Io(e)),
        };
        let mut records = Vec::new();
        let mut warnings = Vec::new();
        let mut good_len = 0usize; // bytes covered by intact, newline-terminated lines
        let mut offset = 0usize;
        while offset < bytes.len() {
            let nl = bytes[offset..].iter().position(|&b| b == b'\n');
            let (line_end, terminated) = match nl {
                Some(i) => (offset + i, true),
                None => (bytes.len(), false),
            };
            let raw = &bytes[offset..line_end];
            match EventRecord::from_line(raw) {
                Ok(rec) if terminated => {
                    records.push(rec);
                    good_len = line_end + 1;
                }
                _ if !terminated => {
                    // Crash mid-append: the final line is missing its
                    // newline (and usually malformed too). Expected damage.
                    warnings.push(format!(
                        "{}: dropped torn final record ({} bytes) left by an \
                         interrupted append",
                        path.display(),
                        raw.len()
                    ));
                }
                Err(e) => {
                    return Err(CoreError::Journal(format!(
                        "{}: corrupt event record at byte {offset}: {e}",
                        path.display()
                    )));
                }
                Ok(_) => {
                    // A parseable but unterminated line is still torn — the
                    // newline is part of the commit. Handled above; this arm
                    // is unreachable because `!terminated` matched first.
                    unreachable!("unterminated lines are handled before parse inspection")
                }
            }
            offset = line_end + 1;
        }
        if good_len < bytes.len() {
            // Truncate the torn tail so the next append starts on a clean
            // line boundary instead of gluing onto the fragment.
            let file = fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(good_len as u64)?;
        }
        let next_seq = records.last().map_or(0, |r| r.seq + 1);
        Ok((EventLog { path, next_seq }, records, warnings))
    }

    /// Appends one event and returns its sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on write failure.
    pub fn append(&mut self, kind: &str, key: &str, detail: &str) -> Result<u64> {
        let rec = EventRecord {
            seq: self.next_seq,
            kind: kind.to_string(),
            key: key.to_string(),
            detail: detail.to_string(),
        };
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(rec.to_line().as_bytes())?;
        file.flush()?;
        self.next_seq += 1;
        Ok(rec.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advcomp_nn::faults::{install, FaultKind, FaultSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "advcomp-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_ok() -> PointRecord {
        PointRecord {
            key: "00c0ffee00c0ffee".into(),
            x: 0.30000000000000004, // deliberately not shortest-decimal-friendly
            compression: "dns_prune(0.3)".into(),
            status: PointStatus::Ok,
            attempts: 1,
            base_accuracy: 0.937_499_999_999_999_9,
            scenarios: vec![
                (0.1, 0.2, 0.3),
                (1.0 / 3.0, 2.0 / 3.0, 0.0),
                (-0.0, 5e-324, f64::MAX),
            ],
            health: vec!["epoch 1: rolled back, lr scaled to 0.5".into()],
            error: None,
        }
    }

    #[test]
    fn record_round_trip_is_bit_exact() {
        let rec = sample_ok();
        let back = PointRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.x.to_bits(), rec.x.to_bits());
        assert_eq!(back.base_accuracy.to_bits(), rec.base_accuracy.to_bits());
        for (a, b) in back.scenarios.iter().zip(&rec.scenarios) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        assert_eq!(back, rec);
        // Deterministic writer: re-serialising the parsed record reproduces
        // the bytes exactly.
        assert_eq!(back.to_json(), rec.to_json());
    }

    #[test]
    fn failed_record_round_trips() {
        let rec = PointRecord {
            key: "deadbeefdeadbeef".into(),
            x: 4.0,
            compression: "quant(w+a,4b)".into(),
            status: PointStatus::Failed,
            attempts: 3,
            base_accuracy: 0.0,
            scenarios: vec![],
            health: vec![],
            error: Some("injected fault: panic at site 'sweep_point'".into()),
        };
        assert_eq!(PointRecord::from_json(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn journal_store_load_and_miss() {
        let dir = tmp_dir("store");
        let journal = Journal::open(&dir).unwrap();
        let rec = sample_ok();
        assert_eq!(journal.load(&rec.key).unwrap(), None);
        journal.store(&rec).unwrap();
        assert_eq!(journal.load(&rec.key).unwrap(), Some(rec.clone()));
        // No temp residue after a clean store.
        let residue: Vec<_> = fs::read_dir(dir.join("points"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(residue.is_empty(), "{residue:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_an_error_not_a_silent_miss() {
        let dir = tmp_dir("corrupt");
        let journal = Journal::open(&dir).unwrap();
        fs::write(journal.path_for("0123456789abcdef"), "{\"version\": 1,").unwrap();
        let err = journal.load("0123456789abcdef").unwrap_err();
        assert!(matches!(err, CoreError::Journal(_)), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_key_rejected() {
        let dir = tmp_dir("mismatch");
        let journal = Journal::open(&dir).unwrap();
        let rec = sample_ok();
        fs::write(journal.path_for("1111111111111111"), rec.to_json()).unwrap();
        assert!(journal.load("1111111111111111").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_fault_fails_the_store() {
        let dir = tmp_dir("iofault");
        let journal = Journal::open(&dir).unwrap();
        let _g = install(vec![FaultSpec::once(FaultKind::Io, "journal_write", 0)]);
        let err = journal.store(&sample_ok()).unwrap_err();
        assert!(matches!(err, CoreError::Io(_)), "{err:?}");
        // The entry was never (partially) written.
        assert_eq!(journal.load(&sample_ok().key).unwrap(), None);
        // Next attempt succeeds (fault was one-shot) — the retry story.
        journal.store(&sample_ok()).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_log_round_trips_and_numbers_sequences() {
        let dir = tmp_dir("events");
        let (mut log, initial, warnings) = EventLog::open(&dir).unwrap();
        assert!(initial.is_empty() && warnings.is_empty());
        assert_eq!(log.append("lease_granted", "k1", "worker w0").unwrap(), 0);
        assert_eq!(log.append("redispatch", "k1", "lease expired").unwrap(), 1);
        drop(log);
        let (mut log, records, warnings) = EventLog::open(&dir).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, "lease_granted");
        assert_eq!(records[1].seq, 1);
        // Sequence numbering continues across reopen.
        assert_eq!(log.append("done", "", "").unwrap(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_event_line_is_skipped_at_every_truncation_offset() {
        // Crash-mid-append regression: whatever byte the append died at,
        // resume must (a) keep every fully committed record, (b) warn about
        // a fragment rather than fail, and (c) leave the file appendable.
        let dir = tmp_dir("torn");
        let (mut log, _, _) = EventLog::open(&dir).unwrap();
        for i in 0..3u64 {
            log.append("evt", &format!("k{i}"), "detail \"quoted\"")
                .unwrap();
        }
        drop(log);
        let path = dir.join("events.log");
        let full = fs::read(&path).unwrap();
        let line_ends: Vec<usize> = full
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(line_ends.len(), 3);
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (mut log, records, warnings) =
                EventLog::open(&dir).unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            let committed = line_ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(records.len(), committed, "cut at byte {cut}");
            let has_fragment =
                line_ends.iter().rfind(|&&e| e <= cut).copied() != Some(cut) && cut > 0;
            assert_eq!(
                warnings.len(),
                usize::from(has_fragment),
                "cut at byte {cut}"
            );
            // The torn tail was truncated away; appending resumes cleanly
            // with the next sequence number.
            let seq = log.append("resumed", "", "").unwrap();
            assert_eq!(seq as usize, committed, "cut at byte {cut}");
            let (_, after, warnings) = EventLog::open(&dir).unwrap();
            assert!(warnings.is_empty(), "cut at byte {cut}: {warnings:?}");
            assert_eq!(after.len(), committed + 1, "cut at byte {cut}");
            assert_eq!(after.last().unwrap().kind, "resumed");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_event_corruption_is_an_error() {
        let dir = tmp_dir("midcorrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("events.log"),
            "{\"seq\": 0, \"kind\": \"a\", \"key\": \"\", \"detail\": \"\"}\n\
             garbage that is not a record\n\
             {\"seq\": 2, \"kind\": \"c\", \"key\": \"\", \"detail\": \"\"}\n",
        )
        .unwrap();
        let err = EventLog::open(&dir).unwrap_err();
        assert!(matches!(err, CoreError::Journal(_)), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_sensitive_to_every_input() {
        let scale = ExperimentScale::tiny();
        let base = point_key("lenet5", &["ifgsm", "ifgm"], 0.5, "dns(0.5)", 7, &scale);
        assert_eq!(base.len(), 16);
        assert_eq!(
            base,
            point_key("lenet5", &["ifgsm", "ifgm"], 0.5, "dns(0.5)", 7, &scale)
        );
        let mut other_scale = scale;
        other_scale.attack_eval += 1;
        for different in [
            point_key("cifarnet", &["ifgsm", "ifgm"], 0.5, "dns(0.5)", 7, &scale),
            point_key("lenet5", &["ifgsm"], 0.5, "dns(0.5)", 7, &scale),
            point_key("lenet5", &["ifgsm", "ifgm"], 0.25, "dns(0.5)", 7, &scale),
            point_key("lenet5", &["ifgsm", "ifgm"], 0.5, "dns(0.25)", 7, &scale),
            point_key("lenet5", &["ifgsm", "ifgm"], 0.5, "dns(0.5)", 8, &scale),
            point_key(
                "lenet5",
                &["ifgsm", "ifgm"],
                0.5,
                "dns(0.5)",
                7,
                &other_scale,
            ),
        ] {
            assert_ne!(base, different);
        }
    }
}
