//! Coordinator/worker message types and their JSON encoding.
//!
//! Messages travel one per `advcomp-wire` frame. They are written with
//! `format!` and [`Escaped`] strings and parsed by the wire codec
//! ([`advcomp_wire::json`]); point records travel as an **escaped JSON
//! string field** rather than a nested object so the coordinator journals
//! the worker's exact bytes — the bit-identity contract needs the record
//! to cross the wire untouched.

use advcomp_wire::json::{Escaped, Json};

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Handshake: worker id plus the config hash of its
    /// [`PreparedMatrix`](crate::sweep::PreparedMatrix) — rejected unless
    /// it matches the coordinator's.
    Hello {
        /// Worker identifier (for lease bookkeeping and events).
        worker: String,
        /// `PreparedMatrix::config_hash()` of the worker's matrix.
        config: String,
    },
    /// Ask for work.
    Request,
    /// Refresh the lease on `key` while computing it.
    Heartbeat {
        /// Journal key of the leased point.
        key: String,
    },
    /// A completed point: the full [`PointRecord`](crate::journal::PointRecord)
    /// JSON, transported verbatim.
    Result {
        /// Journal key of the point.
        key: String,
        /// Exact `PointRecord::to_json()` bytes.
        record: String,
    },
    /// The point failed after the worker's local retry budget.
    Failed {
        /// Journal key of the point.
        key: String,
        /// Final error (or panic) message.
        error: String,
    },
}

/// Messages the coordinator sends back (exactly one per worker message).
#[derive(Debug, Clone, PartialEq)]
pub enum CoordMsg {
    /// Work assignment: compute point `index` and heartbeat until done.
    Grant {
        /// Point index into the prepared matrix.
        index: usize,
        /// Journal key (workers cross-check it against their own matrix).
        key: String,
        /// Lease time-to-live granted, in milliseconds.
        deadline_ms: u64,
    },
    /// No work right now (also the generic ack, with `ms == 0`).
    Wait {
        /// Suggested wait before the next request, in milliseconds.
        ms: u64,
    },
    /// Sweep complete; the worker should exit cleanly.
    Done,
    /// Handshake or protocol rejection; the worker must not continue.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
}

fn field_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(String::from)
        .ok_or_else(|| format!("missing/malformed string field '{key}'"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/malformed integer field '{key}'"))
}

impl WorkerMsg {
    /// Encodes to one frame payload.
    pub fn to_json(&self) -> String {
        match self {
            WorkerMsg::Hello { worker, config } => format!(
                "{{\"type\": \"hello\", \"worker\": {}, \"config\": {}}}",
                Escaped(worker),
                Escaped(config)
            ),
            WorkerMsg::Request => "{\"type\": \"request\"}".into(),
            WorkerMsg::Heartbeat { key } => {
                format!("{{\"type\": \"heartbeat\", \"key\": {}}}", Escaped(key))
            }
            WorkerMsg::Result { key, record } => format!(
                "{{\"type\": \"result\", \"key\": {}, \"record\": {}}}",
                Escaped(key),
                Escaped(record)
            ),
            WorkerMsg::Failed { key, error } => format!(
                "{{\"type\": \"failed\", \"key\": {}, \"error\": {}}}",
                Escaped(key),
                Escaped(error)
            ),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A description of the malformation — the coordinator treats it as a
    /// protocol violation and drops the connection.
    pub fn from_json(payload: &[u8]) -> Result<WorkerMsg, String> {
        let doc = Json::parse(payload)?;
        match field_str(&doc, "type")?.as_str() {
            "hello" => Ok(WorkerMsg::Hello {
                worker: field_str(&doc, "worker")?,
                config: field_str(&doc, "config")?,
            }),
            "request" => Ok(WorkerMsg::Request),
            "heartbeat" => Ok(WorkerMsg::Heartbeat {
                key: field_str(&doc, "key")?,
            }),
            "result" => Ok(WorkerMsg::Result {
                key: field_str(&doc, "key")?,
                record: field_str(&doc, "record")?,
            }),
            "failed" => Ok(WorkerMsg::Failed {
                key: field_str(&doc, "key")?,
                error: field_str(&doc, "error")?,
            }),
            other => Err(format!("unknown worker message type '{other}'")),
        }
    }
}

impl CoordMsg {
    /// Encodes to one frame payload.
    pub fn to_json(&self) -> String {
        match self {
            CoordMsg::Grant {
                index,
                key,
                deadline_ms,
            } => format!(
                "{{\"type\": \"grant\", \"index\": {index}, \"key\": {}, \"deadline_ms\": {deadline_ms}}}",
                Escaped(key)
            ),
            CoordMsg::Wait { ms } => format!("{{\"type\": \"wait\", \"ms\": {ms}}}"),
            CoordMsg::Done => "{\"type\": \"done\"}".into(),
            CoordMsg::Reject { reason } => {
                format!("{{\"type\": \"reject\", \"reason\": {}}}", Escaped(reason))
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A description of the malformation — the worker treats it as a fatal
    /// protocol error.
    pub fn from_json(payload: &[u8]) -> Result<CoordMsg, String> {
        let doc = Json::parse(payload)?;
        match field_str(&doc, "type")?.as_str() {
            "grant" => Ok(CoordMsg::Grant {
                index: usize::try_from(field_u64(&doc, "index")?)
                    .map_err(|_| "index out of range".to_string())?,
                key: field_str(&doc, "key")?,
                deadline_ms: field_u64(&doc, "deadline_ms")?,
            }),
            "wait" => Ok(CoordMsg::Wait {
                ms: field_u64(&doc, "ms")?,
            }),
            "done" => Ok(CoordMsg::Done),
            "reject" => Ok(CoordMsg::Reject {
                reason: field_str(&doc, "reason")?,
            }),
            other => Err(format!("unknown coordinator message type '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{PointRecord, PointStatus};

    #[test]
    fn worker_messages_round_trip() {
        let msgs = [
            WorkerMsg::Hello {
                worker: "w0".into(),
                config: "00c0ffee00c0ffee".into(),
            },
            WorkerMsg::Request,
            WorkerMsg::Heartbeat {
                key: "deadbeef".into(),
            },
            WorkerMsg::Result {
                key: "deadbeef".into(),
                record: "{\n  \"quoted\": \"yes\\n\"\n}\n".into(),
            },
            WorkerMsg::Failed {
                key: "deadbeef".into(),
                error: "panic: \"boom\"".into(),
            },
        ];
        for m in msgs {
            assert_eq!(
                WorkerMsg::from_json(m.to_json().as_bytes()).unwrap(),
                m,
                "{m:?}"
            );
        }
    }

    #[test]
    fn coord_messages_round_trip() {
        let msgs = [
            CoordMsg::Grant {
                index: 3,
                key: "0123456789abcdef".into(),
                deadline_ms: 2000,
            },
            CoordMsg::Wait { ms: 0 },
            CoordMsg::Wait { ms: 250 },
            CoordMsg::Done,
            CoordMsg::Reject {
                reason: "config hash mismatch".into(),
            },
        ];
        for m in msgs {
            assert_eq!(
                CoordMsg::from_json(m.to_json().as_bytes()).unwrap(),
                m,
                "{m:?}"
            );
        }
    }

    #[test]
    fn point_record_survives_the_wire_byte_exactly() {
        // The record field is the bit-identity carrier: a full PointRecord
        // JSON (newlines, quotes, shortest-round-trip floats) must come out
        // byte-for-byte.
        let rec = PointRecord {
            key: "00c0ffee00c0ffee".into(),
            x: 0.30000000000000004,
            compression: "dns_prune(0.3)".into(),
            status: PointStatus::Ok,
            attempts: 2,
            base_accuracy: 0.937_499_999_999_999_9,
            scenarios: vec![(0.1, 1.0 / 3.0, 0.3)],
            health: vec!["epoch 1: \"rolled back\"".into()],
            error: None,
        };
        let msg = WorkerMsg::Result {
            key: rec.key.clone(),
            record: rec.to_json(),
        };
        match WorkerMsg::from_json(msg.to_json().as_bytes()).unwrap() {
            WorkerMsg::Result { record, .. } => {
                assert_eq!(record, rec.to_json());
                assert_eq!(PointRecord::from_json(&record).unwrap(), rec);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn malformed_messages_are_rejected() {
        for bad in [
            "not json",
            "{\"type\": \"nope\"}",
            "{\"type\": \"grant\", \"index\": \"x\"}",
            "{\"worker\": \"missing type\"}",
        ] {
            assert!(CoordMsg::from_json(bad.as_bytes()).is_err(), "{bad}");
            assert!(WorkerMsg::from_json(bad.as_bytes()).is_err(), "{bad}");
        }
    }
}
