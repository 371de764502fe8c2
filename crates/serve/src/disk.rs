//! The crash-warm tier of [`crate::cache::ServeCache`]: an append-only,
//! fsync'd-on-write log of canonical IR texts and selection memos.
//!
//! A shard that is SIGKILLed and restarted replays this log on boot and
//! comes back with every application parsed and every computed selection
//! memoised — the expensive K-L search never reruns for work the dead
//! process had already finished.
//!
//! # Format
//!
//! The file starts with the 8-byte magic [`MAGIC`] (`ISEDLOG2`),
//! followed by records. Each record is
//!
//! ```text
//! u32 LE payload length | u64 LE FNV-1a(payload) | payload bytes
//! ```
//!
//! Payloads are tagged (`1` = application, `2` = selection) and encode
//! everything needed to rebuild the memo bit-for-bit: the selection's
//! [`SelectionKey`] as length-prefixed opaque bytes, node sets as id
//! lists, `f64`s by bit pattern (signed zeros included), counts as
//! fixed-width little-endian integers. See [`encode_record`].
//!
//! A log with another magic, an `ISEDLOG1` log of the previous format
//! revision included, is not trusted: it is truncated and the cache
//! starts cold once.
//!
//! # Recovery guarantees
//!
//! Replay walks records from the front and stops at the first record
//! that is short, fails its checksum, or does not decode; the file is
//! then **truncated to the last good byte** and appends resume there.
//! A torn write (power loss, SIGKILL mid-`write`) therefore costs at
//! most the interrupted record — everything before it is served warm.
//! Appends are `fsync`'d before the caller proceeds, so a selection
//! that was answered to a client is on disk.

use crate::cache::{fnv1a, SelectionKey};
use isegen_core::{Cut, Ise, IseInstance, IseSelection};
use isegen_graph::{NodeId, NodeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File magic: identifies the log and its format revision.
pub const MAGIC: &[u8; 8] = b"ISEDLOG2";

/// Hard cap on one record payload. The largest bundled workload's
/// canonical IR is well under 1 MiB; 64 MiB matches the wire-level
/// frame cap so anything the daemon accepted can be logged.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// One replayable unit of cache state.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A submitted application: content hash + canonical IR text.
    App {
        /// FNV-1a of `canonical` (validated on replay).
        hash: u64,
        /// The canonical serialization of the program.
        canonical: String,
    },
    /// A computed selection memo for a previously-logged application.
    Selection {
        /// Content hash of the owning application.
        app_hash: u64,
        /// The configuration the selection was computed under.
        key: SelectionKey,
        /// The memoised result.
        selection: IseSelection,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_node_set(out: &mut Vec<u8>, set: &NodeSet) {
    put_u32(out, set.capacity() as u32);
    put_u32(out, set.len() as u32);
    for id in set.iter() {
        put_u32(out, id.index() as u32);
    }
}

/// Serializes one record payload (tag + body, no length/checksum).
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        Record::App { hash, canonical } => {
            out.push(1);
            put_u64(&mut out, *hash);
            put_u32(&mut out, canonical.len() as u32);
            out.extend_from_slice(canonical.as_bytes());
        }
        Record::Selection {
            app_hash,
            key,
            selection,
        } => {
            out.push(2);
            put_u64(&mut out, *app_hash);
            put_u32(&mut out, key.as_bytes().len() as u32);
            out.extend_from_slice(key.as_bytes());
            put_u64(&mut out, selection.total_sw_cycles);
            put_u64(&mut out, selection.saved_cycles);
            put_u32(&mut out, selection.ises.len() as u32);
            for ise in &selection.ises {
                put_u32(&mut out, ise.block_index as u32);
                put_u64(&mut out, ise.saved_per_execution);
                put_u32(&mut out, ise.cut.input_count());
                put_u32(&mut out, ise.cut.output_count());
                put_u64(&mut out, ise.cut.software_latency());
                put_u64(&mut out, ise.cut.hardware_latency().to_bits());
                put_node_set(&mut out, ise.cut.nodes());
                put_u32(&mut out, ise.instances.len() as u32);
                for inst in &ise.instances {
                    put_u32(&mut out, inst.block_index as u32);
                    put_node_set(&mut out, &inst.nodes);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Why a payload failed to decode. Replay treats any of these as the
/// end of the valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt record: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(DecodeError("short payload"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A count that must plausibly fit in the remaining bytes (each
    /// element consuming at least `min_elem_bytes`), so hostile lengths
    /// cannot trigger huge allocations before hitting "short payload".
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.bytes.len() - self.pos {
            return Err(DecodeError("count exceeds payload"));
        }
        Ok(n)
    }

    fn node_set(&mut self) -> Result<NodeSet, DecodeError> {
        let capacity = self.u32()? as usize;
        if capacity > MAX_RECORD_BYTES {
            return Err(DecodeError("node-set capacity out of range"));
        }
        let n = self.count(4)?;
        let mut set = NodeSet::new(capacity);
        for _ in 0..n {
            let id = self.u32()? as usize;
            if id >= capacity {
                return Err(DecodeError("node id out of capacity"));
            }
            set.insert(NodeId::from_index(id));
        }
        if set.len() != n {
            return Err(DecodeError("duplicate node id"));
        }
        Ok(set)
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }
}

/// Decodes one record payload produced by [`encode_record`].
pub fn decode_record(payload: &[u8]) -> Result<Record, DecodeError> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let record = match r.u8()? {
        1 => {
            let hash = r.u64()?;
            let len = r.count(1)?;
            let text = std::str::from_utf8(r.take(len)?)
                .map_err(|_| DecodeError("canonical IR is not UTF-8"))?
                .to_string();
            if fnv1a(text.as_bytes()) != hash {
                return Err(DecodeError("canonical IR does not match its hash"));
            }
            Record::App {
                hash,
                canonical: text,
            }
        }
        2 => {
            let app_hash = r.u64()?;
            let key_len = r.count(1)?;
            let key = SelectionKey::from_bytes(r.take(key_len)?);
            let total_sw_cycles = r.u64()?;
            let saved_cycles = r.u64()?;
            let n_ises = r.count(1)?;
            let mut ises = Vec::with_capacity(n_ises);
            for _ in 0..n_ises {
                let block_index = r.u32()? as usize;
                let saved_per_execution = r.u64()?;
                let inputs = r.u32()?;
                let outputs = r.u32()?;
                let sw_latency = r.u64()?;
                let hw_latency = f64::from_bits(r.u64()?);
                let nodes = r.node_set()?;
                let cut = Cut::from_saved(nodes, inputs, outputs, sw_latency, hw_latency);
                let n_inst = r.count(1)?;
                let mut instances = Vec::with_capacity(n_inst);
                for _ in 0..n_inst {
                    let block_index = r.u32()? as usize;
                    let nodes = r.node_set()?;
                    instances.push(IseInstance { block_index, nodes });
                }
                ises.push(Ise {
                    block_index,
                    cut,
                    instances,
                    saved_per_execution,
                });
            }
            r.done()?;
            Record::Selection {
                app_hash,
                key,
                selection: IseSelection {
                    ises,
                    total_sw_cycles,
                    saved_cycles,
                },
            }
        }
        _ => return Err(DecodeError("unknown record tag")),
    };
    Ok(record)
}

// ---------------------------------------------------------------------
// The log file
// ---------------------------------------------------------------------

/// What replay found in an existing log.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Every record of the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Bytes cut off the tail (torn write / corruption); 0 for a clean
    /// log.
    pub truncated_bytes: u64,
    /// Length of the valid prefix the file was truncated to.
    pub valid_bytes: u64,
}

/// The append-only on-disk cache log. All writes are serialized through
/// one handle and `fsync`'d before returning.
#[derive(Debug)]
pub struct DiskLog {
    path: PathBuf,
    file: Mutex<File>,
}

impl DiskLog {
    /// Opens (or creates) the log at `path`, replays its valid prefix
    /// and truncates any corrupt tail so appends resume cleanly.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(DiskLog, ReplayReport)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let bytes = std::fs::read(&path)?;
        let mut report = ReplayReport::default();

        // An unrecognized header means this is not (a valid prefix of)
        // our log — start over rather than appending garbage to garbage.
        let mut good = if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC[..] {
            MAGIC.len()
        } else if bytes.is_empty() {
            // Fresh file: seed the header. There is nothing to replay —
            // return before the record loop, which indexes past the
            // (still empty) in-memory snapshot otherwise.
            file.write_all(MAGIC)?;
            file.sync_data()?;
            report.valid_bytes = MAGIC.len() as u64;
            let log = DiskLog {
                path,
                file: Mutex::new(file),
            };
            return Ok((log, report));
        } else {
            // Short or foreign header: truncate to zero and re-seed.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.sync_data()?;
            report.truncated_bytes = bytes.len() as u64;
            report.valid_bytes = MAGIC.len() as u64;
            let log = DiskLog {
                path,
                file: Mutex::new(file),
            };
            return Ok((log, report));
        };

        loop {
            let rest = &bytes[good..];
            if rest.is_empty() {
                break;
            }
            let Some(header) = rest.get(..12) else { break };
            let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            if len == 0 || len > MAX_RECORD_BYTES {
                break;
            }
            let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
            let Some(payload) = rest.get(12..12 + len) else {
                break;
            };
            if fnv1a(payload) != sum {
                break;
            }
            let Ok(record) = decode_record(payload) else {
                break;
            };
            report.records.push(record);
            good += 12 + len;
        }

        if good < bytes.len() {
            report.truncated_bytes = (bytes.len() - good) as u64;
            file.set_len(good as u64)?;
            file.sync_data()?;
        }
        report.valid_bytes = good as u64;
        file.seek(SeekFrom::Start(good as u64))?;
        Ok((
            DiskLog {
                path,
                file: Mutex::new(file),
            },
            report,
        ))
    }

    /// Appends one record and `fsync`s it. When this returns `Ok`, a
    /// replay after any crash will see the record.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        let payload = encode_record(record);
        if payload.len() > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds MAX_RECORD_BYTES",
            ));
        }
        let mut framed = Vec::with_capacity(12 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(&framed)?;
        file.sync_data()
    }

    /// Forces pending OS buffers to disk (appends already sync; this is
    /// the belt-and-braces call on `drain`).
    pub fn sync(&self) -> io::Result<()> {
        self.file
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sync_data()
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}
