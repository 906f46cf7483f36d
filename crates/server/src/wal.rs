//! Per-session write-ahead log: the durable record of every
//! acknowledged state-changing command.
//!
//! The log is a flat file of checksummed, length-prefixed records.
//! Each record frames one protocol command line (the canonical JSON
//! request the writer lane executed):
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload (len B)  |
//! +----------------+----------------+------------------+
//! ```
//!
//! `crc32` is the IEEE 802.3 checksum of the payload bytes; `len` is
//! bounded by [`MAX_RECORD_LEN`] so a corrupt header can never drive a
//! giant allocation. The payload is UTF-8 JSON — one command per
//! record, no trailing newline.
//!
//! Recovery ([`scan`]) walks the file front to back and stops at the
//! first defect: a torn header, a torn payload, an implausible length,
//! a checksum mismatch, or non-UTF-8 bytes. Everything before the
//! defect is the *clean prefix* — exactly the records whose append was
//! fsynced before the crash — and everything from the defect onward is
//! truncated on reopen. Corrupt bytes are a normal crash artifact here,
//! never a panic.
//!
//! Append durability: [`Wal::append`] writes the framed record and
//! fsyncs (`sync_data`) before returning, so the writer lane only
//! acknowledges a mutation that is already on disk. The `wal.append`
//! and `wal.fsync` failpoints simulate a torn write (half the record
//! lands, then the "disk" fails) and an fsync failure respectively;
//! [`Wal::rewrite`] (log compaction after a checkpoint) is covered by
//! the `wal.checkpoint` failpoint at its call site in the registry.
//!
//! See `DESIGN.md` §16 for the full durability model (fsync points,
//! recovery algorithm, checkpoint anchoring, degradation rules).

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Bytes of framing before each record payload (`len` + `crc32`).
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single record's payload length. Command lines are
/// small (a `commit` is ~100 bytes); the bound exists so a corrupted
/// length field reads as "implausible" instead of driving a huge
/// allocation during recovery.
pub const MAX_RECORD_LEN: u32 = 1 << 20;

/// IEEE 802.3 CRC-32 of `bytes`. Bitwise (no table): WAL records are
/// tiny and this keeps the codec dependency-free and obviously correct.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frames one command line into `[len][crc32][payload]` wire bytes.
#[must_use]
pub fn encode_record(line: &str) -> Vec<u8> {
    let payload = line.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Result of walking a WAL image front to back: the clean prefix of
/// records, how many bytes it spans, and why the walk stopped early
/// (if it did).
#[derive(Debug)]
pub struct Scan {
    /// Decoded record payloads, in append order.
    pub records: Vec<String>,
    /// Bytes covered by the clean prefix — the truncation point when
    /// the tail is torn.
    pub valid_len: u64,
    /// `Some(reason)` when bytes past the clean prefix were rejected
    /// (torn header/payload, bad length, checksum mismatch, non-UTF-8).
    pub truncated: Option<String>,
}

/// Decodes a WAL image into its clean prefix. Total: every input —
/// including truncations at arbitrary byte offsets, single-bit flips,
/// and random garbage — yields a prefix plus an optional truncation
/// reason, never a panic.
#[must_use]
pub fn scan(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut truncated = None;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            truncated = Some(format!("torn header ({} trailing bytes)", rest.len()));
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD_LEN {
            truncated = Some(format!("implausible record length {len}"));
            break;
        }
        let len = len as usize;
        if rest.len() < HEADER_LEN + len {
            truncated = Some(format!(
                "torn payload (record wants {len} bytes, {} present)",
                rest.len() - HEADER_LEN
            ));
            break;
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != crc {
            truncated = Some("checksum mismatch".into());
            break;
        }
        match std::str::from_utf8(payload) {
            Ok(s) => records.push(s.to_owned()),
            Err(_) => {
                truncated = Some("payload is not UTF-8".into());
                break;
            }
        }
        off += HEADER_LEN + len;
    }
    Scan {
        records,
        valid_len: off as u64,
        truncated,
    }
}

/// An open per-session WAL file positioned for appends.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Records currently in the log (replayed + appended since open).
    pub records: u64,
    /// Bytes currently in the log.
    pub bytes: u64,
}

impl Wal {
    /// Opens (or creates) the log at `path`, decodes the clean prefix,
    /// truncates any torn tail in place, and positions for appends.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be read,
    /// created, or truncated. Corrupt *content* is not an error — it is
    /// reported through [`Scan::truncated`] and cut off.
    pub fn open(path: &Path) -> std::io::Result<(Self, Scan)> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan(&bytes);
        if scan.valid_len < bytes.len() as u64 {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        let wal = Self {
            path: path.to_owned(),
            file,
            records: scan.records.len() as u64,
            bytes: scan.valid_len,
        };
        Ok((wal, scan))
    }

    /// Appends one framed record and fsyncs it. Returns the framed
    /// byte count on success; the caller must not acknowledge the
    /// mutation unless this returned `Ok`.
    ///
    /// # Errors
    ///
    /// Returns the write or fsync error (including the synthetic ones
    /// injected by the `wal.append`/`wal.fsync` failpoints — the former
    /// leaves a deliberately torn half-record on disk so recovery sweeps
    /// exercise the truncation path).
    pub fn append(&mut self, line: &str) -> std::io::Result<u64> {
        let rec = encode_record(line);
        if faultinject::fire("wal.append").is_some() {
            // Simulated torn write: half the frame reaches the disk and
            // the device errors before the rest. Recovery must truncate
            // this partial record.
            let _ = self.file.write_all(&rec[..rec.len() / 2]);
            let _ = self.file.sync_data();
            return Err(std::io::Error::other(
                "failpoint `wal.append`: injected torn write",
            ));
        }
        self.file.write_all(&rec)?;
        if faultinject::fire("wal.fsync").is_some() {
            return Err(std::io::Error::other(
                "failpoint `wal.fsync`: injected fsync failure",
            ));
        }
        self.file.sync_data()?;
        self.records += 1;
        self.bytes += rec.len() as u64;
        Ok(rec.len() as u64)
    }

    /// Compacts the log to exactly `tail` (the records newer than the
    /// checkpoint anchor): writes a `.tmp` sibling, fsyncs, renames it
    /// over the live log, and reopens for appends — the same
    /// crash-safety discipline as `atomic_write_text`. A crash at any
    /// point leaves either the old complete log or the new one.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the partially written temp
    /// file is removed on the error path and the old log stays intact.
    pub fn rewrite(&mut self, tail: &[String]) -> std::io::Result<()> {
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let write_all = |tmp: &Path| -> std::io::Result<(File, u64, u64)> {
            let mut f = File::create(tmp)?;
            let mut bytes = 0u64;
            for line in tail {
                let rec = encode_record(line);
                f.write_all(&rec)?;
                bytes += rec.len() as u64;
            }
            f.sync_data()?;
            Ok((f, bytes, tail.len() as u64))
        };
        let (file, bytes, records) = match write_all(&tmp) {
            Ok(t) => t,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // The renamed handle is already positioned at end-of-file.
        self.file = file;
        self.records = records;
        self.bytes = bytes;
        Ok(())
    }

    /// The log's on-disk path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines() -> Vec<String> {
        vec![
            r#"{"cmd":"load","design":"small:7"}"#.to_owned(),
            r#"{"cmd":"calibrate","solver":"cgnr"}"#.to_owned(),
            r#"{"cmd":"commit","cell":"g1","to":"INV_X2"}"#.to_owned(),
        ]
    }

    fn image(lines: &[String]) -> Vec<u8> {
        lines.iter().flat_map(|l| encode_record(l)).collect()
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Classic IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_decodes_every_record() {
        let lines = lines();
        let s = scan(&image(&lines));
        assert_eq!(s.records, lines);
        assert!(s.truncated.is_none());
        assert_eq!(s.valid_len, image(&lines).len() as u64);
    }

    #[test]
    fn truncation_sweep_yields_clean_prefix_at_every_byte_offset() {
        let lines = lines();
        let img = image(&lines);
        // Where each record's frame ends; a cut strictly inside frame i
        // must recover exactly records 0..i.
        let mut ends = Vec::new();
        let mut acc = 0usize;
        for l in &lines {
            acc += HEADER_LEN + l.len();
            ends.push(acc);
        }
        for cut in 0..=img.len() {
            let s = scan(&img[..cut]);
            let complete = ends.iter().filter(|e| **e <= cut).count();
            assert_eq!(s.records, lines[..complete], "cut at {cut}");
            assert_eq!(
                s.valid_len,
                ends.get(complete.wrapping_sub(1)).copied().unwrap_or(0) as u64
            );
            assert_eq!(
                s.truncated.is_some(),
                cut != ends.get(complete.wrapping_sub(1)).copied().unwrap_or(0),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn single_bit_flip_sweep_never_panics_and_keeps_the_untouched_prefix() {
        let lines = lines();
        let img = image(&lines);
        // Frame start offsets, to know which records a flip cannot touch.
        let mut starts = vec![0usize];
        for l in &lines[..lines.len() - 1] {
            starts.push(starts.last().unwrap() + HEADER_LEN + l.len());
        }
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut corrupt = img.clone();
                corrupt[byte] ^= 1 << bit;
                let s = scan(&corrupt);
                // The records framed entirely before the flipped byte
                // are untouched and must decode verbatim.
                let intact = starts.iter().filter(|s| **s < byte).count();
                let intact = intact.min(s.records.len());
                assert_eq!(
                    s.records[..intact],
                    lines[..intact],
                    "flip at byte {byte} bit {bit}"
                );
                // A flip is always detected: either fewer records come
                // back or the walk reports a truncation.
                assert!(
                    s.records.len() < lines.len() || s.truncated.is_some(),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn random_garbage_yields_prefix_or_typed_reason_never_a_panic() {
        // Deterministic xorshift so the sweep reproduces.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 7, 8, 9, 64, 257, 4096] {
            for _ in 0..8 {
                let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
                let s = scan(&bytes);
                assert!(s.valid_len <= bytes.len() as u64);
                if s.valid_len < bytes.len() as u64 {
                    assert!(s.truncated.is_some());
                }
            }
        }
        // An implausible length field is named, not allocated.
        let mut huge = (u32::MAX).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 4]);
        let s = scan(&huge);
        assert_eq!(s.records.len(), 0);
        assert!(s.truncated.unwrap().contains("implausible"));
    }

    #[test]
    fn open_truncates_a_torn_tail_and_appends_after_it() {
        let dir = std::env::temp_dir().join(format!("mgba_wal_unit_{}_torn", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let lines = lines();
        let mut img = image(&lines);
        // Tear the last record in half.
        let keep = img.len() - (HEADER_LEN + lines[2].len()) / 2;
        img.truncate(keep);
        std::fs::write(&path, &img).unwrap();

        let (mut wal, s) = Wal::open(&path).unwrap();
        assert_eq!(s.records, lines[..2]);
        assert!(s.truncated.is_some());
        assert_eq!(wal.records, 2);

        // The file was physically truncated to the clean prefix, and a
        // fresh append lands after it.
        wal.append(r#"{"cmd":"recalibrate"}"#).unwrap();
        let (wal2, s2) = Wal::open(&path).unwrap();
        assert_eq!(
            s2.records,
            vec![
                lines[0].clone(),
                lines[1].clone(),
                r#"{"cmd":"recalibrate"}"#.to_owned()
            ]
        );
        assert!(s2.truncated.is_none());
        assert_eq!(wal2.records, 3);
    }

    #[test]
    fn rewrite_compacts_to_the_tail_atomically() {
        let dir =
            std::env::temp_dir().join(format!("mgba_wal_unit_{}_compact", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.wal");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for l in lines() {
            wal.append(&l).unwrap();
        }
        let tail = vec![lines()[2].clone()];
        wal.rewrite(&tail).unwrap();
        assert_eq!(wal.records, 1);
        let (_, s) = Wal::open(&path).unwrap();
        assert_eq!(s.records, tail);
        // Appends continue after the compaction point.
    }
}
