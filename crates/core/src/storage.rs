//! Shared persistence substrate for every on-disk format in the crate.
//!
//! Three formats persist state next to each other — JSON checkpoints
//! ([`crate::checkpoint`]), the binary write-ahead log ([`crate::wal`]),
//! and the compressed mode archive ([`crate::archive`]) — and all three
//! share the same durability discipline. This module owns the shared
//! primitives so the discipline lives in exactly one place:
//!
//! * [`crc32`] — CRC-32 (IEEE 802.3, reflected), the checksum every
//!   format frames its payloads with;
//! * [`format_text_header`] / [`parse_text_header`] — the one-line
//!   `MAGIC v<version> <tokens...>\n` versioned header grammar;
//! * [`atomic_write`] — unique temp sibling + rename + file fsync +
//!   parent-directory fsync, so a crash mid-write can never leave a torn
//!   file under the final name;
//! * [`BlockWriter`] / [`BlockReader`] / [`read_block_at`] — the
//!   `[u32 len LE][u32 crc32 LE][payload]` block framing, with sequential
//!   intact-prefix scans (WAL recovery) and seekable single-block reads
//!   (archive replay);
//! * [`prune_keep_last`] — keep-last-K retention over `(sort-key, path)`
//!   file lists, returning the truncation floor a WAL may advance to.
//!
//! The wire formats themselves are unchanged by this extraction: a
//! checkpoint or WAL written before this module existed still loads.

use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `u32 len + u32 crc` preceding every framed block payload.
pub const FRAME_HEAD: usize = 8;

/// Upper bound on a single framed payload; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// Slice-by-8 lookup tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the bytewise table, and `CRC_TABLES[k][b]` advances `CRC_TABLES[k − 1][b]`
/// by one more zero byte, so eight tables fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) of `data`, eight bytes per table step
/// (slice-by-8); the tail is folded a byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

/// Flushes a directory's entry table to stable storage. On POSIX, a
/// rename is only durable once the *directory* is fsynced — fsyncing the
/// file alone leaves the new directory entry in the page cache, so a
/// power loss right after a "successful" save can silently revert it.
/// Checkpoint saves, WAL segment creation/truncation, and archive writes
/// all route through this. Non-Unix platforms have no directory-fsync
/// primitive; there the rename itself is the best available barrier.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// A temp-file sibling of `path` that is unique to this call.
///
/// Concurrent writers into one directory must never share a temp path:
/// with a fixed `.tmp` suffix, writer B's `File::create` would truncate
/// writer A's half-written payload and the subsequent renames would race
/// (one fails with `NotFound`, or a torn mix gets promoted). A
/// process-wide counter plus the pid keeps every in-flight write on its
/// own file; readers and directory scans never look at `.tmp` names.
pub fn unique_tmp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

/// Writes `bytes` to `path` atomically: unique temp sibling, then rename.
/// With `durable` set, the file is fsynced before the rename and the
/// parent directory after it, so a crash can neither tear the file nor
/// revert an acked write. Without it the fsyncs are skipped — the caller
/// has decided the content is already covered by some other durable
/// artefact (e.g. a WAL retention rewrite right after a durable
/// checkpoint). On failure the temp sibling is removed best-effort.
pub fn atomic_write(path: &Path, bytes: &[u8], durable: bool) -> std::io::Result<()> {
    let tmp = unique_tmp_path(path);
    let wrote = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        if durable {
            // Flush to stable storage before the rename makes the file
            // visible under its final name; a crash before this point
            // leaves only the temp file, which readers never look at.
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if durable {
            // The rename itself lives in the directory's entry table:
            // without this fsync a power loss can revert an acked save.
            // A bare relative filename has `Some("")` as its parent,
            // which opens as ENOENT — that means the current directory.
            match path.parent() {
                Some(parent) if parent.as_os_str().is_empty() => fsync_dir(Path::new(".")),
                Some(parent) => fsync_dir(parent),
                None => Ok(()),
            }
        } else {
            Ok(())
        }
    })();
    if wrote.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    wrote
}

// ---------------------------------------------------------------------------
// Versioned text headers
// ---------------------------------------------------------------------------

/// Why a versioned header line did not parse. Callers map these onto
/// their format-specific error types (and error strings), so existing
/// messages stay stable.
#[derive(Debug)]
pub enum HeaderError {
    /// The line does not start with the expected magic token.
    BadMagic,
    /// The `v<N>` version token is missing or malformed.
    NoVersion,
    /// The version is newer than the caller supports.
    Unsupported(u32),
}

/// A parsed `MAGIC v<version> <tokens...>` header line.
#[derive(Debug)]
pub struct TextHeader<'a> {
    /// The format version the file declares.
    pub version: u32,
    /// The format-specific tokens after the version, in order.
    pub rest: Vec<&'a str>,
}

/// Formats the one-line versioned header every format starts with:
/// `MAGIC v<version> <tokens...>\n` (the space before the tokens is
/// omitted when there are none).
pub fn format_text_header(magic: &str, version: u32, rest: &[&str]) -> String {
    let mut line = format!("{magic} v{version}");
    for tok in rest {
        line.push(' ');
        line.push_str(tok);
    }
    line.push('\n');
    line
}

/// Parses a header line (without the trailing newline) against `magic`,
/// rejecting versions newer than `max_version`.
pub fn parse_text_header<'a>(
    line: &'a str,
    magic: &str,
    max_version: u32,
) -> Result<TextHeader<'a>, HeaderError> {
    let mut parts = line.split(' ');
    if parts.next() != Some(magic) {
        return Err(HeaderError::BadMagic);
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or(HeaderError::NoVersion)?;
    if version > max_version {
        return Err(HeaderError::Unsupported(version));
    }
    Ok(TextHeader {
        version,
        rest: parts.collect(),
    })
}

// ---------------------------------------------------------------------------
// Block framing
// ---------------------------------------------------------------------------

/// Why a framed block could not be read back.
#[derive(Debug)]
pub enum BlockError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The frame head or payload extends past the end of the file.
    Truncated,
    /// The frame head declares a payload larger than [`MAX_FRAME_PAYLOAD`].
    TooLarge(u32),
    /// The payload's CRC-32 does not match the frame head.
    Checksum {
        /// Checksum the frame head promised.
        expected: u32,
        /// Checksum of the payload as read.
        got: u32,
    },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Io(e) => write!(f, "block io error: {e}"),
            BlockError::Truncated => write!(f, "truncated block frame"),
            BlockError::TooLarge(n) => {
                write!(f, "block payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            BlockError::Checksum { expected, got } => {
                write!(
                    f,
                    "block checksum mismatch: head {expected:08x}, payload {got:08x}"
                )
            }
        }
    }
}

impl std::error::Error for BlockError {}

impl From<std::io::Error> for BlockError {
    fn from(e: std::io::Error) -> Self {
        BlockError::Io(e)
    }
}

/// Where a written block landed: the absolute offset of its frame head
/// and the payload length. An index built from these handles lets a
/// reader seek straight to any block.
#[derive(Clone, Copy, Debug)]
pub struct BlockHandle {
    /// Absolute byte offset of the `[len][crc]` frame head.
    pub offset: u64,
    /// Payload length in bytes (the frame occupies `FRAME_HEAD + len`).
    pub len: u32,
}

/// Appends `[u32 len LE][u32 crc32 LE][payload]` to `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One block as a standalone frame byte vector.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEAD + payload.len());
    append_frame(&mut out, payload);
    out
}

/// Validates the frame starting at `at` in a byte image and returns its
/// payload range. `None` means the bytes from `at` on are not an intact
/// frame — torn tail, bit rot, or an absurd length.
pub fn frame_payload_at(bytes: &[u8], at: usize) -> Option<std::ops::Range<usize>> {
    let len = u32_at(bytes, at)?;
    let crc = u32_at(bytes, at + 4)?;
    if len > MAX_FRAME_PAYLOAD {
        return None;
    }
    let start = at + FRAME_HEAD;
    let payload = bytes.get(start..start + len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    Some(start..start + len as usize)
}

/// Little-endian `u32` at `at`, if in bounds.
pub fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
}

/// Little-endian `u64` at `at`, if in bounds.
pub fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Writes CRC-framed blocks to a byte sink, tracking absolute offsets so
/// the caller can build a seekable index as it writes.
#[derive(Debug)]
pub struct BlockWriter<W: Write> {
    sink: W,
    offset: u64,
}

impl<W: Write> BlockWriter<W> {
    /// A writer whose next block lands at absolute offset `offset` (the
    /// bytes before it — e.g. a text header — were written by the caller).
    pub fn with_offset(sink: W, offset: u64) -> BlockWriter<W> {
        BlockWriter { sink, offset }
    }

    /// Frames `payload` and writes it as a single `write_all`, returning
    /// where it landed.
    pub fn write_block(&mut self, payload: &[u8]) -> std::io::Result<BlockHandle> {
        let frame = encode_frame(payload);
        self.sink.write_all(&frame)?;
        let handle = BlockHandle {
            offset: self.offset,
            len: payload.len() as u32,
        };
        self.offset += frame.len() as u64;
        Ok(handle)
    }

    /// Absolute offset the next block would land at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The underlying sink (e.g. to fsync a file after the last block).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.sink
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Sequential scanner over a byte image of CRC-framed blocks: yields each
/// intact payload in order and stops at the first damaged frame, which is
/// how WAL recovery finds the intact prefix to truncate back to.
#[derive(Debug)]
pub struct BlockReader<'a> {
    bytes: &'a [u8],
    at: usize,
    torn: bool,
}

impl<'a> BlockReader<'a> {
    /// A scanner starting at byte offset `start` (past any text header).
    pub fn new(bytes: &'a [u8], start: usize) -> BlockReader<'a> {
        BlockReader {
            bytes,
            at: start,
            torn: false,
        }
    }

    /// The next intact block: `(frame-head offset, payload)`. `None` at
    /// the end of the image or at the first damaged frame (check
    /// [`BlockReader::torn`] to distinguish).
    pub fn next_block(&mut self) -> Option<(u64, &'a [u8])> {
        if self.torn || self.at >= self.bytes.len() {
            return None;
        }
        match frame_payload_at(self.bytes, self.at) {
            Some(range) => {
                let head = self.at as u64;
                self.at = range.end;
                Some((head, &self.bytes[range]))
            }
            None => {
                self.torn = true;
                None
            }
        }
    }

    /// Byte offset of the end of the intact prefix scanned so far.
    pub fn pos(&self) -> usize {
        self.at
    }

    /// True once a damaged frame stopped the scan before the end of the
    /// image.
    pub fn torn(&self) -> bool {
        self.torn
    }
}

/// Seeks to `offset` in `src` and reads back one framed block, verifying
/// length and checksum. This is the random-access read path archive
/// replay uses to stream only the blocks a time range admits.
pub fn read_block_at(src: &mut (impl Read + Seek), offset: u64) -> Result<Vec<u8>, BlockError> {
    src.seek(std::io::SeekFrom::Start(offset))?;
    let mut head = [0u8; FRAME_HEAD];
    read_exact_or_truncated(src, &mut head)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let expected = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(BlockError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(src, &mut payload)?;
    let got = crc32(&payload);
    if got != expected {
        return Err(BlockError::Checksum { expected, got });
    }
    Ok(payload)
}

fn read_exact_or_truncated(src: &mut impl Read, buf: &mut [u8]) -> Result<(), BlockError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            BlockError::Truncated
        } else {
            BlockError::Io(e)
        }
    })
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

/// What a [`prune_keep_last`] pass did.
#[derive(Debug)]
pub struct Pruned {
    /// Files deleted.
    pub deleted: usize,
    /// Sort key of the oldest *surviving* file — the floor a dependent
    /// log may truncate to. `None` when there were no files at all.
    pub floor: Option<u64>,
}

/// Keep-last-K retention over `(sort-key, path)` pairs sorted newest
/// first: deletes everything past the first `keep` entries (never the
/// newest) and reports the surviving floor. `keep == 0` disables
/// deletion. Failures to delete are skipped — retention is best-effort
/// and must never fail the save that triggered it.
pub fn prune_keep_last(files: &[(u64, PathBuf)], keep: usize) -> Pruned {
    if files.is_empty() {
        return Pruned {
            deleted: 0,
            floor: None,
        };
    }
    if keep == 0 || files.len() <= keep {
        return Pruned {
            deleted: 0,
            floor: files.last().map(|(s, _)| *s),
        };
    }
    let mut deleted = 0;
    for (_, path) in &files[keep..] {
        if std::fs::remove_file(path).is_ok() {
            deleted += 1;
        }
    }
    Pruned {
        deleted,
        floor: files.get(keep - 1).map(|(s, _)| *s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 reference values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The slice-by-8 fold equals the bytewise definition at every length
    /// across the 8-byte step and its tail, and at unaligned offsets.
    #[test]
    fn crc32_matches_bytewise_reference() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 == 1 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            crc ^ 0xFFFF_FFFF
        }
        let buf: Vec<u8> = (0..96u32).map(|i| (i * 151 + 7) as u8).collect();
        for offset in 0..8 {
            for len in 0..=70 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), bytewise(data), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn text_header_roundtrips() {
        let line = format_text_header("IMRDMD-X", 3, &["abc", "42"]);
        assert_eq!(line, "IMRDMD-X v3 abc 42\n");
        let h = parse_text_header(line.trim_end(), "IMRDMD-X", 3).expect("parse");
        assert_eq!(h.version, 3);
        assert_eq!(h.rest, vec!["abc", "42"]);
        assert!(matches!(
            parse_text_header("OTHER v1", "IMRDMD-X", 3),
            Err(HeaderError::BadMagic)
        ));
        assert!(matches!(
            parse_text_header("IMRDMD-X three", "IMRDMD-X", 3),
            Err(HeaderError::NoVersion)
        ));
        assert!(matches!(
            parse_text_header("IMRDMD-X v4", "IMRDMD-X", 3),
            Err(HeaderError::Unsupported(4))
        ));
    }

    #[test]
    fn block_writer_offsets_feed_seekable_reads() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HDR\n");
        let mut w = BlockWriter::with_offset(&mut buf, 4);
        let a = w.write_block(b"first").expect("write");
        let b = w.write_block(b"second-block").expect("write");
        assert_eq!(a.offset, 4);
        assert_eq!(b.offset, 4 + FRAME_HEAD as u64 + 5);
        let mut cur = std::io::Cursor::new(&buf);
        assert_eq!(
            read_block_at(&mut cur, b.offset).expect("read"),
            b"second-block"
        );
        assert_eq!(read_block_at(&mut cur, a.offset).expect("read"), b"first");
    }

    #[test]
    fn sequential_scan_stops_at_damage() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"one");
        append_frame(&mut buf, b"two");
        let intact_len = buf.len();
        append_frame(&mut buf, b"three");
        let at = buf.len() - 2;
        buf[at] ^= 0x10; // bit-flip inside the last payload
        let mut r = BlockReader::new(&buf, 0);
        assert_eq!(r.next_block().map(|(_, p)| p), Some(&b"one"[..]));
        assert_eq!(r.next_block().map(|(_, p)| p), Some(&b"two"[..]));
        assert!(r.next_block().is_none());
        assert!(r.torn());
        assert_eq!(r.pos(), intact_len);
    }

    #[test]
    fn corrupt_block_is_a_typed_error_on_seekable_reads() {
        let mut buf = encode_frame(b"payload");
        buf[FRAME_HEAD + 2] ^= 0x01;
        let mut cur = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_block_at(&mut cur, 0),
            Err(BlockError::Checksum { .. })
        ));
        let mut cur = std::io::Cursor::new(&buf[..buf.len() - 3]);
        assert!(matches!(
            read_block_at(&mut cur, 0),
            Err(BlockError::Truncated)
        ));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("imrdmd-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("file.bin");
        atomic_write(&path, b"v1", true).expect("write");
        atomic_write(&path, b"v2", false).expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"v2");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("scan")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp siblings survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bare relative filename (`Some("")` parent) must still write
    /// durably: the directory fsync resolves to the current directory
    /// instead of failing ENOENT after the rename already landed.
    #[test]
    fn atomic_write_accepts_bare_relative_filenames() {
        let dir = std::env::temp_dir().join(format!("imrdmd-storage-bare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let prev = std::env::current_dir().expect("cwd");
        std::env::set_current_dir(&dir).expect("chdir");
        let result = atomic_write(Path::new("bare.bin"), b"payload", true);
        let content = std::fs::read("bare.bin");
        std::env::set_current_dir(prev).expect("chdir back");
        result.expect("durable write with empty parent");
        assert_eq!(content.expect("read back").as_slice(), b"payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_and_reports_floor() {
        let dir = std::env::temp_dir().join(format!("imrdmd-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let files: Vec<(u64, PathBuf)> = [40u64, 30, 20, 10]
            .iter()
            .map(|s| {
                let p = dir.join(format!("f-{s}"));
                std::fs::write(&p, b"x").expect("write");
                (*s, p)
            })
            .collect();
        let pr = prune_keep_last(&files, 2);
        assert_eq!(pr.deleted, 2);
        assert_eq!(pr.floor, Some(30));
        assert!(files[0].1.exists() && files[1].1.exists());
        assert!(!files[2].1.exists() && !files[3].1.exists());
        let pr = prune_keep_last(&files[..2], 0);
        assert_eq!((pr.deleted, pr.floor), (0, Some(30)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
