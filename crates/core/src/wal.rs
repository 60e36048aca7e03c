//! Per-shard write-ahead log for durable streaming ingest.
//!
//! The serving layer acks an ingest batch after the in-memory
//! `try_partial_fit`, but checkpoints only every `checkpoint_every`
//! rounds — so without a log, a crash silently loses up to N−1 *acked*
//! batches per shard. This module closes that gap: an append-only,
//! CRC-framed log records each **repaired** batch (post-[`GapPolicy`]
//! repair, so replay is deterministic) before the ack goes out, and
//! recovery replays the tail of the log on top of the newest restored
//! checkpoint. Because the whole pipeline is deterministic — repairing
//! an already-repaired batch is a bitwise no-op, and every fit path is
//! bitwise-reproducible at any thread count — the recovered state is
//! bitwise-identical to a run that never crashed.
//!
//! The framing and durability primitives (CRC-32 block frames, atomic
//! rewrite + directory fsync, versioned headers) live in
//! [`crate::storage`] and are shared with checkpoints and the mode
//! archive; this module owns only the WAL payload format and recovery
//! semantics.
//!
//! On-disk layout (`wal-<shard>.wal`, one per shard, in the checkpoint
//! directory): a text header line, then binary frames:
//!
//! ```text
//! IMRDMD-WAL v1 <shard>\n
//! [u32 payload-len LE][u32 crc32(payload) LE][payload]...
//! payload = u64 first_step LE, u32 rows LE, u32 cols LE,
//!           rows*cols f64-bit-patterns LE (row major)
//! ```
//!
//! Each frame is written with a single `write_all`, so a crash mid-append
//! leaves a *prefix* of a frame at the tail. [`Wal::recover`] stops at the
//! first frame whose CRC (or length) does not check out, truncates the
//! file back to the last intact frame, and reports the tail as torn —
//! a torn frame is by construction one whose ack never went out.
//!
//! Durability knob ([`Durability`]): `none` writes no log at all,
//! `interval` appends each frame but leaves flushing to the OS (survives
//! process crashes, not power loss), `batch` fsyncs before every ack
//! (survives power loss at a per-request fsync cost).
//!
//! Frames are keyed by `first_step` — the absorbed-snapshot clock that
//! also keys checkpoint file names — so truncation after a checkpoint
//! (drop frames older than the oldest *retained* checkpoint) and replay
//! (apply frames whose `first_step` matches the restored model's
//! `n_steps`) are both computable from directory state alone.
//!
//! [`GapPolicy`]: crate::ingest::GapPolicy

use crate::checkpoint::is_valid_shard_name;
use crate::storage::{self, fsync_dir, u32_at, u64_at, HeaderError, FRAME_HEAD, MAX_FRAME_PAYLOAD};
use hpc_linalg::Mat;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// First token of every WAL file's header line.
pub const WAL_MAGIC: &str = "IMRDMD-WAL";
/// Current on-disk format version.
pub const WAL_VERSION: u32 = 1;

/// Fixed payload prefix: `u64 first_step + u32 rows + u32 cols`.
const PAYLOAD_PREFIX: usize = 16;

// ---------------------------------------------------------------------------
// Durability modes
// ---------------------------------------------------------------------------

/// How aggressively the WAL flushes before acking an ingest batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Durability {
    /// No write-ahead log: acked batches since the last checkpoint are
    /// lost on any crash (the pre-WAL behaviour).
    None,
    /// Append each frame before the ack but let the OS flush: survives
    /// process crashes (the page cache outlives the process), not power
    /// loss.
    #[default]
    Interval,
    /// `fsync` each frame before the ack: an acked batch survives power
    /// loss.
    Batch,
}

impl Durability {
    /// Parses the `--durability` flag grammar: `none`, `interval`, `batch`.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "interval" => Some(Durability::Interval),
            "batch" => Some(Durability::Batch),
            _ => None,
        }
    }

    /// The flag token this mode parses from.
    pub fn as_str(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Interval => "interval",
            Durability::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Errors and failpoints
// ---------------------------------------------------------------------------

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The shard name is not usable as a file-name namespace.
    BadShard(String),
    /// The file exists but its header line is not a valid WAL header for
    /// this shard.
    BadHeader(String),
    /// A test failpoint injected this failure (see [`arm_append_failure`]).
    Injected,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadShard(s) => {
                write!(
                    f,
                    "invalid shard name `{s}`: need 1-64 chars of [A-Za-z0-9_-]"
                )
            }
            WalError::BadHeader(m) => write!(f, "bad wal header: {m}"),
            WalError::Injected => write!(f, "injected wal append failure (failpoint)"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Pending injected append failures (usize::MAX = fail every append).
static APPEND_FAILURES: AtomicUsize = AtomicUsize::new(0);

/// Arms the next `count` [`Wal::append`] calls to fail with
/// [`WalError::Injected`] — the disk-full simulation the degradation
/// tests use. `usize::MAX` makes the failure sticky.
pub fn arm_append_failure(count: usize) {
    APPEND_FAILURES.store(count, Ordering::SeqCst);
}

/// Clears any armed append failures.
pub fn disarm_append_failure() {
    APPEND_FAILURES.store(0, Ordering::SeqCst);
}

fn take_append_failure() -> bool {
    loop {
        let n = APPEND_FAILURES.load(Ordering::SeqCst);
        if n == 0 {
            return false;
        }
        if n == usize::MAX {
            return true;
        }
        if APPEND_FAILURES
            .compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return true;
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// One logged ingest batch: the repaired snapshot columns and the
/// absorbed-snapshot count the batch started at.
#[derive(Clone, Debug)]
pub struct WalFrame {
    /// `model.n_steps()` at the moment the batch was absorbed (0 for the
    /// cold-start batch).
    pub first_step: u64,
    /// The repaired batch, bitwise as fed to `try_partial_fit`.
    pub batch: Mat,
}

fn encode_frame(first_step: u64, batch: &Mat) -> Vec<u8> {
    let (rows, cols) = (batch.rows(), batch.cols());
    let payload_len = PAYLOAD_PREFIX + 8 * rows * cols;
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&first_step.to_le_bytes());
    payload.extend_from_slice(&(rows as u32).to_le_bytes());
    payload.extend_from_slice(&(cols as u32).to_le_bytes());
    for i in 0..rows {
        for j in 0..cols {
            payload.extend_from_slice(&batch[(i, j)].to_bits().to_le_bytes());
        }
    }
    storage::encode_frame(&payload)
}

fn decode_payload(payload: &[u8]) -> Option<WalFrame> {
    let first_step = u64_at(payload, 0)?;
    let rows = u32_at(payload, 8)? as usize;
    let cols = u32_at(payload, 12)? as usize;
    if rows == 0 || cols == 0 || payload.len() != PAYLOAD_PREFIX + 8 * rows * cols {
        return None;
    }
    let mut cells = Vec::with_capacity(rows * cols);
    for k in 0..rows * cols {
        cells.push(f64::from_bits(u64_at(payload, PAYLOAD_PREFIX + 8 * k)?));
    }
    let batch = Mat::from_fn(rows, cols, |i, j| cells[i * cols + j]);
    Some(WalFrame { first_step, batch })
}

/// Raw scan of a WAL byte image: intact frames (with their byte ranges,
/// so retention can splice without re-encoding) and where the intact
/// prefix ends.
struct RawScan {
    header_end: usize,
    /// `(first_step, payload-byte-range)` of every intact frame, in order.
    frames: Vec<(u64, std::ops::Range<usize>)>,
    /// Byte length of the intact prefix (header + intact frames).
    valid_end: usize,
    /// True when trailing bytes past `valid_end` had to be dropped.
    torn: bool,
}

fn parse_header(bytes: &[u8], shard: &str) -> Result<usize, WalError> {
    let line_end = bytes
        .iter()
        .take(2 + WAL_MAGIC.len() + 8 + 64)
        .position(|&b| b == b'\n')
        .ok_or_else(|| WalError::BadHeader("no header line".into()))?;
    let line = std::str::from_utf8(&bytes[..line_end])
        .map_err(|_| WalError::BadHeader("header not valid UTF-8".into()))?;
    let parsed = storage::parse_text_header(line, WAL_MAGIC, WAL_VERSION).map_err(|e| match e {
        HeaderError::BadMagic => WalError::BadHeader(format!("missing `{WAL_MAGIC}` magic")),
        HeaderError::NoVersion => WalError::BadHeader("missing version token".into()),
        HeaderError::Unsupported(v) => WalError::BadHeader(format!(
            "wal format v{v} is newer than supported v{WAL_VERSION}"
        )),
    })?;
    if parsed.rest.first() != Some(&shard) {
        return Err(WalError::BadHeader(format!(
            "wal header names a different shard than `{shard}`"
        )));
    }
    Ok(line_end + 1)
}

fn scan_bytes(bytes: &[u8], shard: &str) -> Result<RawScan, WalError> {
    let header_end = parse_header(bytes, shard)?;
    let mut frames = Vec::new();
    let mut at = header_end;
    let mut torn = false;
    while at < bytes.len() {
        let intact = (|| {
            let len = u32_at(bytes, at)?;
            if len < PAYLOAD_PREFIX as u32 || len > MAX_FRAME_PAYLOAD {
                return None;
            }
            let range = storage::frame_payload_at(bytes, at)?;
            let payload = bytes.get(range.clone())?;
            // Shape sanity: a CRC-intact frame with inconsistent
            // dimensions is still unusable, so treat it as tail damage.
            let rows = u32_at(payload, 8)? as u64;
            let cols = u32_at(payload, 12)? as u64;
            if rows == 0 || cols == 0 || len as u64 != PAYLOAD_PREFIX as u64 + 8 * rows * cols {
                return None;
            }
            let first_step = u64_at(payload, 0)?;
            Some((first_step, range))
        })();
        match intact {
            Some((first_step, range)) => {
                at = range.end;
                frames.push((first_step, range));
            }
            None => {
                torn = true;
                break;
            }
        }
    }
    Ok(RawScan {
        header_end,
        frames,
        valid_end: at,
        torn,
    })
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Everything [`Wal::recover`] found in a shard's log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Intact frames in append order.
    pub frames: Vec<WalFrame>,
    /// True when a torn tail was truncated away.
    pub torn: bool,
    /// Byte length of the intact prefix the file was truncated to.
    pub valid_bytes: u64,
}

/// An open per-shard write-ahead log.
///
/// Opened by the serving layer next to the shard's checkpoints; one
/// append per acked ingest batch, one retention pass per checkpoint.
#[derive(Debug)]
pub struct Wal {
    shard: String,
    path: PathBuf,
    file: std::fs::File,
    durability: Durability,
}

impl Wal {
    /// The log file path for `shard` inside `dir`.
    pub fn path_for(dir: &Path, shard: &str) -> PathBuf {
        dir.join(format!("wal-{shard}.wal"))
    }

    /// Opens (creating if absent) the shard's log for appending. A new
    /// file gets its header written, fsynced, and its directory entry
    /// fsynced before this returns, so the log itself cannot vanish on
    /// power loss. An existing file's header is validated.
    pub fn open(dir: &Path, shard: &str, durability: Durability) -> Result<Wal, WalError> {
        if !is_valid_shard_name(shard) {
            return Err(WalError::BadShard(shard.to_string()));
        }
        std::fs::create_dir_all(dir)?;
        let path = Wal::path_for(dir, shard);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        if file.metadata()?.len() == 0 {
            let header = storage::format_text_header(WAL_MAGIC, WAL_VERSION, &[shard]);
            file.write_all(header.as_bytes())?;
            file.sync_all()?;
            fsync_dir(dir)?;
        } else {
            let mut head = [0u8; 128];
            file.seek(std::io::SeekFrom::Start(0))?;
            let n = file.read(&mut head)?;
            parse_header(&head[..n], shard)?;
        }
        Ok(Wal {
            shard: shard.to_string(),
            path,
            file,
            durability,
        })
    }

    /// The fsync cadence this log was opened with.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Appends one repaired batch as a single CRC-framed write; fsyncs
    /// when the durability mode is [`Durability::Batch`].
    pub fn append(&mut self, first_step: u64, batch: &Mat) -> Result<(), WalError> {
        let _span = crate::obs::WAL_NS.span();
        if take_append_failure() {
            return Err(WalError::Injected);
        }
        let frame = encode_frame(first_step, batch);
        self.file.write_all(&frame)?;
        if self.durability == Durability::Batch {
            self.file.sync_data()?;
            crate::obs::WAL_FSYNCS.inc();
        }
        crate::obs::WAL_APPENDS.inc();
        crate::obs::WAL_BYTES.add(frame.len() as u64);
        Ok(())
    }

    /// Flushes the log to stable storage regardless of durability mode
    /// (graceful-shutdown path).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Drops every frame whose `first_step` is below `keep_from` — the
    /// steps of the oldest *retained* checkpoint, so that any retained
    /// checkpoint plus the remaining tail can still rebuild the shard.
    /// Rewrites via a temp sibling + rename, then reopens the append
    /// handle. The rewrite is fsynced only under [`Durability::Batch`]:
    /// retention runs right after a durable checkpoint save, so every
    /// surviving frame is already covered by the fsynced newest
    /// checkpoint — a crash that loses the rewritten log costs fallback
    /// depth, never acked data.
    pub fn retain_from(&mut self, keep_from: u64) -> Result<(), WalError> {
        let _span = crate::obs::WAL_NS.span();
        let bytes = std::fs::read(&self.path)?;
        let scan = scan_bytes(&bytes, &self.shard)?;
        let drop_frames = scan.frames.iter().filter(|(fs, _)| *fs < keep_from).count();
        if drop_frames == 0 && !scan.torn {
            return Ok(());
        }
        let mut out = Vec::with_capacity(bytes.len());
        out.extend_from_slice(&bytes[..scan.header_end]);
        for (first_step, range) in &scan.frames {
            if *first_step >= keep_from {
                storage::append_frame(&mut out, &bytes[range.clone()]);
            }
        }
        let durable = self.durability == Durability::Batch;
        storage::atomic_write(&self.path, &out, durable)?;
        self.file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        crate::obs::WAL_TRUNCATIONS.inc();
        Ok(())
    }

    /// Scans a shard's log: decodes every intact frame, and when the tail
    /// is torn (crash mid-append) truncates the file back to the last
    /// intact frame so subsequent appends continue cleanly. A missing
    /// file is an empty replay, not an error.
    pub fn recover(dir: &Path, shard: &str) -> Result<WalReplay, WalError> {
        let _span = crate::obs::WAL_NS.span();
        if !is_valid_shard_name(shard) {
            return Err(WalError::BadShard(shard.to_string()));
        }
        let path = Wal::path_for(dir, shard);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
            Err(e) => return Err(e.into()),
        };
        let scan = scan_bytes(&bytes, shard)?;
        let mut frames = Vec::with_capacity(scan.frames.len());
        let mut torn = scan.torn;
        let mut valid_end = scan.valid_end;
        for (_, range) in &scan.frames {
            match decode_payload(&bytes[range.clone()]) {
                Some(frame) => frames.push(frame),
                None => {
                    // CRC passed but the payload would not decode: treat
                    // everything from this frame on as tail damage.
                    torn = true;
                    valid_end = range.start - FRAME_HEAD;
                    break;
                }
            }
        }
        if torn {
            crate::obs::WAL_TORN_TAILS.inc();
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_end as u64)?;
            f.sync_all()?;
        }
        Ok(WalReplay {
            frames,
            torn,
            valid_bytes: valid_end as u64,
        })
    }
}

/// Every shard with a WAL file in `dir` (`wal-<shard>.wal`), sorted.
/// Lets a restarting daemon find tenants that have logged batches but no
/// checkpoint yet. A missing directory is an empty fleet.
pub fn shard_wals(dir: &Path) -> Result<Vec<String>, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut shards = std::collections::BTreeSet::new();
    for entry in entries {
        let path = entry?.path();
        let shard = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("wal-"))
            .and_then(|n| n.strip_suffix(".wal"));
        if let Some(s) = shard {
            if is_valid_shard_name(s) {
                shards.insert(s.to_string());
            }
        }
    }
    Ok(shards.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("imrdmd-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch(first: u64, cols: usize) -> Mat {
        Mat::from_fn(3, cols, |i, j| (first as f64) + i as f64 * 0.25 + j as f64)
    }

    #[test]
    fn append_and_recover_roundtrips_bitwise() {
        let dir = scratch("roundtrip");
        let mut wal = Wal::open(&dir, "t0", Durability::Batch).expect("open");
        wal.append(0, &batch(0, 4)).expect("append");
        wal.append(4, &batch(4, 5)).expect("append");
        let replay = Wal::recover(&dir, "t0").expect("recover");
        assert!(!replay.torn);
        assert_eq!(replay.frames.len(), 2);
        assert_eq!(replay.frames[0].first_step, 0);
        assert_eq!(replay.frames[1].first_step, 4);
        assert_eq!(
            replay.frames[1].batch.as_slice(),
            batch(4, 5).as_slice(),
            "frames round-trip bitwise"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_last_intact_frame() {
        let dir = scratch("torn");
        let mut wal = Wal::open(&dir, "t0", Durability::Interval).expect("open");
        wal.append(0, &batch(0, 4)).expect("append");
        wal.append(4, &batch(4, 4)).expect("append");
        drop(wal);
        let path = Wal::path_for(&dir, "t0");
        let len = std::fs::metadata(&path).expect("meta").len();
        // Chop into the middle of the last frame: a crash mid-append.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open");
        f.set_len(len - 9).expect("truncate");
        drop(f);
        let replay = Wal::recover(&dir, "t0").expect("recover");
        assert!(replay.torn);
        assert_eq!(replay.frames.len(), 1);
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            replay.valid_bytes
        );
        // The file is clean again: a fresh append after recovery reads back.
        let mut wal = Wal::open(&dir, "t0", Durability::Interval).expect("reopen");
        wal.append(4, &batch(4, 4)).expect("append");
        let replay = Wal::recover(&dir, "t0").expect("recover");
        assert!(!replay.torn);
        assert_eq!(replay.frames.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_in_tail_frame_is_detected() {
        let dir = scratch("bitflip");
        let mut wal = Wal::open(&dir, "t0", Durability::Interval).expect("open");
        wal.append(0, &batch(0, 4)).expect("append");
        wal.append(4, &batch(4, 4)).expect("append");
        drop(wal);
        let path = Wal::path_for(&dir, "t0");
        let mut bytes = std::fs::read(&path).expect("read");
        let at = bytes.len() - 5;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        let replay = Wal::recover(&dir, "t0").expect("recover");
        assert!(replay.torn);
        assert_eq!(replay.frames.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retain_from_drops_only_frames_below_the_floor() {
        let dir = scratch("retain");
        let mut wal = Wal::open(&dir, "t0", Durability::Interval).expect("open");
        for k in 0..5u64 {
            wal.append(k * 4, &batch(k * 4, 4)).expect("append");
        }
        wal.retain_from(8).expect("retain");
        let replay = Wal::recover(&dir, "t0").expect("recover");
        assert_eq!(
            replay
                .frames
                .iter()
                .map(|f| f.first_step)
                .collect::<Vec<_>>(),
            vec![8, 12, 16]
        );
        // Appends continue cleanly on the reopened handle.
        wal.append(20, &batch(20, 4)).expect("append");
        let replay = Wal::recover(&dir, "t0").expect("recover");
        assert_eq!(replay.frames.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_failure_fires_once_per_armed_count() {
        let dir = scratch("failpoint");
        let mut wal = Wal::open(&dir, "t0", Durability::Interval).expect("open");
        arm_append_failure(1);
        assert!(matches!(
            wal.append(0, &batch(0, 4)),
            Err(WalError::Injected)
        ));
        assert!(wal.append(0, &batch(0, 4)).is_ok());
        disarm_append_failure();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_wals_lists_only_wal_files() {
        let dir = scratch("list");
        let _ = Wal::open(&dir, "t1", Durability::Interval).expect("open");
        let _ = Wal::open(&dir, "t0", Durability::Interval).expect("open");
        std::fs::write(dir.join("notes.txt"), b"x").expect("write");
        assert_eq!(shard_wals(&dir).expect("scan"), vec!["t0", "t1"]);
        assert_eq!(
            shard_wals(Path::new("/nonexistent-dir-xyz")).expect("scan"),
            Vec::<String>::new()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_shard_header_is_rejected() {
        let dir = scratch("mismatch");
        let _ = Wal::open(&dir, "t0", Durability::Interval).expect("open");
        let path = Wal::path_for(&dir, "t1");
        std::fs::copy(Wal::path_for(&dir, "t0"), &path).expect("copy");
        assert!(matches!(
            Wal::open(&dir, "t1", Durability::Interval),
            Err(WalError::BadHeader(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
