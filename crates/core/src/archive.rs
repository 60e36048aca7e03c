//! Compressed on-disk mode archive with seekable time-range replay.
//!
//! The paper's headline storage claim is that the mode tree reduces
//! telemetry "from terabytes to megabytes". [`crate::compression`] only
//! *accounts* for that; this module produces the artefact: a fitted
//! [`IMrDmd`] tree serialised as one CRC-framed block per tree node, with
//! the bulky mode matrices quantized and delta-encoded per
//! [`QuantTier`], plus a seekable index — so any time range can be
//! reconstructed by streaming only the blocks whose windows overlap it,
//! never deserialising the whole archive.
//!
//! On-disk layout (framing primitives from [`crate::storage`]):
//!
//! ```text
//! IMRDMD-ARCH v1 <tier>\n                      text header
//! [len][crc][meta]                             tier, node count, shape, dt
//! [len][crc][node 0] ... [len][crc][node N-1]  one block per tree node
//! [len][crc][index]                            N × (start, window, offset, len, level)
//! [u64 index-offset][u32 crc][IMRDMDIX]        20-byte fixed trailer
//! ```
//!
//! Every node block stores its eigenvalues and amplitudes as exact `f64`
//! bit patterns at every tier — quantizing ω would compound through
//! `exp(ω t)` — and only the `rows × k` mode matrix is tiered:
//!
//! * `f64` — XOR-delta of the raw 64-bit patterns (lossless; replay is
//!   **bitwise-identical** to the in-memory model's reconstruction);
//! * `f32` — XOR-delta of 32-bit patterns after an `f32` round
//!   (relative reconstruction error ≤ 1e-5);
//! * `q16` — per-mode-column scaled 16-bit integers with wrapping-delta
//!   encoding (relative reconstruction error ≤ 1e-2), the tier that
//!   realises the ≥100× paper ratio.
//!
//! Replay filters index entries by the node-admission rule that
//! reconstruction itself uses (`start < t1 && start + window > t0`) and
//! feeds the decoded nodes to the same reconstruction kernel **in file
//! order** (= tree iteration order). Nodes outside the range contribute
//! exactly nothing to a reconstruction, so skipping their blocks leaves
//! the floating-point addition order of the admitted nodes unchanged —
//! which is what makes f64-tier replay of any range bitwise-identical to
//! [`IMrDmd::reconstruct_range`] on the live model.

use crate::imrdmd::IMrDmd;
use crate::mrdmd::{reconstruct_nodes, ModeSet};
use crate::storage::{self, u32_at, u64_at, BlockError, HeaderError};
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::{c64, CMat, Mat};
use std::io::{Read as _, Seek as _};
use std::path::Path;

/// First token of every archive file.
pub const ARCHIVE_MAGIC: &str = "IMRDMD-ARCH";
/// Current on-disk format version.
pub const ARCHIVE_VERSION: u32 = 1;
/// Fixed trailer: `u64 index-offset + u32 crc32(offset) + 8-byte magic`.
const TRAILER_LEN: usize = 20;
/// Trailer magic, so `open` can reject non-archives before seeking.
const TRAILER_MAGIC: &[u8; 8] = b"IMRDMDIX";
/// Fixed node-payload prefix: level/start/window/step/row_offset (`u64`
/// each) + rows/k (`u32` each).
const NODE_PREFIX: usize = 5 * 8 + 2 * 4;
/// q16 quantization ceiling (symmetric, so the delta domain wraps cleanly).
const Q16_MAX: f64 = 32767.0;

// ---------------------------------------------------------------------------
// Quantization tiers
// ---------------------------------------------------------------------------

/// How aggressively an archive quantizes the mode matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum QuantTier {
    /// Exact 64-bit patterns: lossless, replay is bitwise.
    F64,
    /// 32-bit float round: relative error ≤ 1e-5.
    F32,
    /// Per-column scaled 16-bit integers: relative error ≤ 1e-2.
    Q16,
}

impl QuantTier {
    /// Parses the `--tier` flag grammar: `f64`, `f32`, `q16`.
    pub fn parse(s: &str) -> Option<QuantTier> {
        match s {
            "f64" => Some(QuantTier::F64),
            "f32" => Some(QuantTier::F32),
            "q16" => Some(QuantTier::Q16),
            _ => None,
        }
    }

    /// The flag token this tier parses from.
    pub fn as_str(self) -> &'static str {
        match self {
            QuantTier::F64 => "f64",
            QuantTier::F32 => "f32",
            QuantTier::Q16 => "q16",
        }
    }

    /// Documented relative L∞ reconstruction-error bound of this tier's
    /// replay against f64-tier replay (0 = bitwise).
    pub fn rel_error_bound(self) -> f64 {
        match self {
            QuantTier::F64 => 0.0,
            QuantTier::F32 => 1e-5,
            QuantTier::Q16 => 1e-2,
        }
    }

    fn code(self) -> u32 {
        match self {
            QuantTier::F64 => 0,
            QuantTier::F32 => 1,
            QuantTier::Q16 => 2,
        }
    }

    fn from_code(code: u32) -> Option<QuantTier> {
        match code {
            0 => Some(QuantTier::F64),
            1 => Some(QuantTier::F32),
            2 => Some(QuantTier::Q16),
            _ => None,
        }
    }

    /// Bytes the mode matrix of a `rows × k` node occupies at this tier.
    fn modes_bytes(self, rows: usize, k: usize) -> usize {
        match self {
            QuantTier::F64 => rows * k * 16,
            QuantTier::F32 => rows * k * 8,
            // Per-column f64 scale + 2 × i16 per element.
            QuantTier::Q16 => k * 8 + rows * k * 4,
        }
    }
}

impl std::fmt::Display for QuantTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why an archive could not be written, opened, or replayed.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file's header line or trailer is not a valid archive envelope.
    BadHeader(String),
    /// A framed block is torn, truncated, or checksum-damaged.
    Block(BlockError),
    /// A block passed its CRC but its payload does not decode.
    Codec(String),
    /// The requested replay range is outside the archived timeline.
    BadRange {
        /// Requested range start (snapshot index).
        t0: usize,
        /// Requested range end (exclusive).
        t1: usize,
        /// Snapshots the archive covers.
        n_steps: usize,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive io error: {e}"),
            ArchiveError::BadHeader(m) => write!(f, "bad archive header: {m}"),
            ArchiveError::Block(e) => write!(f, "damaged archive block: {e}"),
            ArchiveError::Codec(m) => write!(f, "archive block decode failed: {m}"),
            ArchiveError::BadRange { t0, t1, n_steps } => {
                write!(
                    f,
                    "replay range [{t0}, {t1}) outside archived timeline of {n_steps} steps"
                )
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<BlockError> for ArchiveError {
    fn from(e: BlockError) -> Self {
        ArchiveError::Block(e)
    }
}

// ---------------------------------------------------------------------------
// Node codec
// ---------------------------------------------------------------------------

fn push_c64_exact(out: &mut Vec<u8>, vs: &[c64]) {
    for v in vs {
        out.extend_from_slice(&v.re.to_bits().to_le_bytes());
        out.extend_from_slice(&v.im.to_bits().to_le_bytes());
    }
}

/// Quantizes `v` onto the symmetric 16-bit grid for `scale`.
fn q16_quant(v: f64, scale: f64) -> i16 {
    if scale == 0.0 {
        return 0;
    }
    // The scale is derived from the column max, so the clamp only guards
    // rounding at the extremes.
    (v / scale).round().clamp(-Q16_MAX, Q16_MAX) as i16
}

fn encode_modes(out: &mut Vec<u8>, modes: &CMat, tier: QuantTier) {
    let (rows, k) = (modes.rows(), modes.cols());
    match tier {
        QuantTier::F64 => {
            // Column-major XOR-delta of the raw bit patterns: adjacent
            // rows of one mode are spatially smooth, so deltas share
            // leading bytes (and compress further under any outer
            // compressor) while staying exactly invertible.
            for j in 0..k {
                let (mut prev_re, mut prev_im) = (0u64, 0u64);
                for i in 0..rows {
                    let v = modes[(i, j)];
                    let (re, im) = (v.re.to_bits(), v.im.to_bits());
                    out.extend_from_slice(&(re ^ prev_re).to_le_bytes());
                    out.extend_from_slice(&(im ^ prev_im).to_le_bytes());
                    prev_re = re;
                    prev_im = im;
                }
            }
        }
        QuantTier::F32 => {
            for j in 0..k {
                let (mut prev_re, mut prev_im) = (0u32, 0u32);
                for i in 0..rows {
                    let v = modes[(i, j)];
                    let (re, im) = ((v.re as f32).to_bits(), (v.im as f32).to_bits());
                    out.extend_from_slice(&(re ^ prev_re).to_le_bytes());
                    out.extend_from_slice(&(im ^ prev_im).to_le_bytes());
                    prev_re = re;
                    prev_im = im;
                }
            }
        }
        QuantTier::Q16 => {
            for j in 0..k {
                let mut max_abs = 0.0f64;
                for i in 0..rows {
                    let v = modes[(i, j)];
                    max_abs = max_abs.max(v.re.abs()).max(v.im.abs());
                }
                let scale = if max_abs == 0.0 {
                    0.0
                } else {
                    max_abs / Q16_MAX
                };
                out.extend_from_slice(&scale.to_bits().to_le_bytes());
                let (mut prev_re, mut prev_im) = (0i16, 0i16);
                for i in 0..rows {
                    let v = modes[(i, j)];
                    let (re, im) = (q16_quant(v.re, scale), q16_quant(v.im, scale));
                    // Wrapping deltas are lossless in the u16 ring, so the
                    // quantized grid round-trips exactly.
                    let dre = (re as u16).wrapping_sub(prev_re as u16);
                    let dim = (im as u16).wrapping_sub(prev_im as u16);
                    out.extend_from_slice(&dre.to_le_bytes());
                    out.extend_from_slice(&dim.to_le_bytes());
                    prev_re = re;
                    prev_im = im;
                }
            }
        }
    }
}

fn encode_node(node: &ModeSet, tier: QuantTier) -> Vec<u8> {
    let (rows, k) = (node.modes.rows(), node.modes.cols());
    let mut out = Vec::with_capacity(NODE_PREFIX + 3 * k * 16 + tier.modes_bytes(rows, k));
    for v in [
        node.level as u64,
        node.start as u64,
        node.window as u64,
        node.step as u64,
        node.row_offset as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    // Eigenvalues and amplitudes stay exact at every tier: replay scales
    // them through exp(ω t), which would amplify any quantization error
    // across the window.
    push_c64_exact(&mut out, &node.lambdas);
    push_c64_exact(&mut out, &node.omegas);
    push_c64_exact(&mut out, &node.amplitudes);
    encode_modes(&mut out, &node.modes, tier);
    out
}

fn c64_vec_at(payload: &[u8], at: usize, k: usize) -> Option<Vec<c64>> {
    let mut vs = Vec::with_capacity(k);
    for n in 0..k {
        let re = f64::from_bits(u64_at(payload, at + 16 * n)?);
        let im = f64::from_bits(u64_at(payload, at + 16 * n + 8)?);
        vs.push(c64::new(re, im));
    }
    Some(vs)
}

fn u16_at(bytes: &[u8], at: usize) -> Option<u16> {
    bytes
        .get(at..at + 2)
        .and_then(|b| b.try_into().ok())
        .map(u16::from_le_bytes)
}

fn decode_modes(payload: &[u8], at: usize, rows: usize, k: usize, tier: QuantTier) -> Option<CMat> {
    let mut cells = vec![c64::new(0.0, 0.0); rows * k];
    let mut at = at;
    match tier {
        QuantTier::F64 => {
            for j in 0..k {
                let (mut re, mut im) = (0u64, 0u64);
                for i in 0..rows {
                    re ^= u64_at(payload, at)?;
                    im ^= u64_at(payload, at + 8)?;
                    at += 16;
                    cells[i * k + j] = c64::new(f64::from_bits(re), f64::from_bits(im));
                }
            }
        }
        QuantTier::F32 => {
            for j in 0..k {
                let (mut re, mut im) = (0u32, 0u32);
                for i in 0..rows {
                    re ^= u32_at(payload, at)?;
                    im ^= u32_at(payload, at + 4)?;
                    at += 8;
                    cells[i * k + j] =
                        c64::new(f32::from_bits(re) as f64, f32::from_bits(im) as f64);
                }
            }
        }
        QuantTier::Q16 => {
            for j in 0..k {
                let scale = f64::from_bits(u64_at(payload, at)?);
                at += 8;
                let (mut re, mut im) = (0u16, 0u16);
                for i in 0..rows {
                    re = re.wrapping_add(u16_at(payload, at)?);
                    im = im.wrapping_add(u16_at(payload, at + 2)?);
                    at += 4;
                    cells[i * k + j] =
                        c64::new((re as i16) as f64 * scale, (im as i16) as f64 * scale);
                }
            }
        }
    }
    Some(CMat::from_fn(rows, k, |i, j| cells[i * k + j]))
}

fn decode_node(payload: &[u8], tier: QuantTier) -> Result<ModeSet, ArchiveError> {
    let truncated = || ArchiveError::Codec("truncated node block".into());
    let level = u64_at(payload, 0).ok_or_else(truncated)? as usize;
    let start = u64_at(payload, 8).ok_or_else(truncated)? as usize;
    let window = u64_at(payload, 16).ok_or_else(truncated)? as usize;
    let step = u64_at(payload, 24).ok_or_else(truncated)? as usize;
    let row_offset = u64_at(payload, 32).ok_or_else(truncated)? as usize;
    let rows = u32_at(payload, 40).ok_or_else(truncated)? as usize;
    let k = u32_at(payload, 44).ok_or_else(truncated)? as usize;
    let expected = k
        .checked_mul(48)
        .and_then(|e| e.checked_add(tier.modes_bytes(rows, k)))
        .and_then(|e| e.checked_add(NODE_PREFIX))
        .ok_or_else(|| ArchiveError::Codec("node block shape overflows".into()))?;
    if payload.len() != expected {
        return Err(ArchiveError::Codec(format!(
            "node block is {} bytes, shape {rows}×{k} at tier {} needs {expected}",
            payload.len(),
            tier.as_str()
        )));
    }
    let lambdas = c64_vec_at(payload, NODE_PREFIX, k).ok_or_else(truncated)?;
    let omegas = c64_vec_at(payload, NODE_PREFIX + 16 * k, k).ok_or_else(truncated)?;
    let amplitudes = c64_vec_at(payload, NODE_PREFIX + 32 * k, k).ok_or_else(truncated)?;
    let modes = decode_modes(payload, NODE_PREFIX + 48 * k, rows, k, tier).ok_or_else(truncated)?;
    Ok(ModeSet {
        level,
        start,
        window,
        step,
        row_offset,
        modes,
        lambdas,
        omegas,
        amplitudes,
    })
}

/// Checks a decoded node against what the file says about it: its window
/// and level must be its index entry's (which [`ArchiveReader::open`]
/// bounded by the timeline), its rows must lie within the archive's
/// `n_rows`, and its decimation step must be nonzero. A block that passes
/// its CRC but fails here was written wrong or on purpose, and replaying
/// it would read or write outside the output.
fn check_node(node: &ModeSet, entry: &IndexEntry, n_rows: usize) -> Result<(), ArchiveError> {
    let what = if (node.start as u64, node.window as u64) != (entry.start, entry.window) {
        format!(
            "window [{}, +{}) differs from its index entry [{}, +{})",
            node.start, node.window, entry.start, entry.window
        )
    } else if node.level as u64 != entry.level as u64 {
        format!(
            "level {} differs from its index entry's {}",
            node.level, entry.level
        )
    } else if node
        .row_offset
        .checked_add(node.modes.rows())
        .is_none_or(|end| end > n_rows)
    {
        format!(
            "rows {}+{} exceed the archive's {n_rows}",
            node.row_offset,
            node.modes.rows()
        )
    } else if node.step == 0 {
        "decimation step is 0".into()
    } else {
        return Ok(());
    };
    Err(ArchiveError::Codec(format!(
        "node block at offset {}: {what}",
        entry.offset
    )))
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Shape and size summary of an archive (returned by writes, carried by
/// [`ArchiveReader`]).
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct ArchiveInfo {
    /// The quantization tier the mode matrices were stored at.
    pub tier: QuantTier,
    /// Tree nodes (= node blocks) in the archive.
    pub n_nodes: usize,
    /// Sensor rows the archived model covers.
    pub n_rows: usize,
    /// Snapshots the archived model covers.
    pub n_steps: usize,
    /// Snapshot spacing in seconds.
    pub dt: f64,
    /// Total archive size in bytes.
    pub bytes: u64,
}

/// Serialises a fitted model into the archive byte image. Infallible in
/// memory; pair with [`write_archive`] for the durable on-disk form.
pub fn archive_bytes(model: &IMrDmd, tier: QuantTier) -> (Vec<u8>, ArchiveInfo) {
    let dt = model.config().mr.dt;
    let mut out =
        storage::format_text_header(ARCHIVE_MAGIC, ARCHIVE_VERSION, &[tier.as_str()]).into_bytes();
    let nodes: Vec<&ModeSet> = model.nodes().collect();
    let mut meta = Vec::with_capacity(32);
    meta.extend_from_slice(&tier.code().to_le_bytes());
    meta.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    meta.extend_from_slice(&(model.n_rows() as u64).to_le_bytes());
    meta.extend_from_slice(&(model.n_steps() as u64).to_le_bytes());
    meta.extend_from_slice(&dt.to_bits().to_le_bytes());
    storage::append_frame(&mut out, &meta);
    // Blocks are written in tree-iteration order; replay preserves file
    // order, which is what keeps f64 replay bitwise.
    let mut entries = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let payload = encode_node(node, tier);
        let offset = out.len() as u64;
        entries.push((
            node.start as u64,
            node.window as u64,
            offset,
            payload.len() as u32,
            node.level as u32,
        ));
        storage::append_frame(&mut out, &payload);
    }
    let mut index = Vec::with_capacity(4 + 32 * entries.len());
    index.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (start, window, offset, len, level) in &entries {
        index.extend_from_slice(&start.to_le_bytes());
        index.extend_from_slice(&window.to_le_bytes());
        index.extend_from_slice(&offset.to_le_bytes());
        index.extend_from_slice(&len.to_le_bytes());
        index.extend_from_slice(&level.to_le_bytes());
    }
    let index_offset = out.len() as u64;
    storage::append_frame(&mut out, &index);
    let offset_bytes = index_offset.to_le_bytes();
    out.extend_from_slice(&offset_bytes);
    out.extend_from_slice(&storage::crc32(&offset_bytes).to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
    let info = ArchiveInfo {
        tier,
        n_nodes: nodes.len(),
        n_rows: model.n_rows(),
        n_steps: model.n_steps(),
        dt,
        bytes: out.len() as u64,
    };
    // Recorded here rather than in `write_archive` so served archives
    // (encoded straight onto the wire, never touching disk) count too.
    crate::obs::ARCHIVE_SAVES.inc();
    crate::obs::ARCHIVE_BYTES.add(info.bytes);
    (out, info)
}

/// Writes `model` as an archive at `path` — atomically (temp sibling +
/// rename + fsync), like every other persistent artefact.
pub fn write_archive(
    model: &IMrDmd,
    path: &Path,
    tier: QuantTier,
) -> Result<ArchiveInfo, ArchiveError> {
    let _span = crate::obs::ARCHIVE_NS.span();
    let (bytes, info) = archive_bytes(model, tier);
    storage::atomic_write(path, &bytes, true)?;
    Ok(info)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// One index entry: where a node block lives and what time window it
/// covers.
#[derive(Clone, Copy, Debug)]
pub struct IndexEntry {
    /// Absolute snapshot index the node's window starts at.
    pub start: u64,
    /// Window length in snapshots.
    pub window: u64,
    /// Absolute byte offset of the node's frame head.
    pub offset: u64,
    /// Node payload length in bytes.
    pub len: u32,
    /// Tree level of the node.
    pub level: u32,
}

impl IndexEntry {
    /// The node-admission rule reconstruction uses: does this node's
    /// window overlap `[t0, t1)`? A window whose end overflows admits
    /// nothing ([`ArchiveReader::open`] rejects such entries).
    pub fn admits(&self, t0: usize, t1: usize) -> bool {
        self.start < t1 as u64 && self.end().is_some_and(|end| end > t0 as u64)
    }

    /// One past the last snapshot of the node's window, or `None` when
    /// `start + window` overflows.
    pub fn end(&self) -> Option<u64> {
        self.start.checked_add(self.window)
    }
}

/// An open archive: header, metadata, and index are resident; node
/// blocks are streamed from disk per replay.
#[derive(Debug)]
pub struct ArchiveReader {
    file: std::fs::File,
    info: ArchiveInfo,
    index: Vec<IndexEntry>,
    blocks_read: u64,
}

impl ArchiveReader {
    /// Opens an archive: validates the header line and trailer, then
    /// loads the index and metadata blocks (but no node blocks).
    pub fn open(path: &Path) -> Result<ArchiveReader, ArchiveError> {
        let mut file = std::fs::File::open(path)?;
        let total = file.metadata()?.len();
        // Header line.
        let mut head = [0u8; 64];
        let n = file.read(&mut head)?;
        let header_cap = 2 + ARCHIVE_MAGIC.len() + 8 + 8;
        let line_end = head[..n.min(header_cap)]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| ArchiveError::BadHeader("no header line".into()))?;
        let line = std::str::from_utf8(&head[..line_end])
            .map_err(|_| ArchiveError::BadHeader("header not valid UTF-8".into()))?;
        storage::parse_text_header(line, ARCHIVE_MAGIC, ARCHIVE_VERSION).map_err(|e| match e {
            HeaderError::BadMagic => {
                ArchiveError::BadHeader(format!("missing `{ARCHIVE_MAGIC}` magic"))
            }
            HeaderError::NoVersion => ArchiveError::BadHeader("missing version token".into()),
            HeaderError::Unsupported(v) => ArchiveError::BadHeader(format!(
                "archive format v{v} is newer than supported v{ARCHIVE_VERSION}"
            )),
        })?;
        let header_end = (line_end + 1) as u64;
        // Trailer → index offset.
        if total < header_end + TRAILER_LEN as u64 {
            return Err(ArchiveError::BadHeader("file too short for trailer".into()));
        }
        let mut trailer = [0u8; TRAILER_LEN];
        file.seek(std::io::SeekFrom::Start(total - TRAILER_LEN as u64))?;
        file.read_exact(&mut trailer)?;
        if &trailer[12..20] != TRAILER_MAGIC {
            return Err(ArchiveError::BadHeader("missing trailer magic".into()));
        }
        let offset_bytes = &trailer[..8];
        let trailer_crc =
            u32_at(&trailer, 8).ok_or_else(|| ArchiveError::BadHeader("short trailer".into()))?;
        if storage::crc32(offset_bytes) != trailer_crc {
            return Err(ArchiveError::BadHeader("trailer checksum mismatch".into()));
        }
        let index_offset =
            u64_at(&trailer, 0).ok_or_else(|| ArchiveError::BadHeader("short trailer".into()))?;
        if index_offset < header_end || index_offset >= total {
            return Err(ArchiveError::BadHeader(
                "trailer points outside the file".into(),
            ));
        }
        // Metadata block (always the first block, right after the header).
        let meta = storage::read_block_at(&mut file, header_end)?;
        let bad_meta = || ArchiveError::Codec("truncated metadata block".into());
        let tier_code = u32_at(&meta, 0).ok_or_else(bad_meta)?;
        let tier = QuantTier::from_code(tier_code)
            .ok_or_else(|| ArchiveError::Codec(format!("unknown quantization tier {tier_code}")))?;
        let n_nodes = u32_at(&meta, 4).ok_or_else(bad_meta)? as usize;
        let n_rows = u64_at(&meta, 8).ok_or_else(bad_meta)? as usize;
        let n_steps = u64_at(&meta, 16).ok_or_else(bad_meta)? as usize;
        let dt = f64::from_bits(u64_at(&meta, 24).ok_or_else(bad_meta)?);
        // Index block.
        let raw = storage::read_block_at(&mut file, index_offset)?;
        let bad_index = || ArchiveError::Codec("truncated index block".into());
        let count = u32_at(&raw, 0).ok_or_else(bad_index)? as usize;
        if count != n_nodes || raw.len() != 4 + 32 * count {
            return Err(ArchiveError::Codec(format!(
                "index lists {count} blocks, metadata promises {n_nodes}"
            )));
        }
        let mut index = Vec::with_capacity(count);
        for e in 0..count {
            let at = 4 + 32 * e;
            let entry = IndexEntry {
                start: u64_at(&raw, at).ok_or_else(bad_index)?,
                window: u64_at(&raw, at + 8).ok_or_else(bad_index)?,
                offset: u64_at(&raw, at + 16).ok_or_else(bad_index)?,
                len: u32_at(&raw, at + 24).ok_or_else(bad_index)?,
                level: u32_at(&raw, at + 28).ok_or_else(bad_index)?,
            };
            if entry.end().is_none_or(|end| end > n_steps as u64) {
                return Err(ArchiveError::Codec(format!(
                    "index entry {e} (start {}, window {}) ends past the {n_steps} archived steps",
                    entry.start, entry.window
                )));
            }
            index.push(entry);
        }
        Ok(ArchiveReader {
            file,
            info: ArchiveInfo {
                tier,
                n_nodes,
                n_rows,
                n_steps,
                dt,
                bytes: total,
            },
            index,
            blocks_read: 0,
        })
    }

    /// Shape and tier metadata of the open archive.
    pub fn info(&self) -> &ArchiveInfo {
        &self.info
    }

    /// The seekable block index, in file (= tree-iteration) order.
    pub fn index(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Node blocks streamed from disk by replays on this reader so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Reads and decodes the node blocks whose windows overlap `[t0, t1)`,
    /// in file order, each checked against its index entry and the
    /// archive's shape. These are the nodes [`replay`](Self::replay)
    /// reconstructs from.
    pub fn read_nodes(&mut self, t0: usize, t1: usize) -> Result<Vec<ModeSet>, ArchiveError> {
        if t0 > t1 || t1 > self.info.n_steps {
            return Err(ArchiveError::BadRange {
                t0,
                t1,
                n_steps: self.info.n_steps,
            });
        }
        let mut nodes = Vec::new();
        for entry in self.index.iter().filter(|e| e.admits(t0, t1)) {
            let payload = storage::read_block_at(&mut self.file, entry.offset)?;
            let node = decode_node(&payload, self.info.tier)?;
            check_node(&node, entry, self.info.n_rows)?;
            nodes.push(node);
            self.blocks_read += 1;
            crate::obs::ARCHIVE_BLOCKS_READ.inc();
        }
        Ok(nodes)
    }

    /// Reconstructs snapshots `[t0, t1)` by streaming only the node
    /// blocks whose windows overlap the range. At the f64 tier the result
    /// is bitwise-identical to [`IMrDmd::reconstruct_range`] on the model
    /// that was archived; at lossy tiers it is within
    /// [`QuantTier::rel_error_bound`] of the f64 replay.
    pub fn replay(&mut self, t0: usize, t1: usize) -> Result<Mat, ArchiveError> {
        let _span = crate::obs::ARCHIVE_NS.span();
        let nodes = self.read_nodes(t0, t1)?;
        let refs: Vec<&ModeSet> = nodes.iter().collect();
        crate::obs::ARCHIVE_REPLAYS.inc();
        Ok(reconstruct_nodes(
            &refs,
            self.info.n_rows,
            t0,
            t1,
            self.info.dt,
            &WorkerPool::new(0),
        ))
    }

    /// Replays the whole archived timeline.
    pub fn replay_all(&mut self) -> Result<Mat, ArchiveError> {
        self.replay(0, self.info.n_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imrdmd::{IMrDmd, IMrDmdConfig};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("imrdmd-archive-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn fitted(p: usize, t: usize) -> IMrDmd {
        let data = Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64;
            (0.01 * tt + 2.0 * x).sin() + 0.3 * (0.08 * tt + 5.0 * x).cos()
        });
        IMrDmd::fit(&data, &IMrDmdConfig::default())
    }

    #[test]
    fn f64_tier_replay_is_bitwise() {
        let dir = scratch("bitwise");
        let model = fitted(24, 512);
        let path = dir.join("model.arch");
        let info = write_archive(&model, &path, QuantTier::F64).expect("write");
        assert_eq!(info.n_steps, 512);
        let mut reader = ArchiveReader::open(&path).expect("open");
        let full = reader.replay_all().expect("replay");
        assert_eq!(full.as_slice(), model.reconstruct().as_slice());
        let range = reader.replay(100, 300).expect("replay");
        assert_eq!(
            range.as_slice(),
            model.reconstruct_range(100, 300).as_slice(),
            "range replay must be bitwise at the f64 tier"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_replay_streams_only_admitting_blocks() {
        let dir = scratch("seek");
        let model = fitted(16, 1024);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::F64).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open");
        let n_nodes = reader.info().n_nodes;
        reader.replay(0, 32).expect("replay");
        assert!(
            (reader.blocks_read() as usize) < n_nodes,
            "narrow range must not stream all {n_nodes} blocks"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_tiers_stay_within_their_bounds() {
        let dir = scratch("lossy");
        let model = fitted(24, 512);
        let exact = model.reconstruct();
        let norm = exact
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        for tier in [QuantTier::F32, QuantTier::Q16] {
            let path = dir.join(format!("model.{tier}.arch"));
            write_archive(&model, &path, tier).expect("write");
            let mut reader = ArchiveReader::open(&path).expect("open");
            let approx = reader.replay_all().expect("replay");
            let err = exact
                .as_slice()
                .iter()
                .zip(approx.as_slice())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
                / norm;
            assert!(
                err <= tier.rel_error_bound(),
                "tier {tier}: rel error {err:e} exceeds bound {:e}",
                tier.rel_error_bound()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_bitflipped_blocks_are_typed_errors() {
        let dir = scratch("damage");
        let model = fitted(16, 256);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::Q16).expect("write");
        let bytes = std::fs::read(&path).expect("read");

        // Bit-flip inside the first node block's payload.
        let reader = ArchiveReader::open(&path).expect("open");
        let at = reader.index()[0].offset as usize + storage::FRAME_HEAD + 10;
        drop(reader);
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x04;
        std::fs::write(&path, &flipped).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open survives: index intact");
        assert!(matches!(
            reader.replay_all(),
            Err(ArchiveError::Block(BlockError::Checksum { .. }))
        ));

        // Truncate mid-file: the trailer is gone, open must fail cleanly.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ArchiveError::BadHeader(_) | ArchiveError::Block(_))
        ));

        // Not an archive at all.
        std::fs::write(&path, b"IMRDMD-CKPT v1 2 abcd1234\n{}").expect("write");
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ArchiveError::BadHeader(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An index entry whose window overflows or ends past the timeline is
    /// a typed error at open, even when its block checksum is intact.
    #[test]
    fn index_windows_past_the_timeline_are_typed_errors() {
        let dir = scratch("index");
        let model = fitted(8, 128);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::F64).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        let trailer = bytes.len() - TRAILER_LEN;
        let index_at = u64_at(&bytes, trailer).expect("index offset") as usize;
        let payload = index_at + storage::FRAME_HEAD;
        let start = u64_at(&bytes, payload + 4).expect("start");
        for window in [u64::MAX, model.n_steps() as u64 - start + 1] {
            let mut bad = bytes.clone();
            bad[payload + 12..payload + 20].copy_from_slice(&window.to_le_bytes());
            let len = u32_at(&bad, index_at).expect("len") as usize;
            let crc = storage::crc32(&bad[payload..payload + len]);
            bad[index_at + 4..index_at + 8].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &bad).expect("write");
            assert!(
                matches!(ArchiveReader::open(&path), Err(ArchiveError::Codec(_))),
                "window {window}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A node block that passes its CRC but disagrees with its index entry
    /// or with the archive's shape is a typed error on replay, not a panic
    /// or a silently wrong reconstruction.
    #[test]
    fn node_blocks_disagreeing_with_the_file_are_typed_errors() {
        let dir = scratch("node-meaning");
        let model = fitted(8, 128);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::F64).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        let entry = ArchiveReader::open(&path).expect("open").index()[0];
        let head = entry.offset as usize;
        let payload = head + storage::FRAME_HEAD;
        // (field offset in the payload, new value): level, start, window,
        // step, row_offset.
        for (field, value) in [
            (0, entry.level as u64 + 1),
            (8, u64::MAX - 1),
            (8, entry.start + 1),
            (16, entry.window + 1),
            (24, 0),
            (32, 1),
            (32, u64::MAX),
        ] {
            let mut bad = bytes.clone();
            bad[payload + field..payload + field + 8].copy_from_slice(&value.to_le_bytes());
            let crc = storage::crc32(&bad[payload..payload + entry.len as usize]);
            bad[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &bad).expect("write");
            let mut reader = ArchiveReader::open(&path).expect("open: index intact");
            assert!(
                matches!(reader.replay_all(), Err(ArchiveError::Codec(_))),
                "field {field} = {value}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_range_is_rejected() {
        let dir = scratch("range");
        let model = fitted(8, 128);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::F64).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open");
        assert!(matches!(
            reader.replay(0, 129),
            Err(ArchiveError::BadRange { .. })
        ));
        assert!(matches!(
            reader.replay(64, 32),
            Err(ArchiveError::BadRange { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn q16_is_much_smaller_than_the_checkpoint_form() {
        let model = fitted(48, 2048);
        let (f64_bytes, _) = archive_bytes(&model, QuantTier::F64);
        let (q16_bytes, _) = archive_bytes(&model, QuantTier::Q16);
        assert!(
            (q16_bytes.len() as f64) < 0.4 * f64_bytes.len() as f64,
            "q16 {} vs f64 {}",
            q16_bytes.len(),
            f64_bytes.len()
        );
    }
}
