//! `archive_bench` — compression/fidelity sweep of the mode archive: fits
//! one model over a synthetic fleet trace, writes it at every quantization
//! tier, and reports archive size versus the raw snapshot matrix, write and
//! replay throughput, and reconstruction error per tier. A full replay is
//! split into its two layers: `decode_ms` reads, checks and decodes every
//! node block (`ArchiveReader::read_nodes`), and `reconstruct_ms` is the
//! rest of the replay, the Eq. 7 sum. Replay and decode times are medians
//! of `REPS` runs. Writes `BENCH_archive.json` and exits nonzero if
//!
//! * the q16 ratio falls below `ARCHIVE_BENCH_MIN_RATIO` (default 50),
//! * any lossy tier exceeds its advertised relative-error bound, or
//! * f64 replay is not bitwise-identical to the in-memory reconstruction.
//!
//! ```text
//! cargo run --release -p mrdmd-bench --bin archive_bench [-- --out BENCH_archive.json]
//! ```

use std::time::Instant;

use hpc_telemetry::{theta, MachineSpec, Scenario};
use imrdmd::archive::{write_archive, ArchiveError, ArchiveReader, QuantTier};
use imrdmd::{IMrDmd, IMrDmdConfig, MrDmdConfig, RankSelection};
use mrdmd_bench::median;

// A long timeline is the point: tree size scales with depth (capped), not
// with steps, so the mode archive's ratio grows linearly in the timeline —
// the property that makes TB-scale raw telemetry replayable from MBs.
const N_NODES: usize = 64;
const N_STEPS: usize = 65_536;
const SEED: u64 = 4242;
/// Timed runs per replay and decode figure; each figure is their median.
const REPS: usize = 3;

struct TierResult {
    tier: QuantTier,
    bytes: u64,
    ratio: f64,
    write_ms: f64,
    replay_ms: f64,
    decode_ms: f64,
    reconstruct_ms: f64,
    replay_mb_s: f64,
    rel_err: f64,
    bitwise: bool,
    range_blocks_read: u64,
    n_blocks: usize,
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_archive.json".to_string())
    };
    let min_ratio: f64 = std::env::var("ARCHIVE_BENCH_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0);

    // The same synthetic fleet trace the CLI's `synth` writes: one
    // temperature channel per node, seeded, with injected anomalies.
    let mut machine: MachineSpec = theta().scaled(N_NODES);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, N_STEPS, SEED);
    let data = scenario.generate(0, N_STEPS);
    let raw_bytes = (data.rows() * data.cols() * std::mem::size_of::<f64>()) as u64;

    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: 20.0,
            max_levels: 8,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let fit_start = Instant::now();
    let model = IMrDmd::fit(&data, &cfg);
    let fit_s = fit_start.elapsed().as_secs_f64();
    let exact = model.reconstruct();
    let norm = exact
        .as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(1e-300);

    let dir = std::env::temp_dir().join("imrdmd-archive-bench");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("archive_bench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }

    // A range around the middle of the timeline, sized to admit only part
    // of the tree — exercises the seekable index, not just full scans.
    let (r0, r1) = (N_STEPS / 2, N_STEPS / 2 + N_STEPS / 8);

    let mut results = Vec::new();
    for tier in [QuantTier::F64, QuantTier::F32, QuantTier::Q16] {
        let path = dir.join(format!("model.{tier}.arch"));
        let write_start = Instant::now();
        let info = match write_archive(&model, &path, tier) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("archive_bench: write at tier {tier} failed: {e}");
                std::process::exit(2);
            }
        };
        let write_ms = write_start.elapsed().as_secs_f64() * 1e3;

        let mut reader = match ArchiveReader::open(&path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("archive_bench: open at tier {tier} failed: {e}");
                std::process::exit(2);
            }
        };
        let fail = |what: &str, e: ArchiveError| -> ! {
            eprintln!("archive_bench: {what} at tier {tier} failed: {e}");
            std::process::exit(2);
        };
        let mut decode_ms = Vec::with_capacity(REPS);
        let mut replay_ms = Vec::with_capacity(REPS);
        let mut approx = None;
        for _ in 0..REPS {
            let start = Instant::now();
            if let Err(e) = reader.read_nodes(0, N_STEPS) {
                fail("decode", e);
            }
            decode_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            match reader.replay_all() {
                Ok(m) => approx = Some(m),
                Err(e) => fail("replay", e),
            }
            replay_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let Some(approx) = approx else {
            eprintln!("archive_bench: no replay ran");
            std::process::exit(2);
        };
        let (decode_ms, replay_ms) = (median(&mut decode_ms), median(&mut replay_ms));
        let full_blocks = reader.blocks_read();

        let rel_err = exact
            .as_slice()
            .iter()
            .zip(approx.as_slice())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
            / norm;
        let bitwise = exact
            .as_slice()
            .iter()
            .zip(approx.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());

        // Partial replay must stream strictly fewer blocks than a full one.
        let _ = reader.replay(r0, r1).expect("range replay");
        let range_blocks_read = reader.blocks_read() - full_blocks;

        results.push(TierResult {
            tier,
            bytes: info.bytes,
            ratio: raw_bytes as f64 / info.bytes as f64,
            write_ms,
            replay_ms,
            decode_ms,
            reconstruct_ms: (replay_ms - decode_ms).max(0.0),
            replay_mb_s: raw_bytes as f64 / 1e3 / replay_ms.max(1e-6),
            rel_err,
            bitwise,
            range_blocks_read,
            n_blocks: info.n_nodes,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    let f64_bitwise = results[0].bitwise;
    let bounds_ok = results
        .iter()
        .all(|r| r.rel_err <= r.tier.rel_error_bound().max(0.0) || r.tier == QuantTier::F64);
    let seeks_ok = results
        .iter()
        .all(|r| (r.range_blocks_read as usize) < r.n_blocks);
    let q16_ratio = results[2].ratio;
    let pass = f64_bitwise && bounds_ok && seeks_ok && q16_ratio >= min_ratio;

    let mut tiers_json = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            tiers_json.push_str(",\n");
        }
        tiers_json.push_str(&format!(
            "    {{\"tier\": \"{}\", \"bytes\": {}, \"ratio\": {:.1}, \
             \"write_ms\": {:.2}, \"replay_ms\": {:.2}, \"decode_ms\": {:.2}, \
             \"reconstruct_ms\": {:.2}, \"replay_mb_s\": {:.1}, \
             \"rel_err\": {:.3e}, \"bitwise\": {}, \"range_blocks_read\": {}, \
             \"n_blocks\": {}}}",
            r.tier,
            r.bytes,
            r.ratio,
            r.write_ms,
            r.replay_ms,
            r.decode_ms,
            r.reconstruct_ms,
            r.replay_mb_s,
            r.rel_err,
            r.bitwise,
            r.range_blocks_read,
            r.n_blocks
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"archive_bench\",\n  \"series\": {},\n  \"steps\": {},\n  \
         \"raw_bytes\": {raw_bytes},\n  \"fit_s\": {fit_s:.2},\n  \"tiers\": [\n{tiers_json}\n  ],\n  \
         \"q16_ratio\": {q16_ratio:.1},\n  \"min_ratio\": {min_ratio},\n  \"pass\": {pass}\n}}\n",
        data.rows(),
        data.cols()
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("archive_bench: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    for r in &results {
        println!(
            "tier={:<4} {:>10} bytes ({:.0}x vs raw), write {:.1} ms, replay {:.1} ms \
             (decode {:.1} + reconstruct {:.1}; {:.0} MB/s), rel err {:.1e}{}, \
             range read {}/{} blocks",
            r.tier.as_str(),
            r.bytes,
            r.ratio,
            r.write_ms,
            r.replay_ms,
            r.decode_ms,
            r.reconstruct_ms,
            r.replay_mb_s,
            r.rel_err,
            if r.bitwise { " (bitwise)" } else { "" },
            r.range_blocks_read,
            r.n_blocks
        );
    }
    println!(
        "q16 ratio {q16_ratio:.0}x (gate {min_ratio}x), f64 bitwise {f64_bitwise}, \
         bounds ok {bounds_ok}, seeks ok {seeks_ok}: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        std::process::exit(1);
    }
}
