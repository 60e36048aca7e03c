//! Round goldens: every streaming round of a fixed set of corpora is
//! checked bit for bit against `tests/fixtures/round_goldens.txt`.
//!
//! Each fixture line is the FNV-1a-64 digest of one tree's `serde_json`
//! state after one round (round 0 is the initial fit), so any change to
//! the Algorithm-1 arithmetic, however small, moves a digest. The corpora
//! cover exact and sketched roots, guarded NaN/Inf repair, one-column
//! rounds below the root step, empty batches, a fault-injected fleet,
//! rejected batches, and the chunkings of the streaming fault suite.
//!
//! The worker-thread knob (`MrDmdConfig::n_threads`) is normalised out of
//! the digest, so the same fixture also pins thread-count invariance.
//!
//! Regenerate the fixture (only for an intended numerical change) with
//! `cargo test --release --test round_goldens -- --ignored`.

use mrdmd_suite::prelude::*;
use std::collections::BTreeMap;

const FIXTURE: &str = "tests/fixtures/round_goldens.txt";
const TAU: f64 = std::f64::consts::TAU;

/// One tree's stream: the fit it starts from, the ingest guard its rounds
/// run through (`None` is the unguarded `partial_fit`), one batch a round.
struct Stream {
    cfg: IMrDmdConfig,
    fit: Mat,
    guard: Option<IngestGuard>,
    batches: Vec<Mat>,
}

struct Corpus {
    name: &'static str,
    streams: Vec<Stream>,
}

/// What a corpus run produced: one fixture line per tree and round, plus
/// tallies that show the corpus exercised the paths it exists to cover.
#[derive(Default)]
struct Run {
    lines: Vec<String>,
    /// Non-empty rounds that added no decimated root column.
    sub_step_rounds: usize,
    /// Empty-batch rounds.
    empty_rounds: usize,
    /// Cells the ingest guards repaired.
    repaired: usize,
    /// Rounds that returned an error.
    errors: usize,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the tree's serialized state with the thread knob normalised.
fn digest(tree: &mut IMrDmd) -> u64 {
    let threads = tree.config().mr.n_threads;
    tree.set_n_threads(0);
    let json = serde_json::to_string(tree).expect("serialize tree");
    tree.set_n_threads(threads);
    fnv1a64(json.as_bytes())
}

fn line(corpus: &str, tree: usize, round: usize, ok: bool, digest: u64) -> String {
    let outcome = if ok { "ok" } else { "err" };
    format!("{corpus} {tree} {round} {outcome} {digest:016x}")
}

// ---------------------------------------------------------------------------
// Corpora.
// ---------------------------------------------------------------------------

/// A slow and a fast oscillation, phase-shifted per sensor and per seed.
fn fleet_signal(p: usize, t: usize, seed: usize) -> Mat {
    Mat::from_fn(p, t, |i, j| {
        let tt = j as f64 * 0.4;
        (0.05 * tt + seed as f64).sin() * ((i + seed) as f64 * 0.3).cos()
            + 0.1 * (1.1 * tt + i as f64 * 0.7).sin()
    })
}

fn fleet_cfg(max_levels: usize, min_window: usize) -> IMrDmdConfig {
    IMrDmdConfig::builder()
        .mr(MrDmdConfig::builder()
            .max_levels(max_levels)
            .min_window(min_window)
            .build()
            .expect("valid mr config"))
        .drift_threshold(1e6)
        .build()
        .expect("valid config")
}

/// A heterogeneous fleet streamed for four rounds of mixed batch lengths;
/// tree 1 sits out round 3 with an empty batch.
fn mixed_fleet(name: &'static str, shapes: &[(usize, usize, usize)], sketched: bool) -> Corpus {
    let streams = shapes
        .iter()
        .enumerate()
        .map(|(s, &(p, levels, win))| {
            let mut cfg = fleet_cfg(levels, win);
            if sketched {
                cfg.mr.strategy = FitStrategy::Sketched {
                    rank_oversample: 4,
                    power_iters: 1,
                    seed: 41 + s as u64,
                };
            }
            let batches = (0..4)
                .map(|round| {
                    let len = if s == 1 && round == 2 {
                        0
                    } else {
                        5 + s + round
                    };
                    fleet_signal(p, len, s + 10 * (round + 1))
                })
                .collect();
            Stream {
                cfg,
                fit: fleet_signal(p, 60, s),
                guard: None,
                batches,
            }
        })
        .collect();
    Corpus { name, streams }
}

/// One guarded round whose batch carries a NaN and an infinity.
fn guarded_repair() -> Corpus {
    let mut batch = fleet_signal(6, 8, 7);
    batch.row_mut(2)[3] = f64::NAN;
    batch.row_mut(4)[6] = f64::INFINITY;
    Corpus {
        name: "guarded_repair",
        streams: vec![Stream {
            cfg: fleet_cfg(3, 4),
            fit: fleet_signal(6, 50, 1),
            guard: Some(IngestGuard::new(GapPolicy::HoldLast, 6)),
            batches: vec![batch],
        }],
    }
}

/// Per-snapshot streaming with `root_step > 1`: most one-column rounds add
/// no decimated root column; round 7 is an empty batch.
fn sub_step() -> Corpus {
    let batches = (0..13)
        .map(|round| {
            if round == 6 {
                Mat::zeros(6, 0)
            } else {
                fleet_signal(6, 1, 100 + round)
            }
        })
        .collect();
    Corpus {
        name: "sub_step",
        streams: vec![Stream {
            cfg: fleet_cfg(2, 8),
            fit: fleet_signal(6, 64, 3), // subsample_step(64) = 4
            guard: None,
            batches,
        }],
    }
}

/// A 64-tree fleet whose streams the telemetry fault injector corrupted
/// (NaN runs, dropped samples, dead sensors, rank-collapsing batches),
/// ingested through hold-last guards.
fn injected_fleet() -> Corpus {
    const ROWS: usize = 6;
    const FIT_COLS: usize = 32;
    const BATCH_COLS: usize = 3;
    let signal = |tree: usize, t0: usize, cols: usize| {
        Mat::from_fn(ROWS, cols, |i, j| {
            let t = (t0 + j) as f64 * 0.6;
            (0.04 * t + tree as f64 * 0.31).sin() * ((i + 1) as f64 * 0.5).cos()
                + 0.25 * (0.8 * t + i as f64 * 0.9).sin()
        })
    };
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            max_levels: 2,
            max_cycles: 2,
            rank: RankSelection::Fixed(4),
            min_window: 8,
            n_threads: 1,
            ..MrDmdConfig::default()
        },
        isvd_max_rank: 6,
        ..IMrDmdConfig::default()
    };
    let streams = (0..64)
        .map(|tree| {
            let clean: Vec<Mat> = (0..6)
                .map(|r| signal(tree, FIT_COLS + r * BATCH_COLS, BATCH_COLS))
                .collect();
            let fc = FaultConfig {
                seed: 9000 + tree as u64,
                drop_prob: 0.02,
                nan_run_prob: 0.4,
                nan_run_max_len: 2,
                sensor_dropout_prob: 0.2,
                duplicate_prob: 0.0,
                pathological_prob: 0.35,
            };
            Stream {
                cfg,
                fit: signal(tree, 0, FIT_COLS),
                guard: Some(IngestGuard::new(GapPolicy::HoldLast, ROWS)),
                batches: FaultInjector::new(clean.into_iter(), fc).collect(),
            }
        })
        .collect();
    Corpus {
        name: "injected_fleet",
        streams,
    }
}

/// The streaming fault suite's multiscale signal.
fn faults_signal(p: usize, t: usize) -> Mat {
    Mat::from_fn(p, t, |i, j| {
        let x = i as f64 / p as f64;
        let tt = j as f64 * 20.0;
        50.0 + 4.0 * (TAU * tt / 9000.0 + 2.0 * x).sin()
            + 1.5 * (TAU * tt / 900.0 + 5.0 * x).cos()
            + 0.4 * (TAU * tt / 90.0 + 9.0 * x).sin()
    })
}

fn faults_cfg(dt: f64, levels: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: levels,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        keep_history: true,
        ..IMrDmdConfig::default()
    }
}

/// Unguarded chunks of `data` from `fit_cols` on.
fn chunks(data: &Mat, fit_cols: usize, chunk: usize) -> Vec<Mat> {
    (fit_cols..data.cols())
        .step_by(chunk)
        .map(|lo| data.cols_range(lo, (lo + chunk).min(data.cols())))
        .collect()
}

fn unguarded(cfg: IMrDmdConfig, data: &Mat, fit_cols: usize, chunk: usize) -> Stream {
    Stream {
        cfg,
        fit: data.cols_range(0, fit_cols),
        guard: None,
        batches: chunks(data, fit_cols, chunk),
    }
}

/// A theta scenario corrupted by the fault injector, cold-started on the
/// repaired first chunk and streamed through an interpolating guard.
fn faulty_scenario() -> Corpus {
    let (nodes, total, chunk) = (24, 1200, 150);
    let mut machine = theta().scaled(nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, 11);
    let faults = FaultConfig {
        seed: 4242,
        drop_prob: 0.003,
        nan_run_prob: 0.8,
        nan_run_max_len: 20,
        sensor_dropout_prob: 0.3,
        duplicate_prob: 0.0,
        pathological_prob: 0.0,
    };
    let mut stream = FaultInjector::new(ChunkStream::new(&scenario, 0, total, chunk), faults);
    let first = stream.next().expect("first chunk");
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, nodes);
    let (clean, _) = guard.repair(&first).expect("repairable first chunk");
    Corpus {
        name: "faulty_scenario",
        streams: vec![Stream {
            cfg: faults_cfg(scenario.dt(), 4),
            fit: clean.unwrap_or(first),
            guard: Some(guard),
            batches: stream.collect(),
        }],
    }
}

/// A reject-policy guard refusing a NaN batch, then a batch of the wrong
/// width; both rounds fail and leave the state untouched.
fn rejected() -> Corpus {
    let data = faults_signal(8, 256);
    let mut bad = data.cols_range(128, 192);
    bad[(3, 7)] = f64::NAN;
    Corpus {
        name: "rejected",
        streams: vec![Stream {
            cfg: faults_cfg(20.0, 3),
            fit: data.cols_range(0, 128),
            guard: Some(IngestGuard::new(GapPolicy::Reject, 8)),
            batches: vec![bad, Mat::zeros(9, 64)],
        }],
    }
}

/// The kill-and-resume stream: 64-column chunks after a 128-column fit.
fn kill_resume() -> Corpus {
    Corpus {
        name: "kill_resume",
        streams: vec![unguarded(
            faults_cfg(20.0, 4),
            &faults_signal(12, 512),
            128,
            64,
        )],
    }
}

/// A seven-column batch left pending below `min_window`.
fn pending() -> Corpus {
    Corpus {
        name: "pending",
        streams: vec![unguarded(
            faults_cfg(20.0, 4),
            &faults_signal(8, 263),
            256,
            7,
        )],
    }
}

/// The same stream in 8- and 64-column chunks.
fn chunkings() -> Corpus {
    let data = faults_signal(12, 512);
    Corpus {
        name: "chunkings",
        streams: vec![
            unguarded(faults_cfg(20.0, 4), &data, 128, 8),
            unguarded(faults_cfg(20.0, 4), &data, 128, 64),
        ],
    }
}

/// A clean guarded batch primes the hold-last carry; the next batch has a
/// whole row of gaps held from it.
fn hold_carry() -> Corpus {
    let data = faults_signal(6, 192);
    let mut bad = data.cols_range(160, 192);
    for j in 0..32 {
        bad[(2, j)] = f64::NAN;
    }
    Corpus {
        name: "hold_carry",
        streams: vec![Stream {
            cfg: faults_cfg(20.0, 3),
            fit: data.cols_range(0, 128),
            guard: Some(IngestGuard::new(GapPolicy::HoldLast, 6)),
            batches: vec![data.cols_range(128, 160), bad],
        }],
    }
}

fn corpora() -> Vec<Corpus> {
    vec![
        mixed_fleet(
            "mixed_exact",
            &[(8, 3, 4), (8, 2, 4), (12, 3, 6), (8, 3, 4)],
            false,
        ),
        mixed_fleet("mixed_sketched", &[(8, 3, 4), (12, 3, 6), (8, 2, 4)], true),
        guarded_repair(),
        sub_step(),
        injected_fleet(),
        faulty_scenario(),
        rejected(),
        kill_resume(),
        pending(),
        chunkings(),
        hold_carry(),
    ]
}

// ---------------------------------------------------------------------------
// Runners.
// ---------------------------------------------------------------------------

/// Fits every tree of `corpus` (with `n_threads` overriding the corpus's
/// thread knob when given), streams its rounds, and records a digest after
/// the fit and after every round.
fn run(corpus: &Corpus, n_threads: Option<usize>) -> Run {
    let mut out = Run::default();
    for (k, stream) in corpus.streams.iter().enumerate() {
        let mut cfg = stream.cfg;
        if let Some(n) = n_threads {
            cfg.mr.n_threads = n;
        }
        let mut tree = IMrDmd::fit(&stream.fit, &cfg);
        let mut guard = stream.guard.clone();
        out.lines
            .push(line(corpus.name, k, 0, true, digest(&mut tree)));
        for (r, batch) in stream.batches.iter().enumerate() {
            let report = match &mut guard {
                Some(g) => tree.try_partial_fit(batch, g).ok(),
                None => Some(tree.partial_fit(batch)),
            };
            match &report {
                Some(rep) => {
                    out.repaired += rep.repairs.repaired;
                    if rep.batch_len == 0 {
                        out.empty_rounds += 1;
                    } else if rep.new_root_cols == 0 {
                        out.sub_step_rounds += 1;
                    }
                }
                None => out.errors += 1,
            }
            let d = digest(&mut tree);
            out.lines
                .push(line(corpus.name, k, r + 1, report.is_some(), d));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fixture.
// ---------------------------------------------------------------------------

fn fixture_path() -> String {
    format!("{}/{FIXTURE}", env!("CARGO_MANIFEST_DIR"))
}

/// The fixture's lines, grouped by corpus name.
fn load_fixture() -> BTreeMap<String, Vec<String>> {
    let text = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("cannot read {FIXTURE}: {e}"));
    let mut by_corpus: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for l in text.lines().map(str::trim) {
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let name = l.split_whitespace().next().unwrap_or_default();
        by_corpus
            .entry(name.to_string())
            .or_default()
            .push(l.to_string());
    }
    by_corpus
}

/// Asserts `got` equals the fixture's lines for the corpus, naming the
/// first round that moved.
fn check(fixture: &BTreeMap<String, Vec<String>>, corpus: &str, what: &str, got: &[String]) {
    let want = fixture
        .get(corpus)
        .unwrap_or_else(|| panic!("{FIXTURE} has no lines for corpus `{corpus}`"));
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{what}: round moved (want `{w}`, got `{g}`)");
    }
    assert_eq!(
        got.len(),
        want.len(),
        "{what}: corpus `{corpus}` produced a different number of rounds"
    );
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn every_round_matches_the_fixture() {
    let fixture = load_fixture();
    let corpora = corpora();
    assert_eq!(fixture.len(), corpora.len(), "fixture and corpora disagree");
    for corpus in &corpora {
        check(
            &fixture,
            corpus.name,
            "corpus config",
            &run(corpus, None).lines,
        );
    }
}

#[test]
fn digests_are_invariant_to_worker_threads() {
    let fixture = load_fixture();
    for corpus in &corpora() {
        for n in [1usize, 2, 4] {
            let run = run(corpus, Some(n));
            check(&fixture, corpus.name, &format!("n_threads={n}"), &run.lines);
        }
    }
}

#[test]
fn corpora_exercise_the_paths_they_cover() {
    let tally = |name: &str| {
        let corpus = corpora()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no corpus `{name}`"));
        run(&corpus, None)
    };
    let sub = tally("sub_step");
    assert!(sub.sub_step_rounds > 0, "no round skipped the root solve");
    assert_eq!(sub.empty_rounds, 1);
    assert_eq!(tally("mixed_exact").empty_rounds, 1);
    assert!(tally("guarded_repair").repaired > 0);
    assert!(tally("injected_fleet").repaired > 64);
    assert!(tally("faulty_scenario").repaired > 0);
    assert_eq!(tally("hold_carry").repaired, 32);
    assert_eq!(tally("rejected").errors, 2);
}

/// Rewrites the fixture from the current code. Run it only for an
/// intended numerical change, and say why in the commit.
#[test]
#[ignore]
fn regenerate_fixture() {
    let mut text = String::from(
        "# Round goldens: `corpus tree round outcome digest`, one line per tree\n\
         # and round (round 0 is the initial fit). The digest is the FNV-1a-64\n\
         # of the tree's serde_json state with `n_threads` normalised to 0.\n\
         # Regenerate: cargo test --release --test round_goldens -- --ignored\n",
    );
    for corpus in &corpora() {
        for l in run(corpus, None).lines {
            text.push_str(&l);
            text.push('\n');
        }
    }
    std::fs::write(fixture_path(), text).expect("write fixture");
}
