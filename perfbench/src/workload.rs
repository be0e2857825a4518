//! The workloads, seed derivation, and set-up (store build, engine, first
//! backend) with its timing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use uei_explore::{
    generate_sdss_like, generate_target_region, Oracle, RegionSize, SessionConfig, SynthConfig,
    UeiBackend,
};
use uei_index::{EngineCore, UeiConfig};
use uei_learn::{EstimatorKind, UncertaintyMeasure};
use uei_storage::{ColumnStore, DiskTracker, IoProfile, StoreConfig};
use uei_types::{DataPoint, Result, Rng, Schema};

/// Size of the uniform sample `U` every analyst keeps in memory.
pub const GAMMA: usize = 2_000;
/// DWKNN neighbourhood size.
pub const K: usize = 5;
/// The paper's latency threshold σ.
pub const SIGMA_MS: f64 = 500.0;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 3;
/// Untraced passes over the run's sessions. The sessions are deterministic,
/// so every pass makes the same steps; each step counts with its fastest
/// pass, which filters out the bursts in which other tenants of a shared
/// host slow it down.
pub const PASSES: usize = 2;
/// Percentiles are nearest-rank; p90 needs at least ten samples above it.
pub const MIN_STEPS: usize = 100;

/// Chunk-cache budget of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Cache {
    /// A share of the store's on-disk chunk bytes.
    StoreShare(f64),
    /// The engine default.
    Default,
}

/// One set of inputs the benchmark runs.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub rows: usize,
    pub cells_per_dim: usize,
    pub cache: Cache,
    /// Target-region classes, cycled over the run's sessions.
    pub targets: &'static [RegionSize],
    /// Label budget of one session.
    pub labels: usize,
    /// Nominal exploration steps per second on a 2-vCPU x86-64 host. Fixes
    /// the run's amount of work from `--seconds`, so that a faster program
    /// does the same work in less time rather than more work.
    pub steps_per_sec: f64,
}

pub const WORKLOADS: &[Workload] = &[
    // Storage-bound: region reconstruction dominates the step. The cache is
    // 1 % of the chunk bytes, the paper's memory restriction.
    Workload {
        name: "region-1m",
        rows: 1_000_000,
        cells_per_dim: 5,
        cache: Cache::StoreShare(0.01),
        targets: &[RegionSize::Medium],
        labels: 30,
        steps_per_sec: 4.8,
    },
    // Index-bound: 10^5 index points make rescoring and top-θ selection the
    // bulk of the step; the store fits the cache.
    Workload {
        name: "grid-100k",
        rows: 100_000,
        cells_per_dim: 10,
        cache: Cache::Default,
        targets: &[RegionSize::Small, RegionSize::Medium, RegionSize::Large],
        labels: 40,
        steps_per_sec: 50.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 of `seed` mixed with a stream id: every input of a run is
/// derived from the one `--seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeds of one analyst's exploration session.
#[derive(Debug, Clone, Copy)]
pub struct AnalystSeeds {
    pub target: u64,
    pub session: u64,
    pub sample: u64,
}

impl Workload {
    /// Sessions a run makes, each `PASSES` times, for `seconds`.
    pub fn sessions(&self, seconds: u64) -> usize {
        let per_session = self.steps_per_session() as f64;
        let nominal = seconds as f64 * self.steps_per_sec / (PASSES as f64 * per_session);
        (nominal.round() as usize).max((MIN_STEPS as f64 / per_session).ceil() as usize)
    }

    /// Steps of one session: the label budget less the two bootstrap labels.
    pub fn steps_per_session(&self) -> usize {
        self.labels - 2
    }

    pub fn index_points(&self) -> usize {
        self.cells_per_dim.pow(5)
    }

    /// The generated data as 8-byte values: rows × dims × 8.
    pub fn user_bytes(&self) -> u64 {
        (self.rows * 5 * 8) as u64
    }

    pub fn analyst_seeds(&self, seed: u64, analyst: usize) -> AnalystSeeds {
        let a = analyst as u64;
        AnalystSeeds {
            target: derive(seed, 0x100 + a),
            session: derive(seed, 0x200 + a),
            sample: derive(seed, 0x300 + a),
        }
    }

    pub fn generate_rows(&self, seed: u64) -> Vec<DataPoint> {
        generate_sdss_like(&SynthConfig {
            rows: self.rows,
            seed: derive(seed, 1),
            ..SynthConfig::default()
        })
    }

    pub fn oracle(&self, rows: &[DataPoint], seed: u64, analyst: usize) -> Result<Oracle> {
        let size = self.targets[analyst % self.targets.len()];
        let mut rng = Rng::new(self.analyst_seeds(seed, analyst).target);
        Ok(Oracle::new(generate_target_region(rows, &Schema::sdss(), size, &mut rng)?))
    }

    pub fn session_config(&self, seed: u64, analyst: usize) -> SessionConfig {
        SessionConfig {
            estimator: EstimatorKind::Dwknn { k: K },
            measure: UncertaintyMeasure::LeastConfidence,
            max_labels: self.labels,
            batch_size: 1,
            bootstrap_size: 500,
            // No per-step estimate on an evaluation sample: the step is
            // exactly retrain + select + label, and quality is the exact
            // final F-measure.
            eval_sample: 0,
            eval_every: 1,
            seed: self.analyst_seeds(seed, analyst).session,
        }
    }

    pub fn uei_config(&self, store: &ColumnStore) -> UeiConfig {
        let defaults = UeiConfig::default();
        let chunk_cache_bytes = match self.cache {
            Cache::StoreShare(share) => {
                (store.manifest().total_chunk_bytes() as f64 * share).round() as usize
            }
            Cache::Default => defaults.chunk_cache_bytes,
        };
        UeiConfig {
            cells_per_dim: self.cells_per_dim,
            chunk_cache_bytes,
            prefetch: false,
            latency_threshold_secs: SIGMA_MS / 1e3,
            ..defaults
        }
    }

    /// Parameters recorded with every result.
    pub fn params(&self, seconds: u64) -> Vec<(&'static str, String)> {
        let targets: Vec<&str> = self.targets.iter().map(|t| t.name()).collect();
        vec![
            ("rows", self.rows.to_string()),
            ("dims", "5".into()),
            ("cells_per_dim", self.cells_per_dim.to_string()),
            ("index_points", self.index_points().to_string()),
            ("chunk_target_bytes", StoreConfig::default().chunk_target_bytes.to_string()),
            ("cache", format!("{:?}", self.cache)),
            ("sessions", self.sessions(seconds).to_string()),
            ("targets", targets.join(",")),
            ("labels_per_analyst", self.labels.to_string()),
            ("estimator", format!("dwknn(k={K})")),
            ("measure", "least_confidence".into()),
            ("gamma", GAMMA.to_string()),
            ("sigma_ms", SIGMA_MS.to_string()),
            ("io_profile", "nvme".into()),
        ]
    }
}

/// What set-up leaves behind for the exploration phase.
pub struct Setup {
    pub store: Arc<ColumnStore>,
    pub config: UeiConfig,
    pub engine: EngineCore,
    /// The first session's backend, opened during set-up; taken by it.
    pub backend: Option<UeiBackend>,
    /// Per repeat: build, engine+backend open, and their sum (seconds).
    pub build_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub total_s: Vec<f64>,
}

/// Builds the store, the engine and the first session's backend
/// `SETUP_REPEATS` times into fresh directories, timing each; the last
/// build is kept.
pub fn set_up(w: &Workload, rows: &[DataPoint], seed: u64, dir: &Path) -> Result<Setup> {
    let mut build_s = Vec::new();
    let mut open_s = Vec::new();
    let mut total_s = Vec::new();
    let mut kept = None;
    for repeat in 0..SETUP_REPEATS {
        let store_dir = dir.join(format!("store-{repeat}"));
        let t0 = Instant::now();
        let store = Arc::new(ColumnStore::create(
            &store_dir,
            Schema::sdss(),
            rows,
            StoreConfig::default(),
            DiskTracker::new(IoProfile::nvme()),
        )?);
        let t1 = Instant::now();
        let config = w.uei_config(&store);
        let engine = EngineCore::new(Arc::clone(&store), config.clone())?;
        let backend = Some(open_backend(&engine, w, seed, 0)?);
        let t2 = Instant::now();
        build_s.push((t1 - t0).as_secs_f64());
        open_s.push((t2 - t1).as_secs_f64());
        total_s.push((t2 - t0).as_secs_f64());
        if let Some((old_dir, ..)) = kept.replace((store_dir, store, config, engine, backend)) {
            remove_dir(&old_dir);
        }
    }
    let (_, store, config, engine, backend) = kept.expect("at least one set-up repeat");
    Ok(Setup { store, config, engine, backend, build_s, open_s, total_s })
}

/// Opens analyst `analyst`'s backend: a session of the engine with its own
/// γ-sample.
pub fn open_backend(
    engine: &EngineCore,
    w: &Workload,
    seed: u64,
    analyst: usize,
) -> Result<UeiBackend> {
    let mut rng = Rng::new(w.analyst_seeds(seed, analyst).sample);
    UeiBackend::from_engine(engine, GAMMA, &mut rng)
}

/// On-disk bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        remove_dir(&self.0);
    }
}
