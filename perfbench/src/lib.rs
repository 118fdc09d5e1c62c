//! Timed benchmark of the AU-Join session API, end to end and layer by
//! layer. See `README.md` in this directory for the workloads, the
//! metrics and what each layer metric should move.
//!
//! One run = one workload in one process, driven by a single client
//! thread in a closed loop. The run sets up its inputs from the seed,
//! runs the workload's primary phase for the time budget and the other
//! phases (the other workload's and the read phase) on a small side
//! corpus, so every end-to-end metric exists in every run, checks every
//! output, and returns the metrics.

pub mod join;
pub mod read;
pub mod stats;
pub mod trace;
pub mod write;

use au_core::knowledge::Knowledge;
use au_datagen::{DatasetProfile, LabeledDataset};
use au_serve::{ServeConfig, Service};
use stats::{median, Metrics};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Join / search threshold of every phase.
pub const THETA: f64 = 0.9;

/// The workloads. Each names the phase that gets the time budget; the
/// read phase is never primary and runs on the side corpus of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch R×S join, cold and warm.
    JoinMed,
    /// Durable inserts/deletes with searches, compaction, recovery.
    ServeWrite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::JoinMed, Workload::ServeWrite];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JoinMed => "join-med",
            Workload::ServeWrite => "serve-write",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Corpus size and repetition minimums of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records per side.
    pub records: usize,
    /// Planted similar pairs.
    pub pairs: usize,
    /// Cold+warm join pairs at least.
    pub min_joins: usize,
    /// Write cycles (the primary phase fills the rest of its budget with
    /// recoveries).
    pub cycles: usize,
    /// Inserts per write cycle (a delete follows every second one).
    pub inserts_per_cycle: usize,
    /// Recoveries from the previous cycle's log during each write cycle.
    pub recoveries_per_cycle: usize,
}

/// Input sizes and repetition counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The primary phase's corpus and minimums.
    pub main: Scale,
    /// The side corpus and minimums of the other phases.
    pub side: Scale,
    /// Set-ups per run, spread over its rounds; `setup_s` is their
    /// median.
    pub setups: usize,
    /// S rows checked against the brute-force join.
    pub brute_rows: usize,
    /// Searches at least (the read phase).
    pub min_searches: usize,
    /// Top-k answers checked against brute-force `Engine::usim`.
    pub topk_checks: usize,
    /// Queries in the post-compaction / post-recovery battery.
    pub battery: usize,
}

impl Sizes {
    /// The benchmark's sizes. Every reported p90 has at least 12 samples
    /// beyond it: the read phase makes at least 2000 searches and 500
    /// top-k requests, each write phase at least 256 inserts and 128
    /// deletes.
    pub fn standard() -> Self {
        Self {
            main: Scale {
                records: 1200,
                pairs: 240,
                min_joins: 3,
                cycles: 5,
                inserts_per_cycle: 128,
                recoveries_per_cycle: 3,
            },
            side: Scale {
                records: 300,
                pairs: 60,
                min_joins: 24,
                cycles: 8,
                inserts_per_cycle: 32,
                recoveries_per_cycle: 2,
            },
            setups: 7,
            brute_rows: 24,
            min_searches: 2000,
            topk_checks: 8,
            battery: 48,
        }
    }
}

/// Generated inputs of one phase: raw lines, the knowledge they are
/// interned under, and the planted pairs that reach θ.
#[derive(Debug)]
pub struct Data {
    /// Taxonomy + synonym knowledge with no corpus interned.
    pub kn: Knowledge,
    /// S-side raw lines.
    pub s: Vec<String>,
    /// T-side raw lines.
    pub t: Vec<String>,
    /// Planted `(s, t)` pairs whose similarity reaches θ.
    pub truth: Vec<(u32, u32)>,
}

impl Data {
    /// MED-like corpora with `n` records per side and `pairs` planted
    /// pairs, deterministic in `seed`.
    pub fn generate(n: usize, pairs: usize, seed: u64) -> Self {
        let ds = LabeledDataset::generate(&DatasetProfile::med_like(1.0), n, n, pairs, seed);
        let lines = |c: &au_text::record::Corpus| c.iter().map(|r| r.raw.clone()).collect();
        Self {
            kn: ds.blueprint.build_knowledge(),
            s: lines(&ds.s),
            t: lines(&ds.t),
            truth: ds.truth_at(THETA).map(|p| (p.s, p.t)).collect(),
        }
    }

    /// S-side lines as `&str`.
    pub fn s_lines(&self) -> impl Iterator<Item = &str> {
        self.s.iter().map(String::as_str)
    }

    /// T-side lines as `&str`.
    pub fn t_lines(&self) -> impl Iterator<Item = &str> {
        self.t.iter().map(String::as_str)
    }
}

/// Service configuration of the read phase: θ = 0.9, AU-DP τ = 2.
pub fn read_config() -> ServeConfig {
    ServeConfig {
        theta: THETA,
        ..ServeConfig::default()
    }
}

/// What one phase runs on.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// The phase's inputs.
    pub data: &'a Data,
    /// Repetition minimums for this corpus.
    pub scale: &'a Scale,
    /// Run-wide sizes.
    pub sizes: &'a Sizes,
    /// True for the workload's own phase (the one given `--seconds`).
    pub primary: bool,
    /// The run's seed, for seeded samples.
    pub seed: u64,
}

impl Ctx<'_> {
    /// Whether operation `i` of this phase records spans: in the traced
    /// run every operation does, except every second operation of the
    /// primary phase, which is timed untraced for `trace_overhead`.
    pub fn traced(&self, tracer: &Tracer, i: usize) -> bool {
        tracer.is_on() && !(self.primary && i % 2 == 1)
    }
}

/// A phase as a resumable loop, so the scheduler can interleave the
/// phases over the whole run.
pub trait Steps {
    /// Run one unit of the phase's fixed work: a cold+warm join pair, a
    /// query, or a mutation (with the recoveries due after it and the
    /// compaction that ends a cycle).
    fn step(&mut self, run: &mut Run) -> Result<(), Failure>;
    /// Run one unit of the work that fills the primary phase's budget
    /// once its share of the fixed work is done. Each unit is the same
    /// work whatever the budget, so how many fit does not change what
    /// the other units measure.
    fn fill(&mut self, run: &mut Run) -> Result<(), Failure> {
        self.step(run)
    }
    /// Share of the phase's fixed work done (1 once it is all done).
    fn progress(&self) -> f64;
    /// Check what is left to check and record the phase's metrics.
    fn finish(&mut self, run: &mut Run) -> Result<(), Failure>;
}

/// Rounds the run is cut into: in each, every phase runs its share of
/// its fixed work and the primary phase fills its share of the budget,
/// so every phase samples the whole run rather than one stretch of it.
pub const ROUNDS: usize = 20;

/// Why a run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// An operation returned an error.
    Op(String),
    /// An output failed a correctness gate.
    Gate(String),
}

/// Map an operation error into a [`Failure::Op`] naming `what` failed.
pub fn op_err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> Failure + '_ {
    move |e| Failure::Op(format!("{what}: {e}"))
}

/// Fail a gate unless `ok`.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Gate(what()))
    }
}

/// Mutable state of one run.
#[derive(Debug)]
pub struct Run {
    /// Span recorder (on in the traced run).
    pub tracer: Tracer,
    /// Metrics collected so far.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Directory for the run's write-ahead logs (created fresh, removed
    /// at the end).
    pub work_dir: PathBuf,
}

impl Run {
    /// Record `trace_overhead` (traced over untraced median of the same
    /// call, interleaved in one run) and its base in ms.
    pub fn put_overhead(&mut self, traced_ms: &[f64], untraced_ms: &[f64]) {
        let base = median(untraced_ms);
        let ratio = median(traced_ms).zip(base).map(|(t, u)| t / u);
        self.metrics.put("trace_overhead", ratio, "ratio");
        self.metrics.put("trace_overhead.base_ms", base, "ms");
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Outcome of one run: the metrics plus the result-line counters.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric the run computed (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Why the run failed, if it did.
    pub failure: Option<Failure>,
    /// The traced run's spans, when tracing was on.
    pub tracer: Tracer,
}

/// Run `workload` with `seed` for a primary-phase budget of `seconds`,
/// writing logs under `work_root`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: &Sizes,
    work_root: &Path,
) -> Outcome {
    // Unique per run, also for concurrent runs in one process.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — the read-modify-write alone makes each value
    // unique; the counter publishes no other data.
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let work_dir = work_root.join(format!("run-{pid}-{n}-{}-{seed}", workload.name()));
    let mut run = Run {
        tracer: Tracer::new(traced),
        metrics: Metrics::default(),
        attempted: 0,
        work_dir: work_dir.clone(),
    };
    let failure = phases(&mut run, workload, seed, seconds, sizes).err();
    let _ = std::fs::remove_dir_all(&work_dir);
    // Succeeds only once no other run is using the root.
    let _ = std::fs::remove_dir(work_root);
    Outcome {
        metrics: run.metrics,
        attempted: run.attempted,
        failure,
        tracer: run.tracer,
    }
}

fn phases(
    run: &mut Run,
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
) -> Result<(), Failure> {
    std::fs::create_dir_all(&run.work_dir)
        .map_err(|e| Failure::Op(format!("create {}: {e}", run.work_dir.display())))?;
    // Set-up: datagen + knowledge + the read phase's service build. The
    // first set-up's artifacts are used; the others are timed and dropped,
    // spread over the rounds so that `setup_s` samples the whole run.
    let side_seed = seed ^ 0x5eed_5eed_5eed_5eed;
    let setup = || -> Result<(Data, Data, Service), Failure> {
        let main = Data::generate(sizes.main.records, sizes.main.pairs, seed);
        let side = Data::generate(sizes.side.records, sizes.side.pairs, side_seed);
        let svc = Service::build(side.kn.clone(), side.s_lines(), read_config())
            .map_err(|e| Failure::Op(format!("service build: {e}")))?;
        Ok((main, side, svc))
    };
    let mut setup_s = Vec::with_capacity(sizes.setups);
    let t = Instant::now();
    let (main, side, svc) = setup()?;
    setup_s.push(t.elapsed().as_secs_f64());
    let extra_setups = sizes.setups.saturating_sub(1);

    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let ctx = |w: Workload| {
        let primary = w == workload;
        Ctx {
            data: if primary { &main } else { &side },
            scale: if primary { &sizes.main } else { &sizes.side },
            sizes,
            primary,
            seed,
        }
    };
    let mut order = vec![workload];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != workload));
    let mut phases: Vec<Box<dyn Steps + '_>> = Vec::new();
    for w in order {
        phases.push(match w {
            Workload::JoinMed => Box::new(join::JoinPhase::new(ctx(w))),
            Workload::ServeWrite => Box::new(write::WritePhase::new(run, ctx(w))?),
        });
    }
    let read_ctx = Ctx {
        data: &side,
        scale: &sizes.side,
        sizes,
        primary: false,
        seed,
    };
    phases.push(Box::new(read::ReadPhase::new(read_ctx, &svc)?));
    let mut busy = Duration::ZERO;
    let share = |busy: Duration| busy.as_secs_f64() / budget.as_secs_f64().max(1e-9);
    for round in 1..=ROUNDS {
        let frac = round as f64 / ROUNDS as f64;
        let (primary, sides) = phases
            .split_first_mut()
            .ok_or_else(|| Failure::Op("no phase".into()))?;
        while primary.progress() < frac {
            let t = Instant::now();
            primary.step(run)?;
            busy += t.elapsed();
        }
        while share(busy) < frac {
            let t = Instant::now();
            primary.fill(run)?;
            busy += t.elapsed();
        }
        for p in sides {
            while p.progress() < frac {
                p.step(run)?;
            }
        }
        if round * extra_setups / ROUNDS > (round - 1) * extra_setups / ROUNDS {
            let t = Instant::now();
            black_box(setup()?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
    }
    run.metrics.put("setup_s", median(&setup_s), "s");
    run.metrics.note_samples("setup_s", setup_s.len());
    for p in &mut phases {
        p.finish(run)?;
    }
    run.metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Deterministic 64-bit mixer (SplitMix64) for seeded sampling.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `k` distinct indices from `0..n`, seeded (a partial Fisher–Yates).
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (mix(seed ^ i as u64) % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}
