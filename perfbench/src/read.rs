//! The served-read phase: one client searches every T-side text (and
//! asks for the top 10 on every 4th one) against a service whose delta
//! and tombstones stay empty.
//!
//! A traced request also takes the snapshot and searches it directly, so
//! `Service::search` splits into snapshot acquire and snapshot search.

use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{gate, ms_since, op_err, sample_indices, Ctx, Failure, Run, Steps};
use au_core::engine::{Engine, JoinSpec};
use au_serve::{SearchResponse, Service, TopkResponse};
use au_text::record::Corpus;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// `k` of the top-k requests.
pub const TOPK: usize = 10;

/// `(id, similarity bits)` of one answer, for byte-identical checks.
pub type Answer = Vec<(u64, u64)>;

/// The matches of one answer with similarities as bits.
pub fn answer(matches: &[(u64, f64)]) -> Answer {
    matches.iter().map(|&(id, v)| (id, v.to_bits())).collect()
}

/// Searches `queries` on an `Engine::searcher` over a fresh monolithic
/// prepare of the service's live records, mapped to global ids.
pub fn reference_answers(svc: &Service, queries: &[&str]) -> Result<Vec<Answer>, Failure> {
    let snap = svc.snapshot();
    let cfg = svc.config();
    let engine =
        Engine::new(snap.knowledge().clone(), cfg.sim).map_err(op_err("reference engine"))?;
    let mut corpus = Corpus::new();
    let mut ids = Vec::new();
    for (gid, rec) in snap.live_records() {
        corpus.push_tokens(rec.tokens.clone(), rec.raw.clone());
        ids.push(gid);
    }
    let prepared = engine
        .prepare_owned(corpus)
        .map_err(op_err("reference prepare"))?;
    let searcher = engine
        .searcher(
            &prepared,
            &JoinSpec::threshold(cfg.theta).filter(cfg.filter),
        )
        .map_err(op_err("reference searcher"))?;
    Ok(queries
        .iter()
        .map(|q| {
            searcher
                .query(q)
                .matches
                .iter()
                .map(|&(row, v)| (ids[row as usize], v.to_bits()))
                .collect()
        })
        .collect())
}

/// The read phase's state between steps.
pub struct ReadPhase<'a> {
    ctx: Ctx<'a>,
    svc: &'a Service,
    queries: Vec<&'a str>,
    generation: u64,
    min_queries: usize,
    i: usize,
    search_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    snapshot_us: Vec<f64>,
    snap_search_ms: Vec<f64>,
    /// The first answer to each query.
    first_pass: Vec<Option<SearchResponse>>,
    topk_steps: Vec<f64>,
    /// Top-k answers of the first pass, by query index.
    topk_answers: Vec<(usize, TopkResponse)>,
    candidates: u64,
    matches: u64,
}

impl<'a> ReadPhase<'a> {
    /// A read phase over `svc`, querying with the T side of `ctx.data`.
    pub fn new(ctx: Ctx<'a>, svc: &'a Service) -> Result<Self, Failure> {
        let queries: Vec<&str> = ctx.data.t_lines().collect();
        if queries.is_empty() {
            return Err(Failure::Op("no queries".into()));
        }
        Ok(Self {
            min_queries: queries.len().max(ctx.sizes.min_searches),
            first_pass: vec![None; queries.len()],
            generation: svc.generation(),
            ctx,
            svc,
            queries,
            i: 0,
            search_ms: Vec::new(),
            topk_ms: Vec::new(),
            snapshot_us: Vec::new(),
            snap_search_ms: Vec::new(),
            topk_steps: Vec::new(),
            topk_answers: Vec::new(),
            candidates: 0,
            matches: 0,
        })
    }
}

impl Steps for ReadPhase<'_> {
    /// One query: a search, and on every 4th query a top-k.
    fn step(&mut self, run: &mut Run) -> Result<(), Failure> {
        let (svc, i, n) = (self.svc, self.i, self.queries.len());
        let q = self.queries[i % n];
        let tr = &mut run.tracer;
        let trace_this = tr.is_on();
        tr.next_request();

        // A traced request also takes the snapshot and searches it
        // directly; which of the two goes first alternates, so neither
        // always runs on warm caches.
        let direct_first = trace_this && i % 2 == 1;
        let direct = if direct_first {
            Some(direct_search(tr, svc, q))
        } else {
            None
        };
        run.attempted += 1;
        let t = Instant::now();
        let resp = tr
            .span("serve.search", |_| svc.search(q))
            .map_err(op_err("search"))?;
        self.search_ms.push(ms_since(t));
        if trace_this {
            let (snap_ms, direct_ms, direct) = match direct {
                Some(d) => d,
                None => direct_search(tr, svc, q),
            };
            self.snapshot_us.push(snap_ms * 1e3);
            self.snap_search_ms.push(direct_ms);
            gate(direct.matches == resp.matches, || {
                format!("query {i}: snapshot search differs from service search")
            })?;
        }
        gate(resp.generation == self.generation, || {
            format!(
                "query {i}: generation {} on a service at {}",
                resp.generation, self.generation
            )
        })?;

        if i % 4 == 3 {
            run.attempted += 1;
            let t = Instant::now();
            let top = tr
                .span("serve.topk", |_| svc.topk(q, TOPK))
                .map_err(op_err("topk"))?;
            self.topk_ms.push(ms_since(t));
            let thetas = descent(svc.config());
            let steps = thetas
                .iter()
                .take_while(|&&t| t > top.theta + 1e-12)
                .count()
                + 1;
            self.topk_steps.push(steps as f64);
            if i < n {
                self.topk_answers.push((i, top));
            }
        }

        match &self.first_pass[i % n] {
            Some(prev) => gate(prev.matches == resp.matches, || {
                format!("query {i}: answer changed between passes")
            })?,
            None => {
                self.candidates += resp.candidates;
                self.matches += resp.matches.len() as u64;
                self.first_pass[i % n] = Some(resp);
            }
        }
        self.i += 1;
        Ok(())
    }

    fn progress(&self) -> f64 {
        self.i as f64 / self.min_queries as f64
    }

    fn finish(&mut self, run: &mut Run) -> Result<(), Failure> {
        let reference = reference_answers(self.svc, &self.queries)?;
        for (qi, (resp, want)) in self.first_pass.iter().zip(&reference).enumerate() {
            let got = resp.as_ref().map(|r| answer(&r.matches));
            gate(got.as_ref() == Some(want), || {
                format!("query {qi}: service answer differs from a monolithic searcher")
            })?;
        }
        let (checks, seed) = (self.ctx.sizes.topk_checks, self.ctx.seed);
        check_topk(self.svc, &self.queries, &self.topk_answers, checks, seed)?;

        let m = &mut run.metrics;
        m.put("search_p50_ms", percentile(&self.search_ms, 0.50), "ms");
        m.put("search_p90_ms", percentile(&self.search_ms, 0.90), "ms");
        m.put("topk_p50_ms", percentile(&self.topk_ms, 0.50), "ms");
        m.put("topk_p90_ms", percentile(&self.topk_ms, 0.90), "ms");
        for name in ["search_p50_ms", "search_p90_ms"] {
            m.note_samples(name, self.search_ms.len());
        }
        for name in ["topk_p50_ms", "topk_p90_ms"] {
            m.note_samples(name, self.topk_ms.len());
        }
        if !run.tracer.is_on() {
            return Ok(());
        }
        let m = &mut run.metrics;
        let n = self.queries.len() as f64;
        let (cand, matched) = (self.candidates as f64, self.matches as f64);
        m.put("serve.snapshot_us", median(&self.snapshot_us), "us");
        m.put(
            "serve.snapshot.search_ms",
            median(&self.snap_search_ms),
            "ms",
        );
        m.put("serve.search.candidates_per_query", Some(cand / n), "count");
        m.put(
            "serve.search.verify_yield",
            (cand > 0.0).then(|| matched / cand),
            "ratio",
        );
        m.put(
            "serve.topk.steps_per_query",
            mean(&self.topk_steps),
            "count",
        );
        Ok(())
    }
}

/// `Service::snapshot` then `Snapshot::search`, each in its own span:
/// returns both times (ms) and the answer.
fn direct_search(tr: &mut Tracer, svc: &Service, q: &str) -> (f64, f64, SearchResponse) {
    let t = Instant::now();
    let snap = tr.span("serve.snapshot", |_| svc.snapshot());
    let snap_ms = ms_since(t);
    let t = Instant::now();
    let resp = tr.span("serve.snapshot.search", |_| snap.search(q));
    (snap_ms, ms_since(t), resp)
}

/// The thresholds `Service::topk` tries, in order: the service θ, then
/// steps down to the floor.
fn descent(cfg: &au_serve::ServeConfig) -> Vec<f64> {
    let (step, floor) = (cfg.topk_step.max(1e-3), cfg.topk_floor.max(0.0));
    let mut thetas = vec![cfg.theta];
    let mut theta = cfg.theta;
    while theta > floor + 1e-12 {
        theta = (theta - step).max(floor);
        thetas.push(theta);
    }
    thetas
}

/// For a seeded sample of answered top-k requests, against a brute-force
/// `Engine::usim` of the query with every live record at the threshold
/// the descent stopped at: fewer than `k` answers are exactly the records
/// that reach it, `k` answers are among them; every reported similarity
/// reaches the threshold and is at most the brute-force value; and the
/// descent stopped at the first threshold that yields `k` matches.
fn check_topk(
    svc: &Service,
    queries: &[&str],
    answered: &[(usize, TopkResponse)],
    checks: usize,
    seed: u64,
) -> Result<(), Failure> {
    let picked: Vec<&(usize, TopkResponse)> = sample_indices(answered.len(), checks, seed ^ 0x70b)
        .into_iter()
        .map(|i| &answered[i])
        .collect();
    let snap = svc.snapshot();
    let cfg = svc.config();
    let mut kn = snap.knowledge().clone();
    let qcorpus = kn.corpus_from_lines(picked.iter().map(|(qi, _)| queries[*qi]));
    let mut base = Corpus::new();
    let mut ids = Vec::new();
    for (gid, rec) in snap.live_records() {
        base.push_tokens(rec.tokens.clone(), rec.raw.clone());
        ids.push(gid);
    }
    let op = |e: au_core::AuError| op_err("top-k oracle")(e);
    let engine = Engine::new(kn, cfg.sim).map_err(op)?;
    let pq = engine.prepare_owned(qcorpus).map_err(op)?;
    let pb = engine.prepare_owned(base).map_err(op)?;
    let eps = cfg.sim.eps;
    for (row, (qi, top)) in picked.iter().enumerate() {
        let mut sims = Vec::with_capacity(ids.len());
        for (r, &gid) in ids.iter().enumerate() {
            sims.push((
                gid,
                engine.usim(&pq, row as u32, &pb, r as u32).map_err(op)?,
            ));
        }
        let at = |theta: f64| sims.iter().filter(|s| s.1 >= theta - eps).count();
        // Search reports the verifier's θ-dependent lower bound of USIM,
        // so membership is checked exactly and each value as a bound.
        let bound: BTreeMap<u64, f64> = sims
            .iter()
            .copied()
            .filter(|s| s.1 >= top.theta - eps)
            .collect();
        let got: BTreeSet<u64> = top.matches.iter().map(|m| m.0).collect();
        let complete = if top.matches.len() < TOPK {
            got.len() == bound.len()
        } else {
            top.matches.len() == TOPK && bound.len() >= TOPK
        };
        let sound = top.matches.iter().all(|&(id, v)| {
            v >= top.theta - eps && bound.get(&id).is_some_and(|&u| v <= u + 1e-12)
        });
        gate(got.len() == top.matches.len() && complete && sound, || {
            format!(
                "top-k of query {qi} at θ={}: got {:?}, brute force finds {} records: {:?}",
                top.theta,
                top.matches,
                bound.len(),
                bound.iter().take(TOPK).collect::<Vec<_>>()
            )
        })?;
        let thetas = descent(cfg);
        let step = thetas.iter().position(|&t| t <= top.theta + 1e-12);
        gate(step.is_some(), || {
            format!(
                "top-k of query {qi} answered at θ={} off the descent",
                top.theta
            )
        })?;
        if let Some(prev) = step.filter(|&s| s > 0).map(|s| thetas[s - 1]) {
            gate(at(prev) < TOPK, || {
                format!("top-k of query {qi} descended past θ={prev}")
            })?;
        }
    }
    Ok(())
}
