//! The batch-join phase: cold joins from raw lines on a fresh `Engine`,
//! then a warm re-join on the same `Prepared` pair.
//!
//! Traced cold joins wrap each layer call in a span. Signature selection
//! and probing are split with two `Engine::filter_counts` calls: the
//! first one on fresh `Prepared`s misses the memo (order + signatures +
//! CSR build + probe), the second one only probes. The `Engine::join`
//! between them runs on the warm memo, so verification is that join
//! minus the probe.

use crate::stats::median;
use crate::trace::{ns_to_ms, self_times_ns, Tracer};
use crate::{gate, ms_since, op_err, sample_indices, Ctx, Data, Failure, Run, Steps, THETA};
use au_core::config::SimConfig;
use au_core::engine::{Engine, JoinSpec, Prepared};
use au_core::join::{brute_force_join, JoinResult, JoinStats};
use au_core::signature::FilterKind;
use au_text::record::{Corpus, RecordId};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// The join's spec: θ = 0.9, U-Filter, serial execution.
pub fn spec() -> JoinSpec {
    JoinSpec::threshold(THETA).u_filter().serial()
}

/// Result pairs with similarities as bits, for byte-identical checks.
type PairBits = Vec<(u32, u32, u64)>;

fn bits(res: &JoinResult) -> PairBits {
    res.pairs
        .iter()
        .map(|&(s, t, v)| (s, t, v.to_bits()))
        .collect()
}

struct Cold {
    engine: Engine,
    ps: Prepared,
    pt: Prepared,
    res: JoinResult,
}

/// One cold join: fresh engine, intern raw lines, prepare, join.
fn cold_join(tr: &mut Tracer, data: &Data, spec: &JoinSpec) -> Result<Cold, Failure> {
    let mut engine =
        Engine::new(data.kn.clone(), SimConfig::default()).map_err(op_err("engine"))?;
    let (cs, ct) = tr.span("text.intern", |_| {
        (
            engine.corpus_from_lines(data.s_lines()),
            engine.corpus_from_lines(data.t_lines()),
        )
    });
    let (ps, pt) = tr
        .span("core.prepare", |_| {
            Ok::<_, au_core::AuError>((engine.prepare_owned(cs)?, engine.prepare_owned(ct)?))
        })
        .map_err(op_err("prepare"))?;
    if tr.is_on() {
        tr.span("core.filter.cold", |_| {
            engine.filter_counts(&ps, &pt, THETA, FilterKind::UFilter)
        })
        .map_err(op_err("filter_counts"))?;
    }
    let res = tr
        .span("core.join", |_| engine.join(&ps, &pt, spec))
        .map_err(op_err("join"))?;
    Ok(Cold {
        engine,
        ps,
        pt,
        res,
    })
}

/// The join phase's state between steps.
pub struct JoinPhase<'a> {
    ctx: Ctx<'a>,
    spec: JoinSpec,
    pairs: usize,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    /// Cold joins with and without spans, interleaved in the traced run.
    traced_cold: Vec<f64>,
    untraced_cold: Vec<f64>,
    prepare_mib: Vec<f64>,
    /// The first cold join's pairs, statistics and pair count.
    first: Option<(PairBits, JoinStats, usize)>,
}

impl<'a> JoinPhase<'a> {
    /// A join phase over `ctx.data`.
    pub fn new(ctx: Ctx<'a>) -> Self {
        Self {
            ctx,
            spec: spec(),
            pairs: 0,
            cold_ms: Vec::new(),
            warm_ms: Vec::new(),
            traced_cold: Vec::new(),
            untraced_cold: Vec::new(),
            prepare_mib: Vec::new(),
            first: None,
        }
    }
}

impl Steps for JoinPhase<'_> {
    /// One cold join followed by a warm re-join on its `Prepared` pair.
    fn step(&mut self, run: &mut Run) -> Result<(), Failure> {
        let (data, spec, i) = (self.ctx.data, self.spec, self.pairs);
        let mut off = Tracer::new(false);
        let trace_this = self.ctx.traced(&run.tracer, i);
        let tr = if trace_this {
            &mut run.tracer
        } else {
            &mut off
        };
        tr.next_request();

        run.attempted += 1;
        let t = Instant::now();
        let cold = tr.span("join.cold", |tr| cold_join(tr, data, &spec))?;
        let ms = ms_since(t);
        self.cold_ms.push(ms);
        if trace_this {
            self.traced_cold.push(ms);
            let bytes = cold.ps.memory_bytes() + cold.pt.memory_bytes();
            self.prepare_mib.push(bytes as f64 / 1048576.0);
            tr.span("core.probe", |_| {
                cold.engine
                    .filter_counts(&cold.ps, &cold.pt, THETA, FilterKind::UFilter)
            })
            .map_err(op_err("filter_counts"))?;
        } else {
            self.untraced_cold.push(ms);
        }

        run.attempted += 1;
        let t = Instant::now();
        let warm = tr
            .span("join.warm", |_| cold.engine.join(&cold.ps, &cold.pt, &spec))
            .map_err(op_err("warm join"))?;
        self.warm_ms.push(ms_since(t));

        // Gates, outside the timed regions.
        let cold_bits = bits(&cold.res);
        gate(bits(&warm) == cold_bits, || {
            format!("join {i}: warm pairs differ from cold pairs")
        })?;
        match &self.first {
            Some((b, _, _)) => gate(*b == cold_bits, || {
                format!("join {i}: cold pairs differ from join 0")
            })?,
            None => {
                check_recall(data, &cold.res)?;
                check_brute_force(&cold, self.ctx.sizes.brute_rows, self.ctx.seed)?;
                self.first = Some((cold_bits, cold.res.stats, cold.res.pairs.len()));
            }
        }
        black_box((cold, warm));
        self.pairs += 1;
        Ok(())
    }

    fn progress(&self) -> f64 {
        self.pairs as f64 / self.ctx.scale.min_joins.max(1) as f64
    }

    fn finish(&mut self, run: &mut Run) -> Result<(), Failure> {
        let m = &mut run.metrics;
        m.put("join_cold_s", median(&self.cold_ms).map(|v| v / 1e3), "s");
        m.put("join_warm_s", median(&self.warm_ms).map(|v| v / 1e3), "s");
        m.note_samples("join_cold_s", self.cold_ms.len());
        m.note_samples("join_warm_s", self.warm_ms.len());
        if !run.tracer.is_on() {
            return Ok(());
        }
        if self.ctx.primary {
            run.put_overhead(&self.traced_cold, &self.untraced_cold);
        }
        let tr = &run.tracer;
        let selfs = self_times_ns(tr.spans());
        let by_req = |name: &str| -> BTreeMap<u64, f64> {
            tr.spans()
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == name)
                .map(|(s, &ns)| (s.request, ns_to_ms(ns)))
                .collect()
        };
        let (intern, prepare) = (by_req("text.intern"), by_req("core.prepare"));
        let (filter_cold, probe) = (by_req("core.filter.cold"), by_req("core.probe"));
        // The cold join's `Engine::join` follows the memo-miss
        // `filter_counts`, so it is a warm join: probe + verify.
        let join = by_req("core.join");
        let (mut sig, mut verify, mut coverage) = (Vec::new(), Vec::new(), Vec::new());
        for s in tr.spans().iter().filter(|s| s.name == "join.cold") {
            let get = |m: &BTreeMap<u64, f64>| m.get(&s.request).copied();
            let (Some(a), Some(b), Some(c), Some(p), Some(j)) = (
                get(&intern),
                get(&prepare),
                get(&filter_cold),
                get(&probe),
                get(&join),
            ) else {
                continue;
            };
            let (signature, verified) = (c - p, j - p);
            sig.push(signature);
            verify.push(verified);
            coverage.push((a + b + signature + p + verified) / ns_to_ms(s.duration_ns()));
        }
        let vals = |m: &BTreeMap<u64, f64>| m.values().copied().collect::<Vec<_>>();
        let m = &mut run.metrics;
        m.put("text.intern_ms", median(&vals(&intern)), "ms");
        m.put("core.prepare_ms", median(&vals(&prepare)), "ms");
        m.put("core.prepare_mb", median(&self.prepare_mib), "MiB");
        m.put("core.signature_ms", median(&sig), "ms");
        m.put("core.probe_ms", median(&vals(&probe)), "ms");
        m.put("core.verify_ms", median(&verify), "ms");
        m.put("core.coverage", median(&coverage), "ratio");
        let Some((_, st, n_pairs)) = &self.first else {
            return Err(Failure::Op("no join ran".into()));
        };
        let data = self.ctx.data;
        let cells = (data.s.len() * data.t.len()) as f64;
        let cand = st.candidates as f64;
        m.put(
            "core.processed_pairs",
            Some(st.processed_pairs as f64),
            "count",
        );
        m.put("core.candidates", Some(cand), "count");
        m.put("core.pair_fill", Some(cand / cells), "ratio");
        m.put(
            "core.verify_yield",
            (cand > 0.0).then(|| *n_pairs as f64 / cand),
            "ratio",
        );
        let t = &st.tiers;
        for (name, v) in [
            ("core.tier.compat_rejects", t.tier0_rejects),
            ("core.tier.enum_rejects", t.enum_rejects),
            ("core.tier.rowmax_rejects", t.rowmax_rejects),
            ("core.tier.greedy_rejects", t.greedy_rejects),
            ("core.tier.tier2_rejects", t.tier2_rejects),
        ] {
            m.put(name, Some(v as f64), "count");
        }
        Ok(())
    }
}

/// Every planted pair that reaches θ must be in the result.
fn check_recall(data: &Data, res: &JoinResult) -> Result<(), Failure> {
    let got: BTreeSet<(u32, u32)> = res.pairs.iter().map(|&(s, t, _)| (s, t)).collect();
    let missed = data.truth.iter().filter(|p| !got.contains(p)).count();
    gate(missed == 0, || {
        format!(
            "recall: {missed} of {} planted pairs missing",
            data.truth.len()
        )
    })
}

/// `brute_force_join` of a seeded sample of S rows against all of T
/// equals the join restricted to those rows.
fn check_brute_force(cold: &Cold, rows: usize, seed: u64) -> Result<(), Failure> {
    let s = cold.ps.corpus();
    let mut picked = sample_indices(s.len(), rows, seed ^ 0xb7u64);
    picked.sort_unstable();
    let mut sample = Corpus::new();
    for &r in &picked {
        let rec = s.get(RecordId(r as u32));
        sample.push_tokens(rec.tokens.clone(), rec.raw.clone());
    }
    let kn = cold.engine.knowledge();
    let oracle: PairBits =
        brute_force_join(kn, cold.engine.config(), &sample, cold.pt.corpus(), THETA)
            .into_iter()
            .map(|(a, t, v)| (picked[a as usize] as u32, t, v.to_bits()))
            .collect();
    let keep: BTreeSet<u32> = picked.iter().map(|&r| r as u32).collect();
    let mut joined: PairBits = bits(&cold.res)
        .into_iter()
        .filter(|p| keep.contains(&p.0))
        .collect();
    joined.sort_unstable();
    let mut oracle = oracle;
    oracle.sort_unstable();
    gate(oracle == joined, || {
        format!(
            "brute force on {} S rows: {} oracle pairs, {} joined pairs",
            picked.len(),
            oracle.len(),
            joined.len()
        )
    })
}
