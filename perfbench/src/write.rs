//! The durable-write phase: a `Service::create` on a fresh file-backed
//! log (fsync per commit) runs cycles of inserts, deletes and searches,
//! each ended by a compaction.
//!
//! Crashes are simulated on copies of the log. After `Service::create`
//! and before each compaction the log is copied, cut at the WAL's
//! reported durable length; during the next cycle `Service::open`
//! recovers from that copy several times, and each recovered service is
//! checked and then compacted, so recoveries and compactions are sampled
//! across the whole run rather than in one stretch at its end. The
//! primary phase runs a fixed number of cycles and fills the rest of its
//! budget with more such recoveries. After the last cycle the service
//! "crashes" once more and is recovered from the log left by its last
//! compaction.
//!
//! The traced run also replays the mutation stream on a second `Wal`
//! (file-backed, and in memory for the encode cost) to time WAL commits
//! apart from the service's apply path, and scans each log copy with
//! `scan_log` before recovering from it.

use crate::read::{answer, reference_answers, Answer};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{gate, mix, ms_since, op_err, sample_indices, Ctx, Failure, Run, Steps, THETA};
use au_serve::{scan_log, FileStorage, MemStorage, RetryPolicy, ServeConfig, Service, Wal, WalOp};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Service configuration of the write phase: θ = 0.9, AU-DP τ = 2,
/// compaction only when asked.
pub fn config() -> ServeConfig {
    ServeConfig {
        theta: THETA,
        compact_threshold: 0,
        ..ServeConfig::default()
    }
}

/// The log a crash would leave, and what recovering from it must
/// reproduce.
struct Image {
    /// Log bytes up to the WAL's durable length.
    cut: Vec<u8>,
    /// Frames the WAL reported durable.
    frames: u64,
    /// Durable bytes the WAL reported.
    bytes: u64,
    /// Live records of the service.
    live: usize,
    /// The battery's answers of the service.
    answers: Vec<Answer>,
}

/// The write phase's state between steps.
pub struct WritePhase<'a> {
    ctx: Ctx<'a>,
    cfg: ServeConfig,
    dir: PathBuf,
    /// The durable service.
    svc: Service,
    /// The log the last cycle left before its compaction (at first, the
    /// log `Service::create` left); the cycle after it recovers from this
    /// copy.
    image: Image,
    /// The log after the last compaction, once the cycles are over.
    last: Option<Image>,
    per_cycle: usize,
    /// Inserts between two recoveries.
    recover_every: usize,
    /// Base ids in the order they are deleted.
    victims: Vec<usize>,
    battery: Vec<&'a str>,
    cycle: usize,
    /// Inserts done in the current cycle.
    p: usize,
    /// Inserts done in all, for the traced/untraced interleave.
    inserts: usize,
    deletes: usize,
    recoveries: usize,
    last_generation: u64,
    insert_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    mixed_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    /// `insert_record` with and without spans, interleaved in the traced
    /// run.
    traced_insert: Vec<f64>,
    untraced_insert: Vec<f64>,
    first16: Vec<f64>,
    last16: Vec<f64>,
    mixed_candidates: Vec<f64>,
    mixed_masked: Vec<f64>,
    compact_records: Vec<f64>,
    delta_len_max: usize,
    scan_ms: Vec<f64>,
    /// `scan_ms` minus the scan of the same recovery.
    rebuild_ms: Vec<f64>,
    scanned_frames: usize,
}

impl<'a> WritePhase<'a> {
    /// Create the durable service in a fresh directory under the run's
    /// work directory.
    pub fn new(run: &Run, ctx: Ctx<'a>) -> Result<Self, Failure> {
        let data = ctx.data;
        let dir = run.work_dir.join(if ctx.primary {
            "write-main"
        } else {
            "write-side"
        });
        let cfg = config();
        let svc = Service::create(data.kn.clone(), data.s_lines(), cfg, dir.join("svc"))
            .map_err(op_err("create"))?;
        let n_base = data.s.len();
        let per_cycle = ctx.scale.inserts_per_cycle.max(2);
        // Every delete takes a distinct live base id.
        let deletes = ctx.scale.cycles.max(1) * (per_cycle / 2);
        if deletes > n_base {
            return Err(Failure::Op(format!(
                "{deletes} deletes need more than the {n_base} base records"
            )));
        }
        let battery: Vec<&str> = sample_indices(data.t.len(), ctx.sizes.battery, ctx.seed ^ 0xba7)
            .into_iter()
            .map(|i| data.t[i].as_str())
            .collect();
        Ok(Self {
            last_generation: svc.generation(),
            image: capture(&svc, &battery, &dir)?,
            svc,
            last: None,
            recover_every: (per_cycle / ctx.scale.recoveries_per_cycle.max(1)).max(1),
            victims: sample_indices(n_base, n_base, ctx.seed ^ 0xde1),
            per_cycle,
            battery,
            ctx,
            cfg,
            dir,
            cycle: 0,
            p: 0,
            inserts: 0,
            deletes: 0,
            recoveries: 0,
            insert_ms: Vec::new(),
            delete_ms: Vec::new(),
            mixed_ms: Vec::new(),
            compact_ms: Vec::new(),
            recover_ms: Vec::new(),
            traced_insert: Vec::new(),
            untraced_insert: Vec::new(),
            first16: Vec::new(),
            last16: Vec::new(),
            mixed_candidates: Vec::new(),
            mixed_masked: Vec::new(),
            compact_records: Vec::new(),
            delta_len_max: 0,
            scan_ms: Vec::new(),
            rebuild_ms: Vec::new(),
            scanned_frames: 0,
        })
    }

    fn cycles(&self) -> usize {
        self.ctx.scale.cycles.max(1)
    }

    /// One insert (plus a delete after every 2nd one), each followed by
    /// a search, and every `recover_every` inserts a recovery from the
    /// previous cycle's log; the cycle's last insert is followed by a copy
    /// of the log and a compaction.
    fn mutate(&mut self, run: &mut Run) -> Result<(), Failure> {
        let (data, seed) = (self.ctx.data, self.ctx.seed);
        self.p += 1;
        let p = self.p;
        let slot = (self.cycle * self.per_cycle + p) as u64;
        let text = &data.t[mix(seed ^ slot) as usize % data.t.len()];
        // Inserts are traced in pairs, so the delete after every second
        // insert is traced as often as not.
        let trace_this = self.ctx.traced(&run.tracer, self.inserts / 2);
        self.inserts += 1;
        let mut off = Tracer::new(false);
        let tr = if trace_this {
            &mut run.tracer
        } else {
            &mut off
        };
        tr.next_request();
        run.attempted += 1;
        let svc = &self.svc;
        let t = Instant::now();
        let receipt = tr
            .span("serve.insert", |_| svc.insert_record(text))
            .map_err(op_err("insert"))?;
        let ms = ms_since(t);
        self.insert_ms.push(ms);
        if trace_this {
            self.traced_insert.push(ms);
            if p <= 16 {
                self.first16.push(ms);
            }
            if p + 16 > self.per_cycle {
                self.last16.push(ms);
            }
            self.delta_len_max = self.delta_len_max.max(svc.snapshot().delta_len());
        } else {
            self.untraced_insert.push(ms);
        }
        let found = self.mixed_search(run, text, receipt.generation, trace_this)?;
        gate(found.iter().any(|m| m.0 == receipt.id), || {
            format!("inserted id {} not found by its own text", receipt.id)
        })?;

        if p.is_multiple_of(2) {
            let Some(&victim) = self.victims.get(self.deletes) else {
                return Err(Failure::Op("ran out of base ids to delete".into()));
            };
            self.deletes += 1;
            let mut off = Tracer::new(false);
            let tr = if trace_this {
                &mut run.tracer
            } else {
                &mut off
            };
            tr.next_request();
            run.attempted += 1;
            let svc = &self.svc;
            let t = Instant::now();
            let receipt = tr
                .span("serve.delete", |_| svc.delete_record(victim as u64))
                .map_err(op_err("delete"))?;
            self.delete_ms.push(ms_since(t));
            let found = self.mixed_search(run, &data.s[victim], receipt.generation, trace_this)?;
            gate(!found.iter().any(|m| m.0 == victim as u64), || {
                format!("deleted id {victim} still found")
            })?;
        }

        if p.is_multiple_of(self.recover_every) {
            self.recover(run, false)?;
        }
        if p == self.per_cycle {
            self.image = capture(&self.svc, &self.battery, &self.dir)?;
            run.attempted += 1;
            run.tracer.next_request();
            let svc = &self.svc;
            let t = Instant::now();
            let generation = run
                .tracer
                .span("serve.compact", |_| svc.compact())
                .map_err(op_err("compact"))?;
            self.compact_ms.push(ms_since(t));
            let snap = svc.snapshot();
            gate(
                snap.generation() == generation && generation > self.last_generation,
                || {
                    format!(
                        "compaction published generation {generation}, snapshot at {}",
                        snap.generation()
                    )
                },
            )?;
            gate(snap.delta_len() == 0 && snap.tombstone_len() == 0, || {
                "compaction left a delta or tombstones".into()
            })?;
            self.last_generation = generation;
            self.compact_records.push(snap.live_len() as f64);
            self.cycle += 1;
            self.p = 0;
        }
        Ok(())
    }

    /// The search after a mutation: times it, checks that it was answered
    /// at the mutation's generation and that generations only grow, and
    /// returns its matches.
    fn mixed_search(
        &mut self,
        run: &mut Run,
        text: &str,
        generation: u64,
        traced: bool,
    ) -> Result<Vec<(u64, f64)>, Failure> {
        let mut off = Tracer::new(false);
        let tr = if traced { &mut run.tracer } else { &mut off };
        run.attempted += 1;
        let svc = &self.svc;
        let t = Instant::now();
        let resp = tr
            .span("serve.mixed.search", |_| svc.search(text))
            .map_err(op_err("search"))?;
        self.mixed_ms.push(ms_since(t));
        self.mixed_candidates.push(resp.candidates as f64);
        self.mixed_masked.push(resp.masked as f64);
        let last = self.last_generation;
        gate(resp.generation == generation && generation > last, || {
            format!(
                "search answered at generation {} after a mutation at {generation} (previous {last})",
                resp.generation
            )
        })?;
        self.last_generation = generation;
        Ok(resp.matches)
    }

    /// `Service::open` on a fresh copy of an image (the last one when
    /// `last`, else the previous cycle's): the recovered service must
    /// replay every written frame and answer the battery as the service
    /// did; a copy recovered mid-run is then compacted.
    fn recover(&mut self, run: &mut Run, last: bool) -> Result<(), Failure> {
        let image = if last {
            self.last.as_ref()
        } else {
            Some(&self.image)
        };
        let Some(image) = image else {
            return Err(Failure::Op("no log image to recover from".into()));
        };
        let r = self.recoveries;
        let rdir = self.dir.join(format!("recover-{r}"));
        std::fs::create_dir_all(&rdir).map_err(op_err("recover dir"))?;
        std::fs::write(rdir.join("wal.log"), &image.cut).map_err(op_err("copy log"))?;
        run.tracer.next_request();
        let mut scan = None;
        if run.tracer.is_on() {
            let t = Instant::now();
            let scanned = run
                .tracer
                .span("serve.recover.scan", |_| scan_log(&image.cut))
                .map_err(op_err("scan_log"))?;
            scan = Some(ms_since(t));
            self.scanned_frames = scanned.ops.len();
        }
        run.attempted += 1;
        let t = Instant::now();
        let kn = self.ctx.data.kn.clone();
        let recovered = run
            .tracer
            .span("serve.recover.open", |_| Service::open(kn, self.cfg, &rdir))
            .map_err(op_err("recover"))?;
        let ms = ms_since(t);
        self.recover_ms.push(ms);
        if let Some(scan) = scan {
            self.scan_ms.push(scan);
            self.rebuild_ms.push(ms - scan);
        }
        let replayed = recovered.stats().wal.replayed_frames;
        gate(replayed == image.frames, || {
            format!(
                "recovery replayed {replayed} frames, {} were written",
                image.frames
            )
        })?;
        let again: Vec<Answer> = self
            .battery
            .iter()
            .map(|q| recovered.search(q).map(|r| answer(&r.matches)))
            .collect::<Result<_, _>>()
            .map_err(op_err("recovered search"))?;
        gate(again == image.answers, || {
            format!("recovery {r}: answers differ from the service it was copied from")
        })?;
        if !last {
            run.attempted += 1;
            let t = Instant::now();
            run.tracer
                .span("serve.compact", |_| recovered.compact())
                .map_err(op_err("compact recovered"))?;
            self.compact_ms.push(ms_since(t));
            let snap = recovered.snapshot();
            gate(
                snap.delta_len() == 0 && snap.tombstone_len() == 0 && snap.live_len() == image.live,
                || format!("recovery {r}: compaction left a delta, tombstones or lost records"),
            )?;
            self.compact_records.push(snap.live_len() as f64);
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&rdir);
        self.recoveries += 1;
        Ok(())
    }
}

impl Steps for WritePhase<'_> {
    /// One mutation of the fixed cycles.
    fn step(&mut self, run: &mut Run) -> Result<(), Failure> {
        self.mutate(run)
    }

    /// One recovery from the last cycle's log: the work is the same
    /// however many of them fit the budget.
    fn fill(&mut self, run: &mut Run) -> Result<(), Failure> {
        self.recover(run, false)
    }

    fn progress(&self) -> f64 {
        let need = (self.cycles() * self.per_cycle).max(1) as f64;
        let done = self.inserts as f64 / need;
        // A cycle, once begun, is finished.
        if self.p > 0 {
            done.min(0.999)
        } else {
            done
        }
    }

    /// Check the live service against a monolithic prepare, "crash" it
    /// and recover once from the log its last compaction left; then
    /// record the metrics.
    fn finish(&mut self, run: &mut Run) -> Result<(), Failure> {
        gate(self.cycle == self.cycles() && self.p == 0, || {
            format!(
                "write phase ended in cycle {} at insert {}",
                self.cycle, self.p
            )
        })?;
        let last = capture(&self.svc, &self.battery, &self.dir)?;
        gate(
            last.answers == reference_answers(&self.svc, &self.battery)?,
            || "post-compaction answers differ from a monolithic searcher".into(),
        )?;
        self.last = Some(last);
        self.recover(run, true)?;

        let m = &mut run.metrics;
        m.put("insert_p50_ms", percentile(&self.insert_ms, 0.50), "ms");
        m.put("insert_p90_ms", percentile(&self.insert_ms, 0.90), "ms");
        m.put("delete_p50_ms", percentile(&self.delete_ms, 0.50), "ms");
        m.put("delete_p90_ms", percentile(&self.delete_ms, 0.90), "ms");
        m.put(
            "mixed_search_p50_ms",
            percentile(&self.mixed_ms, 0.50),
            "ms",
        );
        m.put("compact_s", median(&self.compact_ms).map(|v| v / 1e3), "s");
        m.put("recover_s", median(&self.recover_ms).map(|v| v / 1e3), "s");
        for (names, n) in [
            (
                &["insert_p50_ms", "insert_p90_ms"][..],
                self.insert_ms.len(),
            ),
            (&["delete_p50_ms", "delete_p90_ms"], self.delete_ms.len()),
            (&["mixed_search_p50_ms"], self.mixed_ms.len()),
            (&["compact_s"], self.compact_ms.len()),
            (&["recover_s"], self.recover_ms.len()),
        ] {
            for name in names {
                m.note_samples(name, n);
            }
        }
        if !run.tracer.is_on() {
            return Ok(());
        }
        if self.ctx.primary {
            run.put_overhead(&self.traced_insert, &self.untraced_insert);
        }
        let Some(last) = &self.last else {
            return Err(Failure::Op("write phase never crashed".into()));
        };
        let scanned = scan_log(&last.cut).map_err(op_err("scan_log"))?;
        let n_base = self.ctx.data.s.len().min(scanned.ops.len());
        let mutations = &scanned.ops[n_base..];
        let wal = replay_wal(&mut run.tracer, mutations, &self.dir.join("replay"))?;
        let user_bytes: usize = scanned
            .ops
            .iter()
            .map(|op| match op {
                WalOp::Insert { text, .. } => text.len(),
                _ => 0,
            })
            .sum();
        let traced_insert_ms = run.tracer.durations_ms("serve.insert");
        let traced_delete_ms = run.tracer.durations_ms("serve.delete");
        let diff = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a - b);
        let per_user_byte = (user_bytes > 0).then(|| last.bytes as f64 / user_bytes as f64);
        let m = &mut run.metrics;
        m.put("serve.wal.encode_us", median(&wal.encode_us), "us");
        m.put("serve.wal.commit_ms", median(&wal.commit_ms), "ms");
        m.put("serve.wal.frames", Some(last.frames as f64), "count");
        m.put("serve.wal.bytes_per_user_byte", per_user_byte, "ratio");
        let insert_apply = diff(median(&traced_insert_ms), median(&wal.insert_commit_ms));
        let delete_apply = diff(median(&traced_delete_ms), median(&wal.delete_commit_ms));
        m.put("serve.insert.apply_ms", insert_apply, "ms");
        m.put("serve.delete.apply_ms", delete_apply, "ms");
        let (first, last) = (median(&self.first16), median(&self.last16));
        m.put("serve.insert.first16_ms", first, "ms");
        m.put("serve.insert.last16_ms", last, "ms");
        m.put(
            "serve.insert.growth",
            last.zip(first).map(|(l, f)| l / f),
            "ratio",
        );
        m.put(
            "serve.compact.records",
            median(&self.compact_records),
            "count",
        );
        m.put("serve.recover.scan_ms", median(&self.scan_ms), "ms");
        m.put(
            "serve.recover.frames",
            Some(self.scanned_frames as f64),
            "count",
        );
        m.put("serve.recover.rebuild_ms", median(&self.rebuild_ms), "ms");
        m.put(
            "serve.mixed.candidates_per_query",
            mean(&self.mixed_candidates),
            "count",
        );
        m.put(
            "serve.mixed.masked_per_query",
            mean(&self.mixed_masked),
            "count",
        );
        m.put(
            "serve.delta_len_max",
            Some(self.delta_len_max as f64),
            "count",
        );
        Ok(())
    }
}

/// What a crash of `svc` (logging under `dir`) now would leave: the log
/// bytes up to the WAL's durable length, and the battery's answers.
fn capture(svc: &Service, battery: &[&str], dir: &Path) -> Result<Image, Failure> {
    let answers: Vec<Answer> = battery
        .iter()
        .map(|q| svc.search(q).map(|r| answer(&r.matches)))
        .collect::<Result<_, _>>()
        .map_err(op_err("battery search"))?;
    let wal = svc.stats().wal;
    let log = std::fs::read(dir.join("svc").join("wal.log")).map_err(op_err("read log"))?;
    let durable = usize::try_from(wal.bytes).map_err(op_err("durable length"))?;
    gate(durable <= log.len(), || {
        format!("durable length {durable} beyond the {}-byte log", log.len())
    })?;
    Ok(Image {
        cut: log[..durable].to_vec(),
        frames: wal.frames,
        bytes: wal.bytes,
        live: svc.snapshot().live_len(),
        answers,
    })
}

/// Append times of the replayed mutation stream.
#[derive(Debug, Default)]
struct WalTimes {
    /// In-memory appends (encode + copy), µs.
    encode_us: Vec<f64>,
    /// File appends (encode + write + fsync) of every frame, ms.
    commit_ms: Vec<f64>,
    /// File appends of insert frames, ms.
    insert_commit_ms: Vec<f64>,
    /// File appends of delete frames, ms.
    delete_commit_ms: Vec<f64>,
}

/// Replay `ops` on a second file-backed `Wal` (encode + write + fsync per
/// op) and on an in-memory one (encode + copy), timing every append.
fn replay_wal(tr: &mut Tracer, ops: &[WalOp], dir: &Path) -> Result<WalTimes, Failure> {
    let storage = FileStorage::open(dir.join("wal.log")).map_err(op_err("replay log"))?;
    let (mut file_wal, _) =
        Wal::open(Box::new(storage), RetryPolicy::default()).map_err(op_err("replay wal"))?;
    let (mut mem_wal, _) = Wal::open(Box::new(MemStorage::new()), RetryPolicy::default())
        .map_err(op_err("memory wal"))?;
    let mut times = WalTimes::default();
    for op in ops {
        tr.next_request();
        let t = Instant::now();
        tr.span("serve.wal.encode", |_| mem_wal.append_op(op))
            .map_err(op_err("memory append"))?;
        times.encode_us.push(ms_since(t) * 1e3);
        let t = Instant::now();
        tr.span("serve.wal.commit", |_| file_wal.append_op(op))
            .map_err(op_err("replay append"))?;
        let ms = ms_since(t);
        times.commit_ms.push(ms);
        match op {
            WalOp::Insert { .. } => times.insert_commit_ms.push(ms),
            WalOp::Delete { .. } => times.delete_commit_ms.push(ms),
            _ => {}
        }
    }
    gate(file_wal.stats().frames == ops.len() as u64, || {
        "replayed log lost frames".into()
    })?;
    Ok(times)
}
