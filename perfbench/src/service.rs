//! `source_service`: an `AliasService` in demand mode hosting four
//! source-backed tenants, with one open-loop writer editing their text
//! and one closed-loop reader querying their snapshots.
//!
//! This is the only workload that runs the mini-C frontend, incremental
//! session edits, demand queries and snapshot publishing. The run is cut
//! into segments of serving followed by scratch builds and warm starts of
//! the tenants as they stand. At the end each tenant's final epoch is
//! checked against a scratch analysis of its final text, compiled from
//! scratch.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sra_core::{
    analyze_parallel, pointer_values, AliasService, AnalysisConfig, AnalysisSession, EpochSnapshot,
    QueryMode, QueryStats, SessionStats, WorkerPool,
};
use sra_ir::Module;
use sra_lang::{SourceDiff, SourceProgram};
use sra_workloads::source_edits::{self, SourceEditStep};
use sra_workloads::traffic::{mix_seed, tenant_name, ZipfSampler};

use crate::ir;
use crate::pipeline::{self, Layers, ReaderTally, Verdict};
use crate::report::{median, percentile, Run};

const TENANTS: usize = 4;
/// Open-loop edit rate. An edit costs about 50 ms at 10k instructions
/// with one analysis thread on a 2-core host (frontend diff 28 ms,
/// session update 19 ms, freeze 5 ms) and about twice that when the host
/// runs slow, so the writer is a quarter to half busy. At 10 edits/s a
/// slow host saturated the writer and queueing, not the edit path, set
/// the latency.
const EDITS_PER_SEC: f64 = 5.0;
/// Tenant popularity skew for the reader (as in `traffic.rs`).
const ZIPF_S: f64 = 1.1;
/// Reader batches sent, closed loop, after each publish (and at the start
/// of every segment). A fresh epoch starts with an empty demand cache, so
/// the share of batches that meet a cold cache depends on how many
/// batches each epoch serves. A reader that ran flat out would serve more
/// of them per epoch when the host ran fast, and its latency percentiles
/// would move with the host's speed twice over; a fixed count per publish
/// makes that share a property of the seed. 256 batches take about 25 ms
/// (checks included) against 200 ms between edits.
const BATCHES_PER_PUBLISH: usize = 256;
const ROLE_TENANT: u64 = 11;
const ROLE_READER: u64 = 12;
/// Serving alternates with scratch builds and warm starts in this many
/// segments, so that those samples, like the edits and queries, spread
/// over the whole run (the host's speed drifts over seconds). Each
/// segment serves for three quarters of its time.
const SEGMENTS: usize = 3;

/// What the reader measured and checked, over every segment.
#[derive(Default)]
struct ReaderOut {
    tally: ReaderTally,
    /// The newest epoch seen of each tenant.
    last: [u64; TENANTS],
    /// Snapshots older than one the reader had already seen.
    violations: u64,
    /// Snapshot lookup times (traced runs only).
    snapshot_ns: Vec<f64>,
    /// Answers compared with the uncached reference, and mismatches.
    checked: u64,
    wrong: u64,
}

/// What the writer did with one edit.
struct EditOutcome {
    tenant: usize,
    step: usize,
    /// From when the edit was due to when its epoch was published.
    latency_ms: f64,
    /// How late the writer started it.
    lag_ms: f64,
    epoch: Option<u64>,
}

/// A tenant's published snapshot and its source text.
type TenantState = (Arc<EpochSnapshot>, String);

pub fn run(run: &mut Run) {
    let due = (EDITS_PER_SEC * 0.75 * run.seconds).ceil() as usize;
    let Some(Tenants {
        texts,
        streams,
        service,
    }) = run.setup(|run| setup(run, due))
    else {
        return;
    };
    run.host("tenants", TENANTS);
    run.host("edit_rate_per_s", EDITS_PER_SEC);
    run.host("edits_due", due);
    run.host("threads_requested", service.config().threads);
    run.host("threads_effective", 1);
    run.host("load_threads", 2);
    run.host("reader_batches_per_publish", BATCHES_PER_PUBLISH);
    run.host("segments", SEGMENTS);

    let traced = run.traced();
    let window = Duration::from_secs_f64(0.25 * run.seconds / SEGMENTS as f64);
    let mut rng = StdRng::seed_from_u64(mix_seed(run.seed, ROLE_READER, 0));
    let mut outcomes = Vec::with_capacity(due);
    let mut reader = ReaderOut::default();
    let mut scratch = Scratch::default();
    let mut built = Vec::new();
    for seg in 0..SEGMENTS {
        let edits = seg * due / SEGMENTS..(seg + 1) * due / SEGMENTS;
        serve(
            &service,
            &streams,
            edits,
            &mut rng,
            traced,
            &mut outcomes,
            &mut reader,
        );
        let Some(tenants) = tenant_states(run, &service) else {
            return;
        };
        let saved = save_tenants(run, &service, &tenants);
        pipeline::report_saved(run, &saved);
        let Some(b) = scratch.rounds(run, &tenants, &saved, window) else {
            return;
        };
        built = b;
    }
    scratch.warm.report(run);
    run.metric("build_s", median(&scratch.builds));

    run.ops(reader.tally.queries, 0);
    run.ops(reader.checked, reader.wrong);
    run.op(reader.wrong == 0, || {
        format!(
            "{} answers differ from the uncached reference",
            reader.wrong
        )
    });
    let violations = reader.violations;
    run.op(violations == 0, || {
        format!("{violations} epochs went backwards")
    });

    let mut latencies: Vec<f64> = Vec::new();
    let mut lags = Vec::new();
    let mut accepted = [0u64; TENANTS];
    let mut last_step: [Option<usize>; TENANTS] = [None; TENANTS];
    for o in &outcomes {
        if run.op(o.epoch.is_some(), || {
            format!("edit {} of tenant {}", o.step, o.tenant)
        }) {
            accepted[o.tenant] += 1;
            last_step[o.tenant] = Some(o.step);
            latencies.push(o.latency_ms);
            lags.push(o.lag_ms);
        }
    }
    latencies.sort_by(f64::total_cmp);
    run.metric("edit_p50_ms", percentile(&latencies, 0.5));
    run.metric("edit_p90_ms", percentile(&latencies, 0.9));
    run.metric(
        "loadgen.lag_ms",
        lags.iter().sum::<f64>() / lags.len().max(1) as f64,
    );
    reader.tally.report(run);
    run.metric("service.snapshot_ns", median(&reader.snapshot_ns));
    run.metric("service.monotone_violations", violations as f64);

    // Final epochs: one per accepted edit, each tenant at its last text.
    let Some(finals) = tenant_states(run, &service) else {
        return;
    };
    let mut epochs = 0u64;
    for (i, (snap, text)) in finals.iter().enumerate() {
        let name = tenant_name(i);
        epochs += snap.epoch();
        run.op(snap.epoch() == accepted[i], || {
            format!("{name}: epoch {} after {} edits", snap.epoch(), accepted[i])
        });
        let expect_text = last_step[i].map_or(texts[i].as_str(), |k| streams[i][k].text.as_str());
        run.op(text == expect_text, || {
            format!("{name}: source text out of step")
        });
    }
    run.metric("service.epochs", epochs as f64);

    // Demand-cache replay against the final snapshots.
    if traced {
        let span = run.tracer.begin("demand.replay");
        let (mut queries, mut misses) = (0usize, 0usize);
        for (snap, _) in &finals {
            let rbaa = snap.frozen().analysis();
            let mut cache = rbaa.demand_cache();
            let mut rng = StdRng::seed_from_u64(mix_seed(run.seed, ROLE_READER, 2));
            for _ in 0..64 {
                if let Some((f, pairs)) =
                    pipeline::draw_pairs(snap.module(), &mut rng, pipeline::QUERIES_PER_SNAPSHOT)
                {
                    for (p, q) in pairs {
                        std::hint::black_box(cache.query(rbaa, f, p, q));
                    }
                }
            }
            queries += cache.stats().queries;
            misses += cache.stats().pair_misses;
        }
        run.tracer.end(span);
        run.metric(
            "demand.hit_ratio",
            1.0 - misses as f64 / queries.max(1) as f64,
        );
        run.metric("demand.pair_misses", misses as f64);
    }

    final_check(run, &finals, &built, median(&scratch.builds));
    if traced {
        replay_sessions(run, &texts, &streams, &last_step);
    }
}

/// What set-up prepares for the measured part of a run.
struct Tenants {
    texts: Vec<String>,
    streams: Vec<Vec<SourceEditStep>>,
    service: AliasService,
}

/// Set-up: each tenant's initial text and edit stream, and the service
/// with every tenant registered and queried once.
fn setup(run: &Run, due: usize) -> Result<Tenants, String> {
    let per_tenant = due.div_ceil(TENANTS);
    let mut texts = Vec::with_capacity(TENANTS);
    let mut streams: Vec<Vec<SourceEditStep>> = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let mut w = source_edits::generate_sized_workload(
            run.scale.service_insts,
            mix_seed(run.seed, ROLE_TENANT, i as u64),
        );
        texts.push(w.text());
        streams.push(w.edit_stream(per_tenant));
    }
    let config = AnalysisConfig::builder()
        .threads(1)
        .query_mode(QueryMode::Demand)
        .build();
    let service = AliasService::with_config(config);
    let mut rng = StdRng::seed_from_u64(mix_seed(run.seed, ROLE_READER, 1));
    let mut warmup = ReaderTally::default();
    for (i, text) in texts.iter().enumerate() {
        let name = tenant_name(i);
        service
            .add_tenant_source(&name, text)
            .map_err(|e| format!("add tenant {name}: {e}"))?;
        let snap = service.snapshot(&name).map_err(|e| e.to_string())?;
        pipeline::query_batch(
            snap.module(),
            pipeline::QUERIES_PER_SNAPSHOT,
            &mut rng,
            &mut warmup,
            |f, p, q| snap.alias_with_test(f, p, q),
        );
    }
    Ok(Tenants {
        texts,
        streams,
        service,
    })
}

/// One serving segment: an open-loop writer applying the edits of
/// `edits` (edit `k` goes to tenant `k % TENANTS`) and a reader, on two
/// threads. The writer signals each publish; the reader answers the
/// segment's start and every signal with [`BATCHES_PER_PUBLISH`]
/// closed-loop batches, then waits for the next one.
fn serve(
    service: &AliasService,
    streams: &[Vec<SourceEditStep>],
    edits: Range<usize>,
    rng: &mut StdRng,
    traced: bool,
    outcomes: &mut Vec<EditOutcome>,
    reader: &mut ReaderOut,
) {
    let (published, signals) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let start = Instant::now();
            let first = edits.start;
            for k in edits {
                let (tenant, step) = (k % TENANTS, k / TENANTS);
                let due_at = start + Duration::from_secs_f64((k - first) as f64 / EDITS_PER_SEC);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                let epoch = service
                    .edit_tenant_source(&tenant_name(tenant), &streams[tenant][step].text)
                    .ok();
                let done = Instant::now();
                // The reader outlives the writer, so the send cannot fail.
                let _ = published.send(());
                outcomes.push(EditOutcome {
                    tenant,
                    step,
                    latency_ms: (done - due_at).as_secs_f64() * 1e3,
                    lag_ms: began.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                    epoch,
                });
            }
        });
        let zipf = ZipfSampler::new(TENANTS, ZIPF_S);
        // One burst at the start, then one per publish until the writer
        // finishes and drops its end of the channel.
        for () in std::iter::once(()).chain(signals.iter()) {
            for _ in 0..BATCHES_PER_PUBLISH {
                let t = zipf.sample(rng);
                let began = Instant::now();
                let Ok(snap) = service.snapshot(&tenant_name(t)) else {
                    continue;
                };
                if traced {
                    reader.snapshot_ns.push(began.elapsed().as_nanos() as f64);
                }
                if snap.epoch() < reader.last[t] {
                    reader.violations += 1;
                }
                reader.last[t] = reader.last[t].max(snap.epoch());
                let asked = pipeline::query_batch(
                    snap.module(),
                    pipeline::QUERIES_PER_SNAPSHOT,
                    rng,
                    &mut reader.tally,
                    |f, p, q| snap.alias_with_test(f, p, q),
                );
                if let Some((f, pairs)) = asked {
                    reader.checked += pairs.len() as u64;
                    reader.wrong +=
                        pipeline::count_wrong(snap.frozen().analysis(), f, &pairs, |f, p, q| {
                            snap.alias_with_test(f, p, q)
                        });
                }
            }
        }
        writer.join().expect("writer thread panicked");
    });
}

/// Every tenant's published snapshot and current source text.
fn tenant_states(run: &mut Run, service: &AliasService) -> Option<Vec<TenantState>> {
    let mut out = Vec::with_capacity(TENANTS);
    for i in 0..TENANTS {
        let name = tenant_name(i);
        let snap = service.snapshot(&name);
        let text = service
            .with_writer(&name, |w| w.source_text().map(str::to_owned))
            .ok()
            .flatten();
        match (snap, text) {
            (Ok(snap), Some(text)) => out.push((snap, text)),
            _ => {
                run.op(false, || format!("tenant {name} vanished"));
                return None;
            }
        }
    }
    Some(out)
}

/// Saves every tenant's session, with a sample of its snapshot's
/// verdicts for the warm starts to check.
fn save_tenants(
    run: &mut Run,
    service: &AliasService,
    tenants: &[TenantState],
) -> Vec<pipeline::Saved> {
    let mut saved = Vec::with_capacity(TENANTS);
    for (i, (snap, _)) in tenants.iter().enumerate() {
        let sample = pipeline::sample_verdicts(snap.module(), run.seed, 2_000, |f, p, q| {
            snap.alias_with_test(f, p, q)
        });
        let label = tenant_name(i);
        let s = service.with_writer(&label, |w| {
            pipeline::save(run, &label, w.session(), None, sample)
        });
        if let Ok(Some(s)) = s {
            saved.push(s);
        }
    }
    saved
}

/// Scratch builds and warm starts, taken at the end of every segment.
#[derive(Default)]
struct Scratch {
    /// Wall time of each round's matrix-mode builds of all tenants.
    builds: Vec<f64>,
    warm: pipeline::WarmStarts,
}

impl Scratch {
    /// Rounds of {scratch matrix-mode session builds of every tenant's
    /// text, compiled with `sra_lang::compile`; warm starts of every saved
    /// tenant session} for `window`, at least one. Returns each module with
    /// its per-function stats, which every round must repeat.
    fn rounds(
        &mut self,
        run: &mut Run,
        tenants: &[TenantState],
        saved: &[pipeline::Saved],
        window: Duration,
    ) -> Option<Vec<(Module, Vec<QueryStats>)>> {
        let config = ir::config(run.nproc);
        let mut built = Vec::with_capacity(tenants.len());
        for (_, text) in tenants {
            match sra_lang::compile(text) {
                Ok(m) => built.push((m, Vec::new())),
                Err(e) => {
                    run.op(false, || format!("tenant text does not compile: {e}"));
                    return None;
                }
            }
        }
        let began = Instant::now();
        let mut first = true;
        while first || began.elapsed() < window {
            first = false;
            let mut round_s = 0.0;
            for (module, stats) in &mut built {
                let input = module.clone();
                let t = Instant::now();
                let session = AnalysisSession::with_config(input, config);
                round_s += t.elapsed().as_secs_f64();
                match session {
                    Ok(s) => {
                        let got = pipeline::session_stats(&s);
                        let same = stats.is_empty() || *stats == got;
                        run.op(same, || {
                            "a repeated scratch build gave different QueryStats".into()
                        });
                        *stats = got;
                    }
                    Err(e) => {
                        run.op(false, || format!("scratch build: {e}"));
                        return None;
                    }
                }
            }
            self.builds.push(round_s);
            drop(self.warm.round(run, saved));
        }
        Some(built)
    }
}

/// Each tenant's final epoch against a scratch analysis of its final
/// text compiled from scratch, on a sample of pairs (functions matched by
/// name, since a fresh compile numbers functions in text order). Records
/// `no_alias_pct` of the final modules; traced runs also compose their
/// build layer by layer and compare it with `build_s`.
fn final_check(
    run: &mut Run,
    finals: &[TenantState],
    built: &[(Module, Vec<QueryStats>)],
    build_s: f64,
) {
    let config = ir::config(run.nproc);
    let pool = WorkerPool::new(config.threads);
    let mut totals = QueryStats::default();
    let mut layers = Layers::default();
    for ((snap, text), (module, stats)) in finals.iter().zip(built) {
        // The last segment built the texts the tenants still hold.
        let current = sra_lang::compile(text).is_ok_and(|m| m == *module);
        run.op(current, || {
            "final text differs from the last scratch build".into()
        });
        totals.merge(&pipeline::total(stats));
        if run.traced() {
            let composed = pipeline::composed_build(run, module, config, &pool, &mut layers);
            run.op(composed == *stats, || {
                "composed layer pipeline differs from the session build".into()
            });
        }

        let reference = analyze_parallel(module, config);
        let by_name: HashMap<&str, sra_ir::FuncId> = module
            .func_ids()
            .map(|f| (module.function(f).name(), f))
            .collect();
        let live = snap.module();
        let sample = pipeline::sample_verdicts(live, run.seed, 2_000, |f, p, q| {
            snap.alias_with_test(f, p, q)
        });
        let mut bad = 0usize;
        for (f, p, q, verdict) in sample.iter().copied() {
            let name = live.function(f).name();
            let want: Option<Verdict> = by_name.get(name).and_then(|&g| {
                (pointer_values(live, f) == pointer_values(module, g))
                    .then(|| reference.alias_with_test(g, p, q))
            });
            let verdict = run.tamper_verdict(verdict, (sra_core::AliasResult::MayAlias, None));
            if want != Some(verdict) {
                bad += 1;
            }
        }
        run.op(bad == 0, || {
            format!(
                "{bad} of {} sampled verdicts differ from scratch",
                sample.len()
            )
        });
    }
    run.metric("no_alias_pct", totals.percent_no_alias());
    if run.traced() {
        layers.report(run);
        run.metric(
            "trace.overhead_pct",
            100.0 * (layers.build_s() - build_s) / build_s,
        );
    }
}

/// Replays the edits each tenant accepted on a standalone
/// `SourceProgram` plus `AnalysisSession`, timing the frontend diff, the
/// session update and the freeze separately.
fn replay_sessions(
    run: &mut Run,
    texts: &[String],
    streams: &[Vec<SourceEditStep>],
    last_step: &[Option<usize>],
) {
    let config = AnalysisConfig::builder()
        .threads(1)
        .query_mode(QueryMode::Demand)
        .build();
    let (mut compile_ms, mut lang_ms, mut apply_ms, mut freeze_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut relowered = 0usize;
    let mut stats = SessionStats::default();
    for (i, text) in texts.iter().enumerate() {
        let span = run.tracer.begin("lang.compile");
        let t = Instant::now();
        let program = SourceProgram::new(text);
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run.tracer.end(span);
        let Ok(mut program) = program else {
            run.op(false, || {
                format!("tenant {i}: initial text does not compile")
            });
            continue;
        };
        let Ok(mut session) = AnalysisSession::with_config(program.module().clone(), config) else {
            run.op(false, || format!("tenant {i}: replay session build failed"));
            continue;
        };
        let steps = last_step[i].map_or(0, |k| k + 1);
        for step in &streams[i][..steps] {
            let root = run.tracer.begin("replay.edit");
            let span = run.tracer.begin("lang.apply_edit");
            let t = Instant::now();
            let diff = program.apply_edit(&step.text);
            lang_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.tracer.end(span);
            let Ok(diff) = diff else {
                run.tracer.end(root);
                run.op(false, || {
                    format!("tenant {i}: replayed edit does not compile")
                });
                continue;
            };
            relowered += match &diff {
                SourceDiff::Noop => 0,
                SourceDiff::Incremental { relowered, .. } => *relowered,
                SourceDiff::FullRebuild { .. } => program.num_units(),
            };
            let span = run.tracer.begin("session.apply");
            let t = Instant::now();
            let applied = session.apply_source_edit(diff);
            apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.tracer.end(span);
            run.op(applied.is_ok(), || {
                format!("tenant {i}: replayed edit rejected")
            });
            let span = run.tracer.begin("session.freeze");
            let t = Instant::now();
            std::hint::black_box(session.freeze());
            freeze_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.tracer.end(span);
            run.tracer.end(root);
        }
        ir::add_reuse(&mut stats, session.stats());
    }
    run.metric("lang.compile_ms", median(&compile_ms));
    run.metric("lang.apply_edit_ms", median(&lang_ms));
    run.metric(
        "lang.units_relowered",
        relowered as f64 / lang_ms.len().max(1) as f64,
    );
    run.metric("session.apply_ms", median(&apply_ms));
    run.metric("session.freeze_ms", median(&freeze_ms));
    ir::report_reuse(run, &stats);
}
