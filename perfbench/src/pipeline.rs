//! Layer-by-layer composition of the scratch build, plus the pieces the
//! workloads share: the query reader, warm starts and verdict sampling.
//!
//! [`composed_build`] calls the same public layer entry points, in the
//! same order and on the same pool, as the session's scratch build:
//! symbol budgets, per-function range and LR parts, canonical assembly,
//! the GR solve and the matrix sweep. Each call is wrapped in a span, and
//! per-function part times are measured on the workers. The traced run
//! then checks that its per-function `QueryStats` equal the untraced
//! session build's, so the per-layer numbers describe the same work.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sra_core::lr::{self, LrPart};
use sra_core::{
    pointer_values, AliasMatrix, AliasResult, AnalysisConfig, AnalysisSession, GrAnalysis,
    GrConfig, LrAnalysis, MatrixBytes, QueryStats, RbaaAnalysis, WhichTest, WorkerPool,
};
use sra_ir::{FuncId, Module, ValueId};
use sra_range::{RangeAnalysis, RangePart};

use crate::report::{median, ms, percentile, Run};

pub type Verdict = (AliasResult, Option<WhichTest>);

/// Layer counters summed over every composed build of a run.
#[derive(Debug, Default)]
pub struct Layers {
    budget_ns: u64,
    parts_ns: u64,
    range_busy_ns: u64,
    range_max_ns: u64,
    lr_busy_ns: u64,
    lr_max_ns: u64,
    assemble_ns: u64,
    gr_ns: u64,
    gr_sweeps: u64,
    gr_locs: u64,
    arena_bytes: u64,
    arena_exprs: u64,
    arena_hits: u64,
    arena_misses: u64,
    matrices_ns: u64,
    matrix_bytes: MatrixBytes,
    stats: QueryStats,
    max_fn_cells: u64,
    max_fn_ns: u64,
    threads: usize,
    /// Wall time of the composed builds.
    build_ns: u64,
}

impl Layers {
    /// Records the layer metrics on `run`.
    pub fn report(&self, run: &mut Run) {
        run.metric("budget.wall_ms", ms(self.budget_ns));
        run.metric("parts.wall_ms", ms(self.parts_ns));
        run.metric("range.busy_ms", ms(self.range_busy_ns));
        run.metric("range.max_fn_ms", ms(self.range_max_ns));
        run.metric("lr.busy_ms", ms(self.lr_busy_ns));
        run.metric("lr.max_fn_ms", ms(self.lr_max_ns));
        let capacity = self.parts_ns as f64 * self.threads.max(1) as f64;
        run.metric(
            "parts.efficiency",
            (self.range_busy_ns + self.lr_busy_ns) as f64 / capacity.max(1.0),
        );
        run.metric("assemble.wall_ms", ms(self.assemble_ns));
        run.metric("arena.mb", self.arena_bytes as f64 / 1e6);
        run.metric("arena.exprs", self.arena_exprs as f64);
        let lookups = (self.arena_hits + self.arena_misses).max(1);
        run.metric("arena.hit_ratio", self.arena_hits as f64 / lookups as f64);
        run.metric("gr.wall_ms", ms(self.gr_ns));
        run.metric("gr.sweeps", self.gr_sweeps as f64);
        run.metric("gr.locs", self.gr_locs as f64);
        run.metric("matrices.wall_ms", ms(self.matrices_ns));
        run.metric("matrices.cells", self.stats.queries as f64);
        run.metric("matrices.mb", self.matrix_bytes.packed_bytes as f64 / 1e6);
        run.metric("matrices.max_fn_cells", self.max_fn_cells as f64);
        run.metric("matrices.max_fn_ms", ms(self.max_fn_ns));
        run.metric(
            "matrices.distinct_locs_share",
            self.stats.by_distinct_locs as f64 / self.stats.queries.max(1) as f64,
        );
    }

    pub fn build_s(&self) -> f64 {
        self.build_ns as f64 / 1e9
    }
}

/// The scratch build composed from the public layer calls, traced.
/// Returns the per-function `QueryStats` of the resulting matrices.
pub fn composed_build(
    run: &mut Run,
    m: &Module,
    config: AnalysisConfig,
    pool: &WorkerPool,
    layers: &mut Layers,
) -> Vec<QueryStats> {
    let tr = &mut run.tracer;
    let nf = m.num_functions();
    let t_build = Instant::now();
    let root = tr.begin("build");

    let span = tr.begin("budget");
    let budgets: Vec<(usize, usize)> = pool.run_indexed(nf, |i| {
        let fid = FuncId::new(i);
        (
            sra_range::symbol_budget(m.function(fid), config.range),
            lr::symbol_budget(m, fid),
        )
    });
    let mut bases = Vec::with_capacity(nf);
    let (mut rb, mut lb) = (0u32, 0u32);
    for &(r, l) in &budgets {
        bases.push((rb, lb));
        rb += r as u32;
        lb += l as u32;
    }
    layers.budget_ns += tr.end(span);

    let span = tr.begin("parts");
    let parts: Vec<(RangePart, LrPart, u64, u64)> = pool.run_indexed(nf, |i| {
        let fid = FuncId::new(i);
        let t = Instant::now();
        let range = sra_range::analyze_function_part(m.function(fid), config.range, bases[i].0);
        let range_ns = elapsed_ns(t);
        let t = Instant::now();
        let lr_part = lr::analyze_function_part(m, fid, bases[i].1);
        (range, lr_part, range_ns, elapsed_ns(t))
    });
    layers.parts_ns += tr.end(span);
    let mut range_parts = Vec::with_capacity(nf);
    let mut lr_parts = Vec::with_capacity(nf);
    for (r, l, rns, lns) in parts {
        layers.range_busy_ns += rns;
        layers.range_max_ns = layers.range_max_ns.max(rns);
        layers.lr_busy_ns += lns;
        layers.lr_max_ns = layers.lr_max_ns.max(lns);
        range_parts.push(r);
        lr_parts.push(l);
    }

    let span = tr.begin("assemble");
    let ranges = tr.span("assemble.range", |_| {
        RangeAnalysis::from_parts_on(range_parts, pool)
    });
    let lr_all = tr.span("assemble.lr", |_| LrAnalysis::from_parts_on(lr_parts, pool));
    layers.assemble_ns += tr.end(span);

    let span = tr.begin("gr");
    let gr_config = GrConfig {
        threads: config.threads,
        ..config.gr
    };
    let gr = GrAnalysis::analyze_on(m, &ranges, gr_config, pool);
    layers.gr_ns += tr.end(span);
    layers.gr_sweeps += u64::from(gr.ascending_sweeps());
    layers.gr_locs += gr.locs().len() as u64;
    let rbaa = RbaaAnalysis::from_pieces(ranges, gr, lr_all);

    let span = tr.begin("matrices");
    let matrices = AliasMatrix::build_all_on(&rbaa, m, pool);
    layers.matrices_ns += tr.end(span);
    tr.end(root);
    layers.build_ns += elapsed_ns(t_build);
    layers.threads = pool.threads();

    let arena = rbaa.arena_stats();
    layers.arena_bytes += arena.bytes as u64;
    layers.arena_exprs += arena.exprs as u64;
    layers.arena_hits += arena.hits;
    layers.arena_misses += arena.misses;
    let stats: Vec<QueryStats> = matrices.iter().map(|mx| *mx.stats()).collect();
    for mx in &matrices {
        layers.matrix_bytes.merge(&mx.bytes());
        layers.stats.merge(mx.stats());
    }
    drop(matrices);

    // The largest function's matrix, built alone with the whole pool:
    // the straggler a function-chunked sweep cannot split.
    if let Some(big) = m.func_ids().max_by_key(|&f| pointer_values(m, f).len()) {
        let ptrs = pointer_values(m, big);
        let cells = (ptrs.len() * ptrs.len().saturating_sub(1) / 2) as u64;
        let span = run.tracer.begin("matrices.max_fn");
        std::hint::black_box(AliasMatrix::build_for_on(&rbaa, big, ptrs, pool));
        let took = run.tracer.end(span);
        if cells >= layers.max_fn_cells {
            layers.max_fn_cells = cells;
            layers.max_fn_ns = took;
        }
    }
    stats
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-function `QueryStats` of a matrix-mode session.
pub fn session_stats(s: &AnalysisSession) -> Vec<QueryStats> {
    s.module().func_ids().map(|f| *s.stats_of(f)).collect()
}

pub fn total(stats: &[QueryStats]) -> QueryStats {
    let mut t = QueryStats::default();
    for s in stats {
        t.merge(s);
    }
    t
}

/// Queries drawn against one snapshot before the reader re-samples.
pub const QUERIES_PER_SNAPSHOT: usize = 16;
/// Queries sharing one timed region; a lookup costs about as much as a
/// clock read, so single queries are not timed (as in `traffic.rs`).
pub const TIMED_SUB_BATCH: usize = 32;

/// What a reader measured.
#[derive(Debug, Default)]
pub struct ReaderTally {
    pub queries: u64,
    /// Amortised per-query latency of each timed sub-batch.
    pub samples_ns: Vec<f64>,
    pub busy: Duration,
}

impl ReaderTally {
    /// Records `query_p50_ns`, `query_p99_ns` and `query_kqps`.
    pub fn report(&mut self, run: &mut Run) {
        self.samples_ns.sort_by(f64::total_cmp);
        run.metric("query_p50_ns", percentile(&self.samples_ns, 0.50));
        run.metric("query_p99_ns", percentile(&self.samples_ns, 0.99));
        let secs = self.busy.as_secs_f64().max(1e-9);
        run.metric("query_kqps", self.queries as f64 / secs / 1e3);
        run.host("query_samples", self.samples_ns.len());
    }
}

/// Draws random pointer pairs from one function of `m`: the function is
/// the first with two or more pointers at or after a random start.
pub fn draw_pairs(
    m: &Module,
    rng: &mut StdRng,
    n: usize,
) -> Option<(FuncId, Vec<(ValueId, ValueId)>)> {
    let nf = m.num_functions();
    if nf == 0 {
        return None;
    }
    let start = rng.gen_range(0..nf);
    for k in 0..nf {
        let f = FuncId::new((start + k) % nf);
        let ptrs = pointer_values(m, f);
        if ptrs.len() < 2 {
            continue;
        }
        let pairs = (0..n)
            .map(|_| {
                let i = rng.gen_range(0..ptrs.len());
                let mut j = rng.gen_range(0..ptrs.len() - 1);
                if j >= i {
                    j += 1;
                }
                (ptrs[i], ptrs[j])
            })
            .collect();
        return Some((f, pairs));
    }
    None
}

/// One reader batch of `n` queries on one function, timed in sub-batches
/// of at most [`TIMED_SUB_BATCH`]. Returns the function and the pairs
/// asked.
pub fn query_batch(
    m: &Module,
    n: usize,
    rng: &mut StdRng,
    tally: &mut ReaderTally,
    mut answer: impl FnMut(FuncId, ValueId, ValueId) -> Verdict,
) -> Option<(FuncId, Vec<(ValueId, ValueId)>)> {
    let (f, pairs) = draw_pairs(m, rng, n)?;
    for chunk in pairs.chunks(TIMED_SUB_BATCH) {
        let t = Instant::now();
        for &(p, q) in chunk {
            std::hint::black_box(answer(f, p, q));
        }
        let dt = t.elapsed();
        tally.busy += dt;
        tally
            .samples_ns
            .push(dt.as_nanos() as f64 / chunk.len() as f64);
        tally.queries += chunk.len() as u64;
    }
    Some((f, pairs))
}

/// Closed-loop reads against one frozen session for `secs` seconds,
/// added to `tally`. With no snapshots to switch between, every batch is
/// one full timed sub-batch. Every answer is checked (see
/// [`count_wrong`]).
pub fn read_session(
    run: &mut Run,
    s: &AnalysisSession,
    secs: f64,
    rng: &mut StdRng,
    tally: &mut ReaderTally,
) {
    let frozen = s.freeze();
    let m = frozen.module();
    let before = tally.queries;
    let mut wrong = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < deadline {
        let answer = |f, p, q| frozen.alias_with_test(f, p, q);
        if let Some((f, pairs)) = query_batch(m, TIMED_SUB_BATCH, rng, tally, answer) {
            wrong += count_wrong(frozen.analysis(), f, &pairs, answer);
        }
    }
    let asked = tally.queries - before;
    run.ops(asked, 0);
    run.ops(asked, wrong);
    run.op(wrong == 0, || {
        format!("{wrong} answers differ from the uncached reference")
    });
}

/// Every reader checks each answer, untimed, against the uncached
/// reference path (`RbaaAnalysis::alias_with_test`) of the analysis it
/// queried. Returns the number of mismatches.
pub fn count_wrong(
    rbaa: &RbaaAnalysis,
    f: FuncId,
    pairs: &[(ValueId, ValueId)],
    answer: impl Fn(FuncId, ValueId, ValueId) -> Verdict,
) -> u64 {
    pairs
        .iter()
        .filter(|&&(p, q)| answer(f, p, q) != rbaa.alias_with_test(f, p, q))
        .count() as u64
}

/// A seeded sample of verdicts, for comparing two analyses of the same
/// module.
pub fn sample_verdicts(
    m: &Module,
    seed: u64,
    n: usize,
    answer: impl Fn(FuncId, ValueId, ValueId) -> Verdict,
) -> Vec<(FuncId, ValueId, ValueId, Verdict)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a3e_01e5);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let Some((f, pairs)) = draw_pairs(m, &mut rng, 8) else {
            break;
        };
        for (p, q) in pairs {
            out.push((f, p, q, answer(f, p, q)));
        }
    }
    out
}

/// A session snapshot written to disk, with what its loads must give.
/// Dropping it deletes the file.
#[derive(Debug)]
pub struct Saved {
    path: std::path::PathBuf,
    /// Per-function stats of a matrix-mode session (none in demand mode,
    /// which builds no matrices).
    stats: Option<Vec<QueryStats>>,
    sample: Vec<(FuncId, ValueId, ValueId, Verdict)>,
    mb: f64,
    save_ms: f64,
}

/// Records `snapshot_mb` and `persist.save_ms` of a set of snapshots saved
/// together (a later set replaces an earlier one).
pub fn report_saved(run: &mut Run, saved: &[Saved]) {
    run.metric("snapshot_mb", saved.iter().map(|s| s.mb).sum());
    run.metric("persist.save_ms", saved.iter().map(|s| s.save_ms).sum());
}

/// Saves `s` to a file under `.perfbench_out`.
pub fn save(
    run: &mut Run,
    label: &str,
    s: &AnalysisSession,
    stats: Option<Vec<QueryStats>>,
    sample: Vec<(FuncId, ValueId, ValueId, Verdict)>,
) -> Option<Saved> {
    let dir = std::path::Path::new(".perfbench_out");
    // Unique per process and call, so concurrent runs never share a file.
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!(
        "snapshot-{}-{label}-s{}-{}-{n}.bin",
        run.workload,
        run.seed,
        std::process::id()
    ));
    let span = run.tracer.begin("persist.save");
    let t = Instant::now();
    let saved = std::fs::create_dir_all(dir)
        .map_err(sra_core::PersistError::from)
        .and_then(|()| {
            let file = std::fs::File::create(&path)?;
            let mut w = std::io::BufWriter::new(file);
            s.save(&mut w)?;
            std::io::Write::flush(&mut w)?;
            Ok(())
        });
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    run.tracer.end(span);
    if !run.op(saved.is_ok() && !sample.is_empty(), || {
        format!("save {label}: {saved:?}")
    }) {
        return None;
    }
    let mb = std::fs::metadata(&path).map_or(0, |md| md.len()) as f64 / 1e6;
    Some(Saved {
        path,
        stats,
        sample,
        mb,
        save_ms,
    })
}

impl Drop for Saved {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Warm-start samples: one per round, each summed over the round's
/// snapshots.
#[derive(Debug, Default)]
pub struct WarmStarts {
    warm_s: Vec<f64>,
    load_ms: Vec<f64>,
    first_query_us: Vec<f64>,
}

impl WarmStarts {
    /// One round: loads every saved snapshot and answers one query from
    /// each; checks each loaded session against the verdicts it was saved
    /// with. Returns the loaded sessions.
    pub fn round(&mut self, run: &mut Run, saved: &[Saved]) -> Vec<AnalysisSession> {
        let mut sessions = Vec::with_capacity(saved.len());
        let (mut w, mut l, mut fq) = (0.0, 0.0, 0.0);
        for snap in saved {
            let span = run.tracer.begin("persist.warm_start");
            let t = Instant::now();
            let loaded = std::fs::File::open(&snap.path)
                .map_err(sra_core::PersistError::from)
                .and_then(|f| AnalysisSession::load(&mut std::io::BufReader::new(f)));
            let t_loaded = Instant::now();
            let session = match loaded {
                Ok(s) => s,
                Err(e) => {
                    run.tracer.end(span);
                    run.op(false, || format!("load {}: {e}", snap.path.display()));
                    continue;
                }
            };
            let (f, p, q, _) = snap.sample[0];
            std::hint::black_box(session.alias_with_test(f, p, q));
            let done = Instant::now();
            run.tracer.end(span);
            run.op(true, String::new);
            w += (done - t).as_secs_f64();
            l += (t_loaded - t).as_secs_f64() * 1e3;
            fq += (done - t_loaded).as_secs_f64() * 1e6;
            check_same_verdicts(run, "load", &session, snap.stats.as_deref(), &snap.sample);
            sessions.push(session);
        }
        self.warm_s.push(w);
        self.load_ms.push(l);
        self.first_query_us.push(fq);
        sessions
    }

    pub fn rounds(&self) -> usize {
        self.warm_s.len()
    }

    /// Records the median round.
    pub fn report(&self, run: &mut Run) {
        run.metric("warm_start_s", median(&self.warm_s));
        run.metric("persist.load_ms", median(&self.load_ms));
        run.metric("persist.first_query_us", median(&self.first_query_us));
    }
}

/// Checks that `s` gives the recorded per-function stats and sampled
/// verdicts; one operation per check.
pub fn check_same_verdicts(
    run: &mut Run,
    what: &str,
    s: &AnalysisSession,
    stats: Option<&[QueryStats]>,
    sample: &[(FuncId, ValueId, ValueId, Verdict)],
) {
    if let Some(stats) = stats {
        let same = session_stats(s) == stats;
        run.op(same, || format!("{what}: per-function QueryStats differ"));
    }
    let mut bad = 0usize;
    for &(f, p, q, v) in sample {
        let expect = run.tamper_verdict(v, (AliasResult::MayAlias, None));
        if s.alias_with_test(f, p, q) != expect {
            bad += 1;
        }
    }
    run.op(bad == 0, || {
        format!("{what}: {bad} of {} sampled verdicts differ", sample.len())
    });
}
