//! The two build workloads, `flat_500k` and `deep_callgraph`: generated IR
//! modules analysed from scratch by an `AnalysisSession` in matrix mode,
//! then served, saved, warm-started and edited.
//!
//! Phases, in order: a timed build whose session is saved, then rounds of
//! {warm start, reads against the loaded matrices, one single-function
//! edit of the loaded session} until the run's time is up, with another
//! scratch build before every second round.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sra_core::{
    pointer_values, AliasResult, AnalysisConfig, AnalysisSession, QueryMode, QueryStats,
    SessionEdit, SessionStats, WhichTest, WorkerPool,
};
use sra_interp::Interp;
use sra_ir::{FuncId, Module, ValueId};
use sra_workloads::{edits, scaling};

use crate::pipeline::{self, Layers};
use crate::report::{median, percentile, Run};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Flat,
    Deep,
}

/// Where the pinned `deep_callgraph` counts live, relative to the
/// checkout root the benchmark runs from.
pub const PINNED_PATH: &str = "perfbench/expected/deep_callgraph.txt";

pub fn generate(kind: Kind, run: &Run) -> Module {
    match kind {
        Kind::Flat => scaling::generate_module(run.scale.flat_insts, run.seed),
        Kind::Deep => scaling::generate_call_graph_module(run.scale.deep_funcs, run.seed),
    }
}

pub fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .query_mode(QueryMode::Matrix)
        .build()
}

/// What set-up prepares for the measured part of a run.
struct Inputs {
    m: Module,
    stream: Vec<edits::Edit>,
    /// Stats of the untimed warm-up build (`deep_callgraph` only).
    reference: Option<Vec<QueryStats>>,
}

/// Set-up: the module, its edit stream and (for `deep_callgraph`) the
/// stats of an untimed warm-up build, which later builds must match.
fn setup(run: &Run, kind: Kind, config: AnalysisConfig) -> Result<Inputs, String> {
    let m = generate(kind, run);
    let stream = edits::generate_replace_stream(&m, Plan::of(kind).edit_stream, run.seed);
    // A flat build would add seconds to every one of the repeated
    // set-ups, so only deep_callgraph warms up.
    let reference = match kind {
        Kind::Flat => None,
        Kind::Deep => {
            let s = AnalysisSession::with_config(m.clone(), config)
                .map_err(|e| format!("warm-up build: {e}"))?;
            Some(pipeline::session_stats(&s))
        }
    };
    Ok(Inputs {
        m,
        stream,
        reference,
    })
}

/// What one measurement round of a build workload does.
struct Plan {
    /// Replacement edits generated in set-up; rounds cycle through them.
    /// Each costs a module verification there, so the stream is about as
    /// long as a run's rounds.
    edit_stream: usize,
    /// Warm starts per round (the last loaded session is read and edited).
    loads: usize,
    /// Closed-loop reads against the loaded matrices, in seconds.
    burst_s: f64,
}

impl Plan {
    fn of(kind: Kind) -> Plan {
        match kind {
            Kind::Flat => Plan {
                edit_stream: 8,
                loads: 2,
                burst_s: 1.0,
            },
            Kind::Deep => Plan {
                edit_stream: 32,
                loads: 3,
                burst_s: 0.1,
            },
        }
    }
}

pub fn run(run: &mut Run, kind: Kind) {
    let config = config(run.nproc);
    let pool = WorkerPool::new(config.threads);
    let Some(Inputs {
        m,
        stream,
        mut reference,
    }) = run.setup(|run| setup(run, kind, config))
    else {
        return;
    };
    run.host("insts", m.num_insts());
    run.host("functions", m.num_functions());
    run.host("threads_requested", config.threads);
    run.host("threads_effective", pool.threads());

    // The measured part of the run starts with the first timed build: its
    // stats are the reference for every later build and load, and its
    // session is the one saved.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let mut builds = Vec::new();
    let Some(first) = build(run, &m, config, &mut builds) else {
        return;
    };
    let built_stats = pipeline::session_stats(&first);
    if let Some(r) = reference.take() {
        run.op(r == built_stats, || {
            "the timed build differs from the warm-up".into()
        });
    }
    let totals = pipeline::total(&built_stats);
    run.metric("no_alias_pct", totals.percent_no_alias());
    if kind == Kind::Deep {
        check_pinned(run, &totals);
    }
    if run.traced() {
        demand_replay(run, &first);
    }
    let sample = pipeline::sample_verdicts(&m, run.seed, 20_000, |f, p, q| {
        first.alias_with_test(f, p, q)
    });
    let claims = match kind {
        Kind::Flat => oracle_claims(&first, run.scale.oracle_claims, run.seed),
        Kind::Deep => Vec::new(),
    };
    let saved = pipeline::save(run, "main", &first, Some(built_stats.clone()), sample);
    drop(first);
    let Some(saved) = saved else { return };
    let saved = [saved];
    pipeline::report_saved(run, &saved);

    // Measurement rounds until the run's time is up (at least
    // `min_rounds`), so that every metric's samples spread over the whole
    // run (the host's speed drifts over seconds): warm starts, a burst of
    // reads against the last loaded matrices and one single-function edit
    // of that session, with a scratch build before every second round.
    // An edit re-solves GR and costs most of a build, and single edits
    // spread by ±20 % on a small host, so rounds favour edits over builds.
    // Replace edits keep every signature, so each one is valid on its own
    // against the saved module; each round applies the next edit of the
    // stream.
    let min_rounds = match kind {
        Kind::Flat => run.scale.flat_rounds,
        Kind::Deep => run.scale.deep_rounds,
    };
    let plan = Plan::of(kind);
    let mut round = 0;
    let mut warm = pipeline::WarmStarts::default();
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x007e_ade7);
    let mut tally = pipeline::ReaderTally::default();
    let mut edit_ms = Vec::new();
    let mut freeze_ms = Vec::new();
    let mut reuse = SessionStats::default();
    while round < min_rounds || Instant::now() < deadline {
        round += 1;
        if round % 2 == 0 {
            match build(run, &m, config, &mut builds) {
                Some(s) => {
                    let same = pipeline::session_stats(&s) == built_stats;
                    run.op(same, || "a repeated build gave different QueryStats".into());
                }
                None => return,
            }
        }
        for _ in 1..plan.loads {
            drop(warm.round(run, &saved));
        }
        let Some(mut loaded) = warm.round(run, &saved).pop() else {
            return;
        };
        pipeline::read_session(run, &loaded, plan.burst_s, &mut rng, &mut tally);
        let edits::Edit::Replace { func, body } = stream[round % stream.len()].clone() else {
            unreachable!("replace streams hold only replacements")
        };
        let span = run.tracer.begin("session.apply");
        let t = Instant::now();
        let applied = loaded.apply_edits(vec![SessionEdit::Replace { func, body }]);
        let took = t.elapsed().as_secs_f64() * 1e3;
        run.tracer.end(span);
        if run.op(applied.is_ok(), || format!("edit: {applied:?}")) {
            edit_ms.push(took);
        }
        if run.traced() {
            let span = run.tracer.begin("session.freeze");
            let t = Instant::now();
            std::hint::black_box(loaded.freeze());
            freeze_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.tracer.end(span);
        }
        add_reuse(&mut reuse, loaded.stats());
    }
    warm.report(run);
    run.metric("build_s", median(&builds));
    run.host("builds", builds.len());
    run.host("rounds", round);
    run.host("warm_starts", warm.rounds());
    run.host("edits", edit_ms.len());
    tally.report(run);
    edit_ms.sort_by(f64::total_cmp);
    run.metric("edit_p50_ms", percentile(&edit_ms, 0.5));
    run.metric("edit_p90_ms", percentile(&edit_ms, 0.9));
    run.metric("session.apply_ms", median(&edit_ms));
    run.metric("session.freeze_ms", median(&freeze_ms));
    report_reuse(run, &reuse);

    if kind == Kind::Flat {
        check_oracle(run, &m, &claims);
    }
    if run.traced() {
        // The untraced builds above are the reference: same module, same
        // configuration, same pool width.
        let mut layers = Layers::default();
        let composed = pipeline::composed_build(run, &m, config, &pool, &mut layers);
        run.op(composed == built_stats, || {
            "composed layer pipeline differs from the session build".into()
        });
        layers.report(run);
        let untraced = median(&builds);
        run.metric(
            "trace.overhead_pct",
            100.0 * (layers.build_s() - untraced) / untraced,
        );
    }
}

/// One timed scratch build of `m` in a session, appending its time.
fn build(
    run: &mut Run,
    m: &Module,
    config: AnalysisConfig,
    times: &mut Vec<f64>,
) -> Option<AnalysisSession> {
    let input = m.clone();
    let t = Instant::now();
    let built = AnalysisSession::with_config(input, config);
    times.push(t.elapsed().as_secs_f64());
    match built {
        Ok(s) => {
            run.op(true, String::new);
            Some(s)
        }
        Err(e) => {
            run.op(false, || format!("build: {e}"));
            None
        }
    }
}

pub fn add_reuse(total: &mut SessionStats, st: &SessionStats) {
    total.parts_reused += st.parts_reused;
    total.parts_reanalyzed += st.parts_reanalyzed;
    total.gr_components_reused += st.gr_components_reused;
    total.gr_components_solved += st.gr_components_solved;
}

pub fn report_reuse(run: &mut Run, st: &SessionStats) {
    let parts = st.parts_reused + st.parts_reanalyzed;
    run.metric(
        "session.parts_reuse_ratio",
        st.parts_reused as f64 / parts.max(1) as f64,
    );
    let gr = st.gr_components_reused + st.gr_components_solved;
    run.metric(
        "session.gr_reuse_ratio",
        st.gr_components_reused as f64 / gr.max(1) as f64,
    );
}

/// Replays reader batches against a cold demand cache of `s`'s analysis:
/// how much of the pair work a lazy reader would memoise.
pub fn demand_replay(run: &mut Run, s: &AnalysisSession) {
    let m = s.module();
    let rbaa = s.analysis();
    let span = run.tracer.begin("demand.replay");
    let mut cache = rbaa.demand_cache();
    let mut rng = StdRng::seed_from_u64(run.seed ^ 0x00de_3a4d);
    for _ in 0..256 {
        if let Some((f, pairs)) = pipeline::draw_pairs(m, &mut rng, pipeline::QUERIES_PER_SNAPSHOT)
        {
            for (p, q) in pairs {
                std::hint::black_box(cache.query(rbaa, f, p, q));
            }
        }
    }
    run.tracer.end(span);
    let st = cache.stats();
    run.metric(
        "demand.hit_ratio",
        1.0 - st.pair_misses as f64 / st.queries.max(1) as f64,
    );
    run.metric("demand.pair_misses", st.pair_misses as f64);
}

/// Compares the build's totals with the pinned counts for this seed.
fn check_pinned(run: &mut Run, t: &QueryStats) {
    if !run.scale.pinned {
        return;
    }
    let text = match std::fs::read_to_string(PINNED_PATH) {
        Ok(text) => text,
        Err(e) => {
            run.op(false, || format!("reading {PINNED_PATH}: {e}"));
            return;
        }
    };
    let got = pinned_line(run.seed, t);
    let want = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&run.seed.to_string()));
    match want {
        Some(line) => {
            let line = line.split_whitespace().collect::<Vec<_>>().join(" ");
            let line = run.tamper_verdict(line, String::new());
            run.op(line == got, || {
                format!("pinned QueryStats: want `{line}`, got `{got}`")
            });
            run.host("pinned", "yes");
        }
        None => {
            eprintln!("perfbench: seed {} has no pinned QueryStats line", run.seed);
            run.host("pinned", "no");
        }
    }
}

/// One line of the pinned file: `seed queries no_alias by_distinct_locs
/// by_global by_local`.
pub fn pinned_line(seed: u64, t: &QueryStats) -> String {
    format!(
        "{seed} {} {} {} {} {}",
        t.queries, t.no_alias, t.by_distinct_locs, t.by_global, t.by_local
    )
}

/// A seeded sample of the build's `NoAlias` claims (skipping ⊥ states,
/// whose claims are vacuous): a quarter from the function with the most
/// pointers (`main`, whose claims are distinct-site ones), the rest from
/// uniformly drawn functions.
fn oracle_claims(
    s: &AnalysisSession,
    n: usize,
    seed: u64,
) -> Vec<(FuncId, ValueId, ValueId, WhichTest)> {
    let m = s.module();
    let gr = s.analysis().gr();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x000a_11ce);
    let big = m.func_ids().max_by_key(|&f| pointer_values(m, f).len());
    let mut out = Vec::with_capacity(n);
    let mut tries = 0usize;
    while out.len() < n && tries < 200 * n {
        tries += 1;
        let f = match big {
            Some(b) if out.len() % 4 == 0 => b,
            _ => FuncId::new(rng.gen_range(0..m.num_functions())),
        };
        let ptrs = pointer_values(m, f);
        if ptrs.len() < 2 {
            continue;
        }
        let p = ptrs[rng.gen_range(0..ptrs.len())];
        let q = ptrs[rng.gen_range(0..ptrs.len())];
        if p == q || gr.state(f, p).is_bottom() || gr.state(f, q).is_bottom() {
            continue;
        }
        if let (AliasResult::NoAlias, Some(test)) = s.alias_with_test(f, p, q) {
            out.push((f, p, q, test));
        }
    }
    out
}

/// Runs the module in the interpreter and checks each sampled claim:
/// distinct-site and global claims against whole-run address sets,
/// local claims against same-moment definitions.
fn check_oracle(run: &mut Run, m: &Module, claims: &[(FuncId, ValueId, ValueId, WhichTest)]) {
    let Some(main) = m.function_by_name("main") else {
        run.op(false, || "module has no main".into());
        return;
    };
    let mut interp = Interp::new(m);
    interp.set_fuel(500_000_000);
    interp.script_external("atoi", vec![8]);
    let ran = interp.run(main, &[]);
    if !run.op(ran.is_ok(), || format!("interpreter run: {:?}", ran.err())) {
        return;
    }
    run.op(!claims.is_empty(), || "no NoAlias claims sampled".into());
    let mut bad = 0u64;
    for &(f, p, q, test) in claims {
        let conflict = match test {
            WhichTest::Local => interp.aligned_conflict(f, p, q),
            WhichTest::DistinctLocs | WhichTest::Global => interp.global_conflict(f, p, q),
        };
        if conflict {
            bad += 1;
            eprintln!("perfbench: unsound {test:?} claim {f} {p} vs {q}");
        }
    }
    run.ops(claims.len() as u64, bad);
    run.host("oracle_claims", claims.len());
}
