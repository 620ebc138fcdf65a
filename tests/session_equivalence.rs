//! The incremental session's contract: after **every** edit of an
//! arbitrary update stream, [`AnalysisSession`] is byte-identical to a
//! from-scratch `analyze_parallel` + matrix build over the updated
//! module — same symbol tables, same GR/LR/range states, same sweep
//! counts, same verdicts and `WhichTest` attributions, same
//! per-function statistics. This is the rail that lets the session
//! reuse caches aggressively: any invalidation bug is a test failure,
//! not a silently stale verdict.

use proptest::prelude::*;
use sra::core::{
    analyze_parallel, pointer_values, AnalysisConfig, AnalysisSession, BatchAnalysis, QueryStats,
};
use sra::workloads::edits::{self, Edit};
use sra::workloads::scaling;

/// Asserts full byte-identity of `session` against a scratch analysis
/// of its current module.
fn assert_matches_scratch(session: &AnalysisSession) -> Result<(), TestCaseError> {
    let m = session.module();
    let scratch = analyze_parallel(m, session.config());
    let rbaa = session.analysis();
    prop_assert!(
        rbaa.symbols().iter().eq(scratch.symbols().iter()),
        "kernel symbol tables diverged"
    );
    prop_assert!(
        rbaa.lr().symbols().iter().eq(scratch.lr().symbols().iter()),
        "LR symbol tables diverged"
    );
    prop_assert_eq!(
        rbaa.gr().ascending_sweeps(),
        scratch.gr().ascending_sweeps(),
        "ascending sweep counts diverged"
    );
    for f in m.func_ids() {
        for v in m.function(f).value_ids() {
            prop_assert_eq!(
                rbaa.gr().state(f, v),
                scratch.gr().state(f, v),
                "GR state diverged at {} {}",
                f,
                v
            );
            prop_assert_eq!(
                rbaa.ranges().range(f, v),
                scratch.ranges().range(f, v),
                "range diverged at {} {}",
                f,
                v
            );
            prop_assert_eq!(
                rbaa.lr().state(f, v),
                scratch.lr().state(f, v),
                "LR state diverged at {} {}",
                f,
                v
            );
        }
    }
    let batch = BatchAnalysis::from_rbaa(scratch, m, 1);
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        for &p in &ptrs {
            for &q in &ptrs {
                prop_assert_eq!(
                    session.alias_with_test(f, p, q),
                    batch.alias_with_test(f, p, q),
                    "verdict diverged at {}: {} vs {}",
                    f,
                    p,
                    q
                );
            }
        }
        prop_assert_eq!(
            session.stats_of(f),
            batch.stats(f),
            "query stats diverged at {}",
            f
        );
    }
    Ok(())
}

/// Replays a generated edit stream through a session, asserting
/// byte-identity after every step plus the cache-reuse guarantees the
/// stats expose: a no-op replace recomputes nothing, and any
/// single-function edit of a multi-function module reuses >0 parts.
fn run_stream(
    m: sra::ir::Module,
    num_edits: usize,
    edit_seed: u64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let stream = edits::generate_edit_stream(&m, num_edits, edit_seed);
    let mut session =
        AnalysisSession::with_config(m, AnalysisConfig::builder().threads(threads).build())
            .expect("generated modules verify");
    assert_matches_scratch(&session)?;
    for edit in &stream {
        let nf = session.module().num_functions();
        let before = *session.stats();
        let noop = matches!(
            edit,
            Edit::Replace { func, body } if session.module().function(*func) == body
        );
        edits::apply_to_session(&mut session, edit).expect("stream edits are valid");
        let after = *session.stats();
        prop_assert_eq!(
            after.gr_functions_solved + after.gr_functions_reused
                - before.gr_functions_solved
                - before.gr_functions_reused,
            session.module().num_functions(),
            "every function's GR states are either re-solved or reused"
        );
        prop_assert_eq!(
            after.gr_functions_solved - before.gr_functions_solved,
            session.gr_solved_functions().len()
        );
        if noop {
            prop_assert_eq!(after.parts_reanalyzed, before.parts_reanalyzed);
            prop_assert_eq!(after.matrices_rebuilt, before.matrices_rebuilt);
            prop_assert_eq!(after.gr_components_solved, before.gr_components_solved);
            prop_assert_eq!(after.gr_functions_solved, before.gr_functions_solved);
            prop_assert!(after.parts_reused > before.parts_reused);
            prop_assert!(after.matrices_reused > before.matrices_reused);
        } else if matches!(edit, Edit::Replace { .. }) && nf > 1 {
            prop_assert!(
                after.parts_reused > before.parts_reused,
                "a single-function edit must reuse the other functions' parts"
            );
            prop_assert_eq!(
                after.parts_reanalyzed,
                before.parts_reanalyzed + 1,
                "a single-function edit re-analyzes exactly one part"
            );
        }
        assert_matches_scratch(&session)?;
    }
    // The total sanity of the accumulated counters.
    let stats = *session.stats();
    prop_assert_eq!(stats.edits, num_edits);
    let _ = QueryStats::default();
    Ok(())
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 cases over the flat
// scaling generator + 24 over the call-graph generator, whose deep
// chains, recursive cliques and wide fans exercise SCC splits/merges
// and multi-component invalidation, + 24 over the mixed-dataflow
// generator, whose int-only calls and non-pointer returns make an
// edit's pointer-dataflow closure a strict subset of its component.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat modules (many functions, shallow call graph): part rebasing
    /// and matrix reuse carry the load.
    #[test]
    fn session_equals_scratch_on_flat_modules(
        target in 150usize..700,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_module(target, seed);
        run_stream(m, num_edits, edit_seed, threads)?;
    }

    /// Call-graph-heavy modules: dirty-component invalidation over the
    /// condensation carries the load.
    #[test]
    fn session_equals_scratch_on_call_graph_modules(
        funcs in 10usize..60,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_call_graph_module(funcs, seed);
        run_stream(m, num_edits, edit_seed, threads)?;
    }

    /// Mixed-dataflow modules: partial re-solves of a component (the
    /// closure of each edit) carry the load, including their fallbacks.
    #[test]
    fn session_equals_scratch_on_mixed_dataflow_modules(
        funcs in 10usize..60,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_mixed_dataflow_module(funcs, seed);
        run_stream(m, num_edits, edit_seed, threads)?;
    }
}

/// 768-case sweep of the same property (split across the three
/// generators).
/// Excluded from tier-1; run with
/// `cargo test -q --release --test session_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variants"]
fn deep_fuzz_session_equivalence() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(
            &(
                150usize..700,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(target, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_module(target, seed);
                run_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(
            &(
                10usize..80,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(funcs, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_call_graph_module(funcs, seed);
                run_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(256));
    runner
        .run(
            &(
                10usize..80,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(funcs, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_mixed_dataflow_module(funcs, seed);
                run_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
}
