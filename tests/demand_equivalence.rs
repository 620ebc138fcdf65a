//! The demand-driven query path's contract: for **every** pointer pair
//! of every function, [`sra::core::DemandCache`] answers byte-identical
//! to the uncached [`sra::core::RbaaAnalysis::alias_with_test`]
//! reference and to the eager [`sra::core::AliasMatrix`] — same
//! verdicts, same `WhichTest` attributions — including across
//! arbitrary session edit streams in [`sra::core::QueryMode::Demand`],
//! where no matrix is ever built. The same rail pins the tiled
//! parallel matrix build to the serial one (same stats, same byte
//! accounting, same cells as seen through every lookup).

use proptest::prelude::*;
use sra::core::{
    analyze_parallel, pointer_values, AliasMatrix, AnalysisConfig, AnalysisSession, QueryMode,
    WorkerPool,
};
use sra::ir::{Callee, CmpOp, FunctionBuilder, Module, Ty};
use sra::workloads::edits;
use sra::workloads::scaling;

/// Pins all three answer paths to each other over one module: the
/// uncached reference, the serial matrix, the tiled parallel matrix,
/// and a demand cache grown query by query.
fn assert_three_way_agreement(m: &Module, threads: usize) -> Result<(), TestCaseError> {
    let rbaa = analyze_parallel(m, AnalysisConfig::builder().threads(threads).build());
    let mut demand = rbaa.demand_cache();
    let serial_pool = WorkerPool::forced(1);
    let tiled_pool = WorkerPool::forced(threads.max(2));
    for f in m.func_ids() {
        let serial = AliasMatrix::build_for_on(&rbaa, f, pointer_values(m, f), &serial_pool);
        let tiled = AliasMatrix::build_for_on(&rbaa, f, pointer_values(m, f), &tiled_pool);
        prop_assert_eq!(
            serial.stats(),
            tiled.stats(),
            "tiled stats diverged at {}",
            f
        );
        prop_assert_eq!(
            serial.bytes(),
            tiled.bytes(),
            "tiled byte accounting diverged at {}",
            f
        );
        let ptrs = pointer_values(m, f);
        for &p in &ptrs {
            for &q in &ptrs {
                let reference = rbaa.alias_with_test(f, p, q);
                prop_assert_eq!(
                    demand.query(&rbaa, f, p, q),
                    reference,
                    "demand diverged at {}: {} vs {}",
                    f,
                    p,
                    q
                );
                if p != q {
                    let cached = serial.lookup(p, q).expect("matrix covers its pointers");
                    prop_assert_eq!(
                        cached,
                        reference,
                        "serial matrix diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                    prop_assert_eq!(
                        tiled.lookup(p, q).expect("matrix covers its pointers"),
                        cached,
                        "tiled matrix diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                }
            }
        }
    }
    Ok(())
}

/// The shapes of the matrices' support partition, sized by the
/// generator: a `main`-shaped function whose pointers each come from
/// their own `malloc` (every pair implicit), and an exported function
/// mixing `Unknown` parameters and external-call results with
/// `globals` distinct `Global` sites (one block), φs whose support
/// spans two `malloc` blocks, ⊤ loads (wide rows), freed ⊥ pointers
/// and lone singletons.
fn partition_edge_module(
    singles: usize,
    globals: usize,
    bridges: usize,
    tops: usize,
    bottoms: usize,
) -> Module {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("solo", &[], None);
    let size = b.const_int(16);
    for _ in 0..singles + 2 {
        b.malloc(size);
    }
    b.ret(None);
    m.add_function(b.finish());

    let gs: Vec<_> = (0..globals)
        .map(|i| m.add_global(&format!("g{i}"), 16))
        .collect();
    let mut b = FunctionBuilder::new("edges", &[Ty::Ptr, Ty::Int], None);
    let unknown = b.param(0);
    let n = b.param(1);
    let size = b.const_int(16);
    let one = b.const_int(1);
    let _ = b.ptr_add(unknown, one);
    let external = b.call(Callee::External("getbuf".into()), &[], Some(Ty::Ptr));
    let _ = b.ptr_add(external, one);
    for &g in &gs {
        let a = b.global_addr(g, Ty::Ptr);
        let _ = b.ptr_add(a, one);
    }
    let mut mallocs = Vec::new();
    for _ in 0..bridges + 1 {
        let x = b.malloc(size);
        let _ = b.ptr_add(x, one);
        mallocs.push(x);
    }
    for k in 0..bridges {
        let then = b.create_block();
        let other = b.create_block();
        let join = b.create_block();
        let c = b.cmp(CmpOp::Lt, n, size);
        b.br(c, then, other);
        b.switch_to(then);
        b.jump(join);
        b.switch_to(other);
        b.jump(join);
        b.switch_to(join);
        let xy = b.phi(Ty::Ptr, &[(then, mallocs[k]), (other, mallocs[k + 1])]);
        let _ = b.ptr_add(xy, one);
    }
    for k in 0..tops {
        let _ = b.load(mallocs[k % mallocs.len()], Ty::Ptr);
    }
    for _ in 0..bottoms {
        let dead = b.malloc(size);
        let _ = b.free(dead);
    }
    for _ in 0..singles {
        b.malloc(size);
    }
    b.ret(None);
    let mut f = b.finish();
    f.set_exported(true);
    m.add_function(f);
    sra::ir::verify::verify_module(&m).expect("partition fixtures verify");
    m
}

/// Replays a generated edit stream through a matrix-mode session and a
/// demand-mode session in lockstep, asserting identical verdicts after
/// every edit — while the demand session provably never builds a
/// matrix.
fn run_edit_stream(
    m: Module,
    num_edits: usize,
    edit_seed: u64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let stream = edits::generate_edit_stream(&m, num_edits, edit_seed);
    let config = AnalysisConfig::builder().threads(threads);
    let mut demand =
        AnalysisSession::with_config(m.clone(), config.query_mode(QueryMode::Demand).build())
            .expect("generated modules verify");
    let mut matrix =
        AnalysisSession::with_config(m, AnalysisConfig::builder().threads(threads).build())
            .expect("generated modules verify");

    let check = |demand: &AnalysisSession, matrix: &AnalysisSession| -> Result<(), TestCaseError> {
        let m = matrix.module();
        let rbaa = matrix.analysis();
        for f in m.func_ids() {
            let ptrs = pointer_values(m, f);
            for &p in &ptrs {
                for &q in &ptrs {
                    let reference = rbaa.alias_with_test(f, p, q);
                    prop_assert_eq!(
                        matrix.alias_with_test(f, p, q),
                        reference,
                        "matrix session diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                    prop_assert_eq!(
                        demand.alias_with_test(f, p, q),
                        reference,
                        "demand session diverged at {}: {} vs {}",
                        f,
                        p,
                        q
                    );
                }
            }
        }
        Ok(())
    };

    check(&demand, &matrix)?;
    for edit in &stream {
        edits::apply_to_session(&mut demand, edit).expect("stream edits are valid");
        edits::apply_to_session(&mut matrix, edit).expect("stream edits are valid");
        check(&demand, &matrix)?;
    }
    prop_assert_eq!(
        demand.stats().matrices_rebuilt,
        0,
        "demand mode must never build a matrix"
    );
    prop_assert!(
        demand
            .demand_stats()
            .expect("demand mode ran queries")
            .queries
            > 0,
        "the lockstep checks route through the demand cache"
    );
    Ok(())
}

// Tier-1 budget (`PROPTEST_CASES` overrides): 24 cases per property —
// flat multi-function modules, single giant functions (the matrix
// scaling cliff demand mode exists for), and edit streams replayed in
// both query modes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat modules: many small functions, verdicts from all three
    /// paths, serial vs tiled builds at 2–4 threads.
    #[test]
    fn demand_equals_matrix_on_flat_modules(
        target in 150usize..600,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_module(target, seed);
        assert_three_way_agreement(&m, threads)?;
    }

    /// Giant single functions: few signatures, huge pair universe —
    /// the shape where the tiled triangle walk earns its keep.
    #[test]
    fn demand_equals_matrix_on_giant_functions(
        ptrs in 30usize..120,
        cliques in 1usize..8,
        seed in 0u64..10_000,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_giant_function(ptrs, cliques, seed);
        assert_three_way_agreement(&m, threads)?;
    }

    /// Every shape of the support partition: singletons, one
    /// Unknown/Global block over distinct globals, malloc blocks
    /// bridged by φs, ⊤ rows and ⊥ pointers.
    #[test]
    fn demand_equals_matrix_on_partition_edges(
        singles in 0usize..6,
        globals in 0usize..4,
        bridges in 0usize..4,
        tops in 0usize..3,
        bottoms in 0usize..3,
        threads in 1usize..5,
    ) {
        let m = partition_edge_module(singles, globals, bridges, tops, bottoms);
        assert_three_way_agreement(&m, threads)?;
    }

    /// Edit streams: demand-mode sessions stay pinned to matrix-mode
    /// sessions (and the uncached reference) through replaces, adds
    /// and removes, with the demand cache dropped on every rebuild.
    #[test]
    fn demand_session_tracks_edits(
        target in 150usize..500,
        seed in 0u64..10_000,
        edit_seed in 0u64..10_000,
        num_edits in 2usize..6,
        threads in 1usize..5,
    ) {
        let m = scaling::generate_module(target, seed);
        run_edit_stream(m, num_edits, edit_seed, threads)?;
    }
}

/// 512-case sweep of the same properties (split across the three
/// shapes). Excluded from tier-1; run with
/// `cargo test -q --release --test demand_equivalence -- --ignored`.
#[test]
#[ignore = "deep fuzz (minutes); tier-1 runs the 24-case variants"]
fn deep_fuzz_demand_equivalence() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(192));
    runner
        .run(
            &(150usize..700, 0u64..1_000_000, 1usize..5),
            |(target, seed, threads)| {
                let m = scaling::generate_module(target, seed);
                assert_three_way_agreement(&m, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(192));
    runner
        .run(
            &(30usize..200, 1usize..10, 0u64..1_000_000, 1usize..5),
            |(ptrs, cliques, seed, threads)| {
                let m = scaling::generate_giant_function(ptrs, cliques, seed);
                assert_three_way_agreement(&m, threads)
            },
        )
        .unwrap();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(128));
    runner
        .run(
            &(
                150usize..600,
                0u64..1_000_000,
                0u64..1_000_000,
                2usize..7,
                1usize..5,
            ),
            |(target, seed, edit_seed, num_edits, threads)| {
                let m = scaling::generate_module(target, seed);
                run_edit_stream(m, num_edits, edit_seed, threads)
            },
        )
        .unwrap();
}
