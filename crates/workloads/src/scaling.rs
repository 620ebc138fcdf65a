//! Scalable program generation for the Figure 15 linearity experiment.
//!
//! Figure 15 measures analysis runtime over the 50 largest programs of
//! the LLVM test suite (800k instructions, 240k pointers in total).
//! This module generates programs of a requested instruction count
//! directly through the [`sra_ir::FunctionBuilder`] (bypassing the
//! parser, which is not what the experiment times) with the same
//! instruction mix the suites exhibit: pointer-walk loops, strided
//! stores, field accesses, allocations and calls.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sra_ir::{BinOp, Callee, CmpOp, FuncId, FunctionBuilder, Module, Ty};

/// Generates a module with roughly `target_insts` IR instructions
/// (within a few percent), deterministically from `seed`.
pub fn generate_module(target_insts: usize, seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Module::new();
    let mut made: usize = 0;
    let mut funcs: Vec<FuncId> = Vec::new();
    let mut i = 0;
    while made < target_insts {
        let mut f = gen_function(&format!("f{i}"), &mut rng);
        sra_ir::essa::run(&mut f);
        made += f.num_insts();
        funcs.push(m.add_function(f));
        i += 1;
    }
    // main calls every generated function with fresh buffers.
    let mut b = FunctionBuilder::new("main", &[], Some(Ty::Int));
    for &f in &funcs {
        let n = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let sixty_four = b.const_int(64);
        let size = b.binop(BinOp::Add, n, sixty_four);
        let buf = b.malloc(size);
        b.call(Callee::Internal(f), &[buf, n], None);
    }
    let zero = b.const_int(0);
    b.ret(Some(zero));
    let mut main = b.finish();
    main.set_exported(true);
    m.add_function(main);
    m
}

/// One function: a handful of loops over the buffer parameter plus
/// local allocations, in proportions similar to compiled C.
fn gen_function(name: &str, rng: &mut StdRng) -> sra_ir::Function {
    let mut b = FunctionBuilder::new(name, &[Ty::Ptr, Ty::Int], None);
    let p = b.param(0);
    let n = b.param(1);
    let blocks = rng.gen_range(2..6);
    for blk in 0..blocks {
        match rng.gen_range(0..4) {
            // Counted loop with two strided stores.
            0 => {
                let head = b.create_block();
                let body = b.create_block();
                let exit = b.create_block();
                let zero = b.const_int(0);
                let entry = b.current_block();
                b.jump(head);
                b.switch_to(head);
                let i = b.phi(Ty::Int, &[(entry, zero)]);
                let c = b.cmp(CmpOp::Lt, i, n);
                b.br(c, body, exit);
                b.switch_to(body);
                let a0 = b.ptr_add(p, i);
                b.store(a0, i);
                let one = b.const_int(1);
                let i1 = b.binop(BinOp::Add, i, one);
                let a1 = b.ptr_add(p, i1);
                let x = b.load(a0, Ty::Int);
                b.store(a1, x);
                let step = b.const_int(rng.gen_range(1..=4));
                let inext = b.binop(BinOp::Add, i, step);
                b.add_phi_arg(i, body, inext);
                b.jump(head);
                b.switch_to(exit);
            }
            // Local allocation with field writes.
            1 => {
                let fields = rng.gen_range(2..8);
                let size = b.const_int(fields);
                let s = if rng.gen_bool(0.5) {
                    b.malloc(size)
                } else {
                    b.alloca(size)
                };
                for f in 0..fields {
                    let off = b.const_int(f);
                    let addr = b.ptr_add(s, off);
                    let val = b.const_int(f * 3 + blk);
                    b.store(addr, val);
                }
            }
            // Pointer walk bounded by p + n.
            2 => {
                let head = b.create_block();
                let body = b.create_block();
                let exit = b.create_block();
                let zero = b.const_int(0);
                let i0 = b.ptr_add(p, zero);
                let e = b.ptr_add(p, n);
                let entry = b.current_block();
                b.jump(head);
                b.switch_to(head);
                let cur = b.phi(Ty::Ptr, &[(entry, i0)]);
                let c = b.cmp(CmpOp::Lt, cur, e);
                b.br(c, body, exit);
                b.switch_to(body);
                let k = b.const_int(blk);
                b.store(cur, k);
                let step = b.const_int(rng.gen_range(1..=2));
                let next = b.ptr_add(cur, step);
                b.add_phi_arg(cur, body, next);
                b.jump(head);
                b.switch_to(exit);
            }
            // Straight-line integer arithmetic with a guarded store.
            _ => {
                let len = b.call(Callee::External("strlen".into()), &[], Some(Ty::Int));
                let two = b.const_int(2);
                let mid = b.binop(BinOp::Div, len, two);
                let t = b.create_block();
                let eb = b.create_block();
                let c = b.cmp(CmpOp::Lt, mid, n);
                b.br(c, t, eb);
                b.switch_to(t);
                let addr = b.ptr_add(p, mid);
                b.store(addr, mid);
                b.jump(eb);
                b.switch_to(eb);
            }
        }
    }
    b.ret(None);
    b.finish()
}

/// Generates a module of `funcs` interlinked functions whose *call
/// graph* — not instruction count — is the scaling axis,
/// deterministically from `seed`.
///
/// [`generate_module`] stresses the per-function phases: many
/// instructions, but a flat two-level call graph (`main` → leaves)
/// that the interprocedural GR solves in a couple of sweeps. This
/// generator instead stresses the GR wave scheduler with the shapes
/// that dominate real programs:
///
/// * **deep call chains** — `f_i` calls `f_{i+1}` through dozens of
///   levels, so interprocedural state must travel far in both
///   directions (actuals down, returns up);
/// * **mutually recursive cliques** — 2–3 functions calling each
///   other, which fuse into one condensation SCC and serialise;
/// * **wide fans of independent leaves** — whole condensation levels
///   of mutually unrelated SCCs, the parallelism the wave schedule
///   harvests;
/// * **cross links** — extra DAG edges between segments so levels
///   interleave.
///
/// Every function takes `(ptr, int)` and returns a pointer derived
/// from its formal, a callee's return, or a fresh allocation, so the
/// churn runs through exactly the formal/return joins the GR cut set
/// widens. `main` (exported, added last) calls every segment head with
/// a fresh buffer.
pub fn generate_call_graph_module(funcs: usize, seed: u64) -> Module {
    let funcs = funcs.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5cc5_c0de);

    // Plan the call edges first: function ids are fixed (0..funcs,
    // main last), so bodies can be built in one pass.
    let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); funcs];
    let mut heads: Vec<FuncId> = Vec::new();
    let mut i = 0usize;
    while i < funcs {
        heads.push(FuncId::new(i));
        let remaining = funcs - i;
        match rng.gen_range(0..4) {
            // Deep chain.
            0 => {
                let len = rng.gen_range(3..24).min(remaining);
                for k in 0..len - 1 {
                    callees[i + k].push(FuncId::new(i + k + 1));
                }
                i += len;
            }
            // Mutually recursive clique (ring of 2-3).
            1 if remaining >= 2 => {
                let len = rng.gen_range(2..4).min(remaining);
                for k in 0..len {
                    callees[i + k].push(FuncId::new(i + (k + 1) % len));
                }
                i += len;
            }
            // Fan: one dispatcher over a handful of fresh leaves.
            2 if remaining >= 3 => {
                let width = rng.gen_range(2..8).min(remaining - 1);
                for k in 0..width {
                    callees[i].push(FuncId::new(i + 1 + k));
                }
                i += width + 1;
            }
            // Independent leaf.
            _ => {
                i += 1;
            }
        }
    }
    // Cross links: forward DAG edges between segments (never backward,
    // so recursion stays confined to the planned cliques).
    let cross = funcs / 6;
    for _ in 0..cross {
        let from = rng.gen_range(0..funcs.saturating_sub(1).max(1));
        let to = rng.gen_range(from + 1..funcs);
        let target = FuncId::new(to);
        if !callees[from].contains(&target) {
            callees[from].push(target);
        }
    }

    let mut m = Module::new();
    for (idx, targets) in callees.iter().enumerate() {
        let mut b = FunctionBuilder::new(&format!("g{idx}"), &[Ty::Ptr, Ty::Int], Some(Ty::Ptr));
        let p = b.param(0);
        let n = b.param(1);
        let step = b.const_int(rng.gen_range(1..4));
        let q = b.ptr_add(p, step);
        let mut last = q;
        for &t in targets {
            last = b.call(Callee::Internal(t), &[q, n], Some(Ty::Ptr));
        }
        // Some bodies allocate and do local pointer work so the
        // per-function phases and matrices have meat too.
        if rng.gen_bool(0.4) {
            let size = b.const_int(rng.gen_range(4..16));
            let s = b.malloc(size);
            let off = b.const_int(1);
            let s1 = b.ptr_add(s, off);
            b.store(s1, n);
            if rng.gen_bool(0.5) {
                last = s1;
            }
        }
        let ret = match rng.gen_range(0..3) {
            0 => q,
            _ => last,
        };
        b.ret(Some(ret));
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        m.add_function(f);
    }
    // main calls every segment head with a fresh buffer.
    let mut b = FunctionBuilder::new("main", &[], Some(Ty::Int));
    for &h in &heads {
        let n = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let pad = b.const_int(64);
        let size = b.binop(BinOp::Add, n, pad);
        let buf = b.malloc(size);
        let _ = b.call(Callee::Internal(h), &[buf, n], Some(Ty::Ptr));
    }
    let zero = b.const_int(0);
    b.ret(Some(zero));
    let mut main = b.finish();
    main.set_exported(true);
    m.add_function(main);
    m
}

/// Generates a module of `funcs` interlinked functions whose pointer
/// dataflow reaches only part of the call graph, deterministically
/// from `seed`.
///
/// [`generate_call_graph_module`] threads a pointer through every call
/// edge and back through every return, so an edit anywhere can reach
/// (and an incremental session must re-solve) its whole weak component.
/// Here the signatures vary instead:
///
/// * about a third of the functions take only an `int`, so a seeded
///   share of call edges pass only integers and carry no pointer state;
/// * returns are drawn from `None`, `Int` and `Ptr`, so only some call
///   results read a callee's return state;
/// * the call shapes are those of [`generate_call_graph_module`] —
///   chains, recursive rings of 2–3 (whose members may all be
///   int-only or return no pointer), fans and forward cross links.
///
/// A function without a pointer formal allocates its own buffer.
/// `main` (exported, added last) calls every segment head, passing a
/// fresh buffer wherever the head takes a pointer.
pub fn generate_mixed_dataflow_module(funcs: usize, seed: u64) -> Module {
    let funcs = funcs.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd47a_f10e);

    // Signatures first, so call sites can be synthesized in one pass.
    let sigs: Vec<(Vec<Ty>, Option<Ty>)> = (0..funcs)
        .map(|_| {
            let params = if rng.gen_bool(0.35) {
                vec![Ty::Int]
            } else {
                vec![Ty::Ptr, Ty::Int]
            };
            let ret = match rng.gen_range(0..3) {
                0 => None,
                1 => Some(Ty::Int),
                _ => Some(Ty::Ptr),
            };
            (params, ret)
        })
        .collect();
    let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); funcs];
    let mut heads: Vec<FuncId> = Vec::new();
    let mut i = 0usize;
    while i < funcs {
        heads.push(FuncId::new(i));
        let remaining = funcs - i;
        match rng.gen_range(0..4) {
            0 => {
                let len = rng.gen_range(2..10).min(remaining);
                for k in 0..len - 1 {
                    callees[i + k].push(FuncId::new(i + k + 1));
                }
                i += len;
            }
            1 if remaining >= 2 => {
                let len = rng.gen_range(2..4).min(remaining);
                for k in 0..len {
                    callees[i + k].push(FuncId::new(i + (k + 1) % len));
                }
                i += len;
            }
            2 if remaining >= 3 => {
                let width = rng.gen_range(2..6).min(remaining - 1);
                for k in 0..width {
                    callees[i].push(FuncId::new(i + 1 + k));
                }
                i += width + 1;
            }
            _ => i += 1,
        }
    }
    for _ in 0..funcs / 5 {
        let from = rng.gen_range(0..funcs.saturating_sub(1).max(1));
        let to = rng.gen_range(from + 1..funcs);
        let target = FuncId::new(to);
        if !callees[from].contains(&target) {
            callees[from].push(target);
        }
    }

    let mut m = Module::new();
    for (idx, targets) in callees.iter().enumerate() {
        let (params, ret) = &sigs[idx];
        let mut b = FunctionBuilder::new(&format!("d{idx}"), params, *ret);
        let (p, n) = if params[0] == Ty::Ptr {
            (b.param(0), b.param(1))
        } else {
            let n = b.param(0);
            let size = b.const_int(rng.gen_range(4..32));
            (b.malloc(size), n)
        };
        let step = b.const_int(rng.gen_range(1..4));
        let q = b.ptr_add(p, step);
        let (mut last_ptr, mut last_int) = (q, n);
        for &t in targets {
            let (t_params, t_ret) = &sigs[t.index()];
            let args: Vec<_> = t_params
                .iter()
                .map(|ty| if *ty == Ty::Ptr { q } else { n })
                .collect();
            let out = b.call(Callee::Internal(t), &args, *t_ret);
            match t_ret {
                Some(Ty::Ptr) => last_ptr = out,
                Some(Ty::Int) => last_int = out,
                None => {}
            }
        }
        let one = b.const_int(1);
        let r = b.ptr_add(last_ptr, one);
        b.store(r, last_int);
        match ret {
            Some(Ty::Ptr) => b.ret(Some(if rng.gen_bool(0.5) { q } else { r })),
            Some(Ty::Int) => b.ret(Some(last_int)),
            None => b.ret(None),
        }
        let mut f = b.finish();
        sra_ir::essa::run(&mut f);
        m.add_function(f);
    }
    let mut b = FunctionBuilder::new("main", &[], Some(Ty::Int));
    for &h in &heads {
        let n = b.call(Callee::External("atoi".into()), &[], Some(Ty::Int));
        let (params, ret) = &sigs[h.index()];
        let args: Vec<_> = params
            .iter()
            .map(|ty| {
                if *ty == Ty::Ptr {
                    let pad = b.const_int(64);
                    let size = b.binop(BinOp::Add, n, pad);
                    b.malloc(size)
                } else {
                    n
                }
            })
            .collect();
        let _ = b.call(Callee::Internal(h), &args, *ret);
    }
    let zero = b.const_int(0);
    b.ret(Some(zero));
    let mut main = b.finish();
    main.set_exported(true);
    m.add_function(main);
    m
}

/// How far apart the constant offsets of a giant-function clique are
/// spread. Small enough that same-clique pointers with equal offsets
/// exist (MayAlias), large enough that most same-clique pairs have
/// provably disjoint singleton ranges (NoAlias via the global test).
const GIANT_SPREAD: i64 = 48;

/// Generates a module containing **one giant function** with roughly
/// `ptrs` pointer values partitioned into `cliques` allocation
/// cliques, deterministically from `seed`.
///
/// This is the adversarial shape for eager all-pairs matrices: a
/// single function's alias matrix is O(ptrs²) cells, so a few
/// thousand pointers already cost millions of verdicts — while a
/// demand-driven query touches exactly one pair. Each clique is one
/// `malloc`; every other pointer is a `ptr_add(base, c)` off a
/// random clique base with a constant offset in `0..GIANT_SPREAD`.
/// Pointers from different cliques never alias (disjoint allocation
/// sites), same-clique pointers alias exactly when their constant
/// offsets collide — so the verdict mix exercises both the distinct-
/// locations and the global-range paths of the alias tests.
pub fn generate_giant_function(ptrs: usize, cliques: usize, seed: u64) -> Module {
    let cliques = cliques.clamp(1, ptrs.max(1));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x61a7_f00d);
    let mut b = FunctionBuilder::new("giant", &[], None);
    let mut bases = Vec::with_capacity(cliques);
    for c in 0..cliques {
        let size = b.const_int(GIANT_SPREAD + c as i64);
        bases.push(b.malloc(size));
    }
    let mut made = cliques;
    while made < ptrs {
        let c = rng.gen_range(0..cliques);
        let off = b.const_int(rng.gen_range(0..GIANT_SPREAD));
        let p = b.ptr_add(bases[c], off);
        b.store(p, off);
        made += 1;
    }
    b.ret(None);
    let mut f = b.finish();
    f.set_exported(true);
    let mut m = Module::new();
    m.add_function(f);
    m
}

/// The sizes used by the Figure 15 sweep: 50 programs growing (roughly
/// geometrically) from about 1k to `max_insts` instructions.
pub fn figure15_sizes(max_insts: usize) -> Vec<usize> {
    let lo = 1_000f64;
    let hi = max_insts.max(2_000) as f64;
    (0..50)
        .map(|i| {
            let t = i as f64 / 49.0;
            (lo * (hi / lo).powf(t)) as usize
        })
        .collect()
}

/// Pearson linear correlation coefficient between two series — the
/// statistic the paper reports for Figure 15 (R = 0.982 for time vs
/// instructions, 0.975 for time vs pointers).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must pair up");
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        let m = generate_module(5_000, 1);
        let got = m.num_insts();
        assert!(got >= 5_000, "got {got}");
        assert!(got < 7_000, "overshoot bounded: {got}");
        sra_ir::verify::verify_module(&m).expect("verified");
    }

    #[test]
    fn deterministic() {
        let a = generate_module(2_000, 7);
        let b = generate_module(2_000, 7);
        assert_eq!(a.num_insts(), b.num_insts());
        assert_eq!(a.num_functions(), b.num_functions());
    }

    #[test]
    fn sizes_grow_to_max() {
        let sizes = figure15_sizes(100_000);
        assert_eq!(sizes.len(), 50);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sizes[0], 1_000);
        assert!(*sizes.last().unwrap() >= 99_000);
    }

    #[test]
    fn pearson_sanity() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
        let flat = vec![2.0; 10];
        assert_eq!(pearson(&xs, &flat), 0.0);
    }

    #[test]
    fn generated_module_analyzes() {
        let m = generate_module(3_000, 3);
        let metrics = crate::harness::evaluate(&m);
        assert!(metrics.queries > 0);
        assert!(metrics.rbaa_no > 0, "the generated idioms are analyzable");
    }

    #[test]
    fn giant_function_has_requested_shape() {
        let m = generate_giant_function(500, 8, 11);
        sra_ir::verify::verify_module(&m).expect("verified");
        assert_eq!(m.num_functions(), 1, "one giant function, nothing else");
        let ptrs = sra_core::pointer_values(&m, sra_ir::FuncId::new(0));
        assert_eq!(
            ptrs.len(),
            500,
            "every clique base and derived pointer counts"
        );
        let again = generate_giant_function(500, 8, 11);
        assert_eq!(
            sra_ir::print_module(&m),
            sra_ir::print_module(&again),
            "generator must be deterministic"
        );
    }

    #[test]
    fn giant_function_mixes_both_verdicts() {
        use sra_core::{AliasAnalysis, AliasResult};
        let m = generate_giant_function(60, 4, 5);
        let f = sra_ir::FuncId::new(0);
        let rbaa = sra_core::RbaaAnalysis::analyze(&m);
        let ptrs = sra_core::pointer_values(&m, f);
        let mut no = 0usize;
        let mut may = 0usize;
        for (i, &p) in ptrs.iter().enumerate() {
            for &q in &ptrs[i + 1..] {
                match rbaa.alias(f, p, q) {
                    AliasResult::NoAlias => no += 1,
                    AliasResult::MayAlias => may += 1,
                }
            }
        }
        assert!(
            no > 0,
            "cross-clique and distinct-offset pairs disambiguate"
        );
        assert!(may > 0, "same-clique equal-offset collisions exist");
        assert!(
            no > may,
            "disjoint cliques should dominate: {no} NoAlias vs {may} MayAlias"
        );
    }

    #[test]
    fn call_graph_module_verifies_and_is_deterministic() {
        let m = generate_call_graph_module(150, 9);
        sra_ir::verify::verify_module(&m).expect("verified");
        assert_eq!(m.num_functions(), 151); // 150 + main
        let again = generate_call_graph_module(150, 9);
        assert_eq!(
            sra_ir::print_module(&m),
            sra_ir::print_module(&again),
            "generator must be deterministic"
        );
    }

    #[test]
    fn mixed_dataflow_module_verifies_and_mixes_signatures() {
        let m = generate_mixed_dataflow_module(120, 5);
        sra_ir::verify::verify_module(&m).expect("verified");
        assert_eq!(m.num_functions(), 121); // 120 + main
        let again = generate_mixed_dataflow_module(120, 5);
        assert_eq!(
            sra_ir::print_module(&m),
            sra_ir::print_module(&again),
            "generator must be deterministic"
        );
        let int_only = m
            .func_ids()
            .filter(|&f| !m.function(f).param_tys().contains(&Ty::Ptr))
            .count();
        assert!(int_only > 0, "some functions take no pointer");
        for ret in [None, Some(Ty::Int), Some(Ty::Ptr)] {
            assert!(
                m.func_ids().any(|f| m.function(f).ret_ty() == ret),
                "some function returns {ret:?}"
            );
        }
        let cond = sra_ir::callgraph::Condensation::of_module(&m);
        assert!(
            (0..cond.num_sccs() as u32).any(|s| cond.is_recursive(s)),
            "expected at least one recursive ring"
        );
        let metrics = crate::harness::evaluate(&m);
        assert!(metrics.queries > 0);
    }

    #[test]
    fn call_graph_module_has_depth_recursion_and_width() {
        let m = generate_call_graph_module(200, 4);
        let cond = sra_ir::callgraph::Condensation::of_module(&m);
        assert!(
            cond.levels().len() > 8,
            "expected deep chains, got {} levels",
            cond.levels().len()
        );
        assert!(
            cond.max_level_width() > 8,
            "expected wide levels, got {}",
            cond.max_level_width()
        );
        assert!(
            (0..cond.num_sccs() as u32).any(|s| cond.is_recursive(s)),
            "expected at least one recursive clique"
        );
        // And the workload is analyzable end to end.
        let metrics = crate::harness::evaluate(&m);
        assert!(metrics.queries > 0);
    }
}
