//! Call graph and its strongly-connected-component condensation.
//!
//! The interprocedural global analysis (GR) propagates information in
//! both directions along call edges — actuals flow into formal
//! parameters, return states flow back into call results — so the unit
//! of scheduling is not a function but a *strongly connected component*
//! of the call graph: within an SCC (mutual recursion) the members must
//! be iterated together, while distinct SCCs are partially ordered by
//! the condensation DAG.
//!
//! [`Condensation`] groups the SCCs into bottom-up **levels**: level 0
//! holds the leaf SCCs (no internal callees outside themselves), level
//! `k + 1` the SCCs whose deepest callee chain has length `k + 1`. Two
//! SCCs on the *same* level are never connected by a call edge in
//! either direction, which is what lets a scheduler analyse them
//! concurrently without changing any result — the property
//! `sra-core`'s wave-scheduled GR is built on.
//!
//! Everything here is deterministic: Tarjan's algorithm visits
//! functions in id order and callees in sorted order, so SCC ids,
//! member order and level contents depend only on the module.
//!
//! # Examples
//!
//! ```
//! use sra_ir::callgraph::Condensation;
//! use sra_ir::{Callee, FunctionBuilder, Module, Ty};
//!
//! let mut m = Module::new();
//! let mut b = FunctionBuilder::new("leaf", &[Ty::Int], None);
//! b.ret(None);
//! let leaf = m.add_function(b.finish());
//! let mut b = FunctionBuilder::new("root", &[Ty::Int], None);
//! let n = b.param(0);
//! b.call(Callee::Internal(leaf), &[n], None);
//! b.ret(None);
//! m.add_function(b.finish());
//!
//! let cond = Condensation::of_module(&m);
//! assert_eq!(cond.num_sccs(), 2);
//! // Bottom-up: the leaf's SCC sits on level 0, the caller's above it.
//! assert_eq!(cond.levels().len(), 2);
//! ```

use crate::function::Function;
use crate::ids::FuncId;
use crate::instr::{Callee, Inst};
use crate::module::Module;

/// The sorted, duplicate-free internal-callee list of one function,
/// with targets at or beyond `num_functions` dropped (unverified input
/// must never panic the graph).
fn collect_callees(f: &Function, num_functions: usize) -> Vec<FuncId> {
    let mut callees = Vec::new();
    for v in f.value_ids() {
        if let Some(Inst::Call {
            callee: Callee::Internal(target),
            ..
        }) = f.value(v).as_inst()
        {
            if target.index() < num_functions {
                callees.push(*target);
            }
        }
    }
    callees.sort_unstable();
    callees.dedup();
    callees
}

/// Internal-call adjacency of a module: for each function, the sorted,
/// duplicate-free list of module-internal callees.
///
/// External callees are not edges (they cannot carry states), and call
/// targets outside the module's function range are ignored rather than
/// trusted — the graph must never panic on unverified input.
#[derive(Debug, Clone)]
pub struct CallGraph {
    callees: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph of `m`.
    ///
    /// Calls are collected from every value of every function —
    /// including instructions in unreachable blocks, which still feed
    /// the analyses' caller lists — so the edge set is a superset of
    /// any dataflow the solvers read.
    pub fn build(m: &Module) -> Self {
        let n = m.num_functions();
        let callees = m
            .func_ids()
            .map(|fid| collect_callees(m.function(fid), n))
            .collect();
        CallGraph { callees }
    }

    /// Number of functions (graph nodes).
    pub fn num_functions(&self) -> usize {
        self.callees.len()
    }

    /// The internal callees of `f`, sorted and duplicate-free.
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.index()]
    }

    /// Recomputes the out-edges of `f` from its (replaced) body without
    /// re-scanning any other function — the `O(1)`-functions update an
    /// incremental analysis session does per edit, where a full
    /// [`CallGraph::build`] would re-scan the whole module.
    ///
    /// On a module that verifies, the result is identical to
    /// rebuilding the graph from scratch. (On *unverified* modules the
    /// two can differ for out-of-range call targets in untouched
    /// functions: `build` filters them against the final function
    /// count, while incremental updates keep each row's original
    /// filtering.)
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a node of this graph.
    pub fn replace_function_edges(&mut self, f: FuncId, body: &Function) {
        let n = self.callees.len();
        self.callees[f.index()] = collect_callees(body, n);
    }

    /// Appends a node for a newly added function (its id must be the
    /// current [`CallGraph::num_functions`], mirroring
    /// [`Module::add_function`]) and collects its out-edges.
    pub fn push_function(&mut self, body: &Function) {
        let n = self.callees.len() + 1;
        self.callees.push(collect_callees(body, n));
    }

    /// Removes the node of `f`, shifting later ids down by one exactly
    /// like [`Module::remove_function`]. Edges *to* `f` are dropped;
    /// callers that still reference the removed function should have
    /// been rejected beforehand (the verifier reports them).
    ///
    /// # Panics
    ///
    /// Panics when `f` is not a node of this graph.
    pub fn remove_function(&mut self, f: FuncId) {
        let gone = f.index();
        self.callees.remove(gone);
        for list in &mut self.callees {
            list.retain(|t| t.index() != gone);
            for t in list.iter_mut() {
                if t.index() > gone {
                    *t = FuncId::new(t.index() - 1);
                }
            }
        }
    }

    /// The weakly connected components of the graph: maximal sets of
    /// functions transitively linked by call edges in *either*
    /// direction. Interprocedural dataflow zig-zags arbitrarily
    /// (returns up, actuals down), so a weak component is exactly the
    /// region an edit inside it can affect — and two distinct
    /// components exchange no dataflow at all.
    ///
    /// Deterministic: members are ascending, components ordered by
    /// their smallest member.
    pub fn weak_components(&self) -> Vec<Vec<FuncId>> {
        let n = self.callees.len();
        let mut root: Vec<u32> = (0..n as u32).collect();
        fn find(root: &mut [u32], mut x: u32) -> u32 {
            while root[x as usize] != x {
                let up = root[root[x as usize] as usize];
                root[x as usize] = up;
                x = up;
            }
            x
        }
        for f in 0..n {
            for t in &self.callees[f] {
                let (a, b) = (find(&mut root, f as u32), find(&mut root, t.index() as u32));
                if a != b {
                    // Union by smaller root keeps component order stable.
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    root[hi as usize] = lo;
                }
            }
        }
        let mut members: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        for f in 0..n {
            members[find(&mut root, f as u32) as usize].push(FuncId::new(f));
        }
        members.retain(|m| !m.is_empty());
        members
    }
}

/// The SCC condensation of a [`CallGraph`], with a bottom-up level
/// schedule.
///
/// SCC ids are assigned in Tarjan pop order, which is a reverse
/// topological order of the condensation DAG: every callee SCC has a
/// smaller id than its callers.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Function index → SCC id.
    scc_of: Vec<u32>,
    /// SCC id → member functions in ascending id order.
    sccs: Vec<Vec<FuncId>>,
    /// Whether the SCC contains a cycle (more than one member, or a
    /// self-recursive function).
    recursive: Vec<bool>,
    /// Bottom-up levels: `levels[0]` holds the leaf SCCs; each SCC's
    /// level is one more than its deepest internal callee SCC. Within a
    /// level, SCC ids are ascending.
    levels: Vec<Vec<u32>>,
}

impl Condensation {
    /// Condenses the call graph of `m`.
    pub fn of_module(m: &Module) -> Self {
        Self::build(&CallGraph::build(m))
    }

    /// Condenses `g` with an iterative Tarjan — no recursion, so call
    /// chains deeper than the thread stack are fine.
    pub fn build(g: &CallGraph) -> Self {
        let n = g.num_functions();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_of = vec![0u32; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut sccs: Vec<Vec<FuncId>> = Vec::new();
        let mut next_index = 0u32;
        // The DFS frame: (node, next-callee position).
        let mut frames: Vec<(u32, usize)> = Vec::new();

        for start in 0..n as u32 {
            if index[start as usize] != UNVISITED {
                continue;
            }
            frames.push((start, 0));
            index[start as usize] = next_index;
            lowlink[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                let vs = v as usize;
                let callees = g.callees(FuncId::new(vs));
                if *pos < callees.len() {
                    let w = callees[*pos].index();
                    *pos += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w as u32);
                        on_stack[w] = true;
                        frames.push((w as u32, 0));
                    } else if on_stack[w] {
                        lowlink[vs] = lowlink[vs].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        let p = parent as usize;
                        lowlink[p] = lowlink[p].min(lowlink[vs]);
                    }
                    if lowlink[vs] == index[vs] {
                        // v is an SCC root: pop its members.
                        let id = sccs.len() as u32;
                        let mut members = Vec::new();
                        loop {
                            let w = stack.pop().expect("SCC member on stack");
                            on_stack[w as usize] = false;
                            scc_of[w as usize] = id;
                            members.push(FuncId::new(w as usize));
                            if w == v {
                                break;
                            }
                        }
                        members.sort_unstable();
                        sccs.push(members);
                    }
                }
            }
        }

        // A cycle: several members, or a self edge.
        let recursive: Vec<bool> = sccs
            .iter()
            .map(|members| {
                members.len() > 1
                    || members
                        .iter()
                        .any(|&f| g.callees(f).binary_search(&f).is_ok())
            })
            .collect();

        // Levels, in SCC id order — callees always have smaller ids, so
        // their levels are already final when a caller is reached.
        let mut level = vec![0u32; sccs.len()];
        let mut max_level = 0u32;
        for (id, members) in sccs.iter().enumerate() {
            for &f in members {
                for &callee in g.callees(f) {
                    let cs = scc_of[callee.index()] as usize;
                    if cs != id {
                        debug_assert!(cs < id, "callee SCCs precede callers");
                        level[id] = level[id].max(level[cs] + 1);
                    }
                }
            }
            max_level = max_level.max(level[id]);
        }
        let mut levels: Vec<Vec<u32>> = vec![
            Vec::new();
            if sccs.is_empty() {
                0
            } else {
                max_level as usize + 1
            }
        ];
        for (id, &l) in level.iter().enumerate() {
            levels[l as usize].push(id as u32);
        }

        Condensation {
            scc_of,
            sccs,
            recursive,
            levels,
        }
    }

    /// Number of functions (nodes of the condensed graph).
    pub fn num_functions(&self) -> usize {
        self.scc_of.len()
    }

    /// Number of SCCs.
    pub fn num_sccs(&self) -> usize {
        self.sccs.len()
    }

    /// The SCC id of function `f`.
    pub fn scc_of(&self, f: FuncId) -> u32 {
        self.scc_of[f.index()]
    }

    /// The member functions of SCC `scc`, in ascending id order.
    pub fn members(&self, scc: u32) -> &[FuncId] {
        &self.sccs[scc as usize]
    }

    /// Whether `scc` contains a call cycle (mutual or self recursion).
    pub fn is_recursive(&self, scc: u32) -> bool {
        self.recursive[scc as usize]
    }

    /// The bottom-up level schedule: `levels()[0]` are the leaf SCCs.
    /// Two SCCs on the same level share no call edge, in either
    /// direction.
    pub fn levels(&self) -> &[Vec<u32>] {
        &self.levels
    }

    /// The widest level — an upper bound on useful scheduling
    /// parallelism.
    pub fn max_level_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Callee;
    use crate::Ty;

    /// Builds a module whose call structure is given by `edges`
    /// (caller index → callee index) over `n` trivial functions.
    fn module_with_edges(n: usize, edges: &[(usize, usize)]) -> Module {
        let mut m = Module::new();
        for i in 0..n {
            let mut b = FunctionBuilder::new(&format!("f{i}"), &[Ty::Int], None);
            let arg = b.param(0);
            for &(from, to) in edges {
                if from == i {
                    b.call(Callee::Internal(FuncId::new(to)), &[arg], None);
                }
            }
            b.ret(None);
            m.add_function(b.finish());
        }
        m
    }

    #[test]
    fn acyclic_chain_levels_bottom_up() {
        // f0 → f1 → f2: three singleton SCCs, three levels, f2 at the
        // bottom.
        let m = module_with_edges(3, &[(0, 1), (1, 2)]);
        let cond = Condensation::of_module(&m);
        assert_eq!(cond.num_sccs(), 3);
        assert_eq!(cond.levels().len(), 3);
        let leaf_scc = cond.levels()[0][0];
        assert_eq!(cond.members(leaf_scc), &[FuncId::new(2)]);
        let top_scc = cond.levels()[2][0];
        assert_eq!(cond.members(top_scc), &[FuncId::new(0)]);
        assert!(!cond.is_recursive(leaf_scc));
    }

    #[test]
    fn mutual_recursion_collapses_to_one_scc() {
        // f0 ⇄ f1, both called by f2.
        let m = module_with_edges(3, &[(0, 1), (1, 0), (2, 0), (2, 1)]);
        let cond = Condensation::of_module(&m);
        assert_eq!(cond.num_sccs(), 2);
        let pair = cond.scc_of(FuncId::new(0));
        assert_eq!(pair, cond.scc_of(FuncId::new(1)));
        assert_eq!(cond.members(pair), &[FuncId::new(0), FuncId::new(1)]);
        assert!(cond.is_recursive(pair));
        // The recursive pair is the leaf level, f2 above it.
        assert_eq!(cond.levels().len(), 2);
        assert_eq!(cond.levels()[0], &[pair]);
    }

    #[test]
    fn self_recursion_is_recursive_singleton() {
        let m = module_with_edges(1, &[(0, 0)]);
        let cond = Condensation::of_module(&m);
        assert_eq!(cond.num_sccs(), 1);
        assert!(cond.is_recursive(0));
        assert_eq!(cond.levels(), &[vec![0u32]]);
    }

    #[test]
    fn independent_functions_share_level_zero() {
        let m = module_with_edges(4, &[]);
        let cond = Condensation::of_module(&m);
        assert_eq!(cond.num_sccs(), 4);
        assert_eq!(cond.levels().len(), 1);
        assert_eq!(cond.levels()[0].len(), 4);
        assert_eq!(cond.max_level_width(), 4);
    }

    #[test]
    fn same_level_sccs_are_never_adjacent() {
        // Diamond + a recursive pair hanging off one side.
        let m = module_with_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 4)]);
        let g = CallGraph::build(&m);
        let cond = Condensation::build(&g);
        for level in cond.levels() {
            for &a in level {
                for &b in level {
                    if a == b {
                        continue;
                    }
                    for &fa in cond.members(a) {
                        for &fb in cond.members(b) {
                            assert!(
                                !g.callees(fa).contains(&fb),
                                "level-mates {fa} → {fb} are adjacent"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn callee_scc_ids_precede_callers() {
        let m = module_with_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 3)]);
        let cond = Condensation::of_module(&m);
        for f in m.func_ids() {
            let me = cond.scc_of(f);
            for v in m.function(f).value_ids() {
                if let Some(Inst::Call {
                    callee: Callee::Internal(t),
                    ..
                }) = m.function(f).value(v).as_inst()
                {
                    let callee_scc = cond.scc_of(*t);
                    if callee_scc != me {
                        assert!(callee_scc < me);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_module_and_out_of_range_targets() {
        let m = Module::new();
        let cond = Condensation::of_module(&m);
        assert_eq!(cond.num_sccs(), 0);
        assert!(cond.levels().is_empty());
        assert_eq!(cond.max_level_width(), 0);

        // A call to a function id beyond the module is ignored, not
        // trusted.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", &[Ty::Int], None);
        let arg = b.param(0);
        b.call(Callee::Internal(FuncId::new(7)), &[arg], None);
        b.ret(None);
        m.add_function(b.finish());
        let g = CallGraph::build(&m);
        assert!(g.callees(FuncId::new(0)).is_empty());
    }

    /// Builds the body of one function calling the given targets.
    fn body_with_calls(name: &str, targets: &[usize]) -> crate::function::Function {
        let mut b = FunctionBuilder::new(name, &[Ty::Int], None);
        let arg = b.param(0);
        for &t in targets {
            b.call(Callee::Internal(FuncId::new(t)), &[arg], None);
        }
        b.ret(None);
        b.finish()
    }

    /// Adding the back edge of a ring through `replace_function_edges`
    /// merges the chain's singleton SCCs into one recursive SCC, and
    /// the incremental graph matches a from-scratch build.
    #[test]
    fn replace_edges_added_edge_merges_sccs() {
        // f0 → f1 → f2 (three singleton SCCs)…
        let mut m = module_with_edges(3, &[(0, 1), (1, 2)]);
        let mut g = CallGraph::build(&m);
        assert_eq!(Condensation::build(&g).num_sccs(), 3);
        // …then f2 is edited to call f0, closing the ring.
        let new_body = body_with_calls("f2", &[0]);
        g.replace_function_edges(FuncId::new(2), &new_body);
        m.replace_function(FuncId::new(2), new_body);
        assert_eq!(g.callees(FuncId::new(2)), &[FuncId::new(0)]);
        let cond = Condensation::build(&g);
        assert_eq!(cond.num_sccs(), 1, "the ring fuses into one SCC");
        assert!(cond.is_recursive(0));
        // Incremental == from scratch.
        let fresh = CallGraph::build(&m);
        for f in m.func_ids() {
            assert_eq!(g.callees(f), fresh.callees(f));
        }
    }

    /// Dropping a ring edge splits the recursive SCC back into
    /// singletons.
    #[test]
    fn replace_edges_removed_edge_splits_scc() {
        let mut m = module_with_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut g = CallGraph::build(&m);
        let cond = Condensation::build(&g);
        assert_eq!(cond.num_sccs(), 1);
        assert!(cond.is_recursive(0));
        let new_body = body_with_calls("f1", &[]);
        g.replace_function_edges(FuncId::new(1), &new_body);
        m.replace_function(FuncId::new(1), new_body);
        let cond = Condensation::build(&g);
        assert_eq!(cond.num_sccs(), 3, "cutting the ring splits the SCC");
        for scc in 0..3 {
            assert!(!cond.is_recursive(scc));
        }
        let fresh = CallGraph::build(&m);
        for f in m.func_ids() {
            assert_eq!(g.callees(f), fresh.callees(f));
        }
    }

    /// push_function / remove_function keep the graph equal to a
    /// from-scratch build, including the id shift on removal.
    #[test]
    fn incremental_add_and_remove_match_rebuild() {
        let mut m = module_with_edges(3, &[(0, 1), (0, 2)]);
        let mut g = CallGraph::build(&m);
        // Add f3 calling f1.
        let body = body_with_calls("f3", &[1]);
        g.push_function(&body);
        m.add_function(body);
        let fresh = CallGraph::build(&m);
        assert_eq!(g.num_functions(), 4);
        for f in m.func_ids() {
            assert_eq!(g.callees(f), fresh.callees(f));
        }
        // Remove f1 (still called by f0 and f3 — the *graph* just drops
        // the edges; rejecting such removals is the session's job).
        g.remove_function(FuncId::new(1));
        assert_eq!(g.num_functions(), 3);
        // Old f2 is now f1: f0's surviving callee list is exactly it.
        assert_eq!(g.callees(FuncId::new(0)), &[FuncId::new(1)]);
        // Old f3 (now f2) called only the removed function.
        assert!(g.callees(FuncId::new(2)).is_empty());
    }

    /// Weak components: call direction does not matter, isolation does.
    #[test]
    fn weak_components_cover_zigzag_dataflow() {
        // {f0 → f1 ← f2} zig-zags into one component; {f3 → f4} is
        // another; f5 is alone.
        let m = module_with_edges(6, &[(0, 1), (2, 1), (3, 4)]);
        let g = CallGraph::build(&m);
        let comps = g.weak_components();
        let ids: Vec<Vec<usize>> = comps
            .iter()
            .map(|c| c.iter().map(|f| f.index()).collect())
            .collect();
        assert_eq!(ids, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
        // Empty graph: no components.
        assert!(CallGraph::build(&Module::new())
            .weak_components()
            .is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 20k-deep chain: the iterative Tarjan must not recurse.
        let n = 20_000;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let m = module_with_edges(n, &edges);
        let cond = Condensation::of_module(&m);
        assert_eq!(cond.num_sccs(), n);
        assert_eq!(cond.levels().len(), n);
    }
}
