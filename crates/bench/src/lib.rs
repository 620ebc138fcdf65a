//! Shared table-formatting helpers for the experiment binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | binary           | paper artifact |
//! |------------------|----------------|
//! | `fig13`          | Figure 13: per-benchmark `%scev`/`%basic`/`%rbaa`/`%(r+b)` |
//! | `fig14`          | Figure 14: no-alias counts attributed to the global test |
//! | `fig15`          | Figure 15: runtime vs program size, with Pearson R |
//! | `symbolic_ratio` | §5: share of pointers with exclusively symbolic ranges |
//! | `ablation`       | design-choice ablations (descending steps, local test, widening) |
//!
//! Run with `cargo run -p sra-bench --release --bin <name>`.
//!
//! The criterion benches (`cargo bench -p sra-bench`) cover the
//! lattice operations (`lattice`), whole-pipeline analysis
//! (`analysis`), and the batch driver (`throughput`: serial vs
//! parallel analysis, per-query vs batched+cached all-pairs
//! evaluation, with a printed `speedup:` summary).

use std::fmt::Write as _;

use sra_core::{
    lr, pointer_values, pool, AliasMatrix, AnalysisConfig, AnalysisSession, BatchAnalysis,
    GrAnalysis, GrConfig, LrAnalysis, LrPart, QueryStats, RbaaAnalysis,
};
use sra_ir::{FuncId, Module};
use sra_lang::SourceProgram;
use sra_range::{RangeAnalysis, RangePart};
use sra_symbolic::{Bound, SymExpr, SymRange, Symbol};
use sra_workloads::edits::{self, Edit};
use sra_workloads::source_edits::SourceEditStep;

/// A range whose endpoints are `depth`-deep opaque min/max chains over
/// pairwise-incomparable symbols — the worst case for boxed deep
/// equality and for join's `Bound::min`/`max` re-proving. Shared by
/// the `lattice` criterion groups and the `trajectory` interning gate
/// so both always measure the same workload shape.
pub fn deep_chain_range(depth: u32, seed: u32) -> SymRange {
    let mut lo = SymExpr::from(Symbol::new(seed));
    let mut hi = SymExpr::from(Symbol::new(seed + 1));
    for i in 0..depth {
        lo = SymExpr::min(SymExpr::from(Symbol::new(seed + 2 + i)), lo);
        hi = SymExpr::max(SymExpr::from(Symbol::new(seed + 2 + i)), hi);
    }
    SymRange::with_bounds(Bound::Fin(lo), Bound::Fin(hi))
}

/// The seed all-pairs path: every unordered pair answered from scratch
/// through `alias_with_test`, function after function. Shared by the
/// `throughput` bench and the acceptance test so both always measure
/// the same sweep.
pub fn per_query_sweep(m: &Module, rbaa: &RbaaAnalysis) -> QueryStats {
    let mut total = QueryStats::default();
    for f in m.func_ids() {
        let ptrs = pointer_values(m, f);
        total.merge(&QueryStats::run_pairs(rbaa, f, &ptrs));
    }
    total
}

/// The batched all-pairs path: one cached [`AliasMatrix`] per function,
/// built on `threads` workers with hash-consed range comparisons.
pub fn batched_sweep(m: &Module, rbaa: &RbaaAnalysis, threads: usize) -> QueryStats {
    let matrices = pool::run_indexed(m.num_functions(), threads, |i| {
        let f = FuncId::new(i);
        AliasMatrix::build_for_on(rbaa, f, pointer_values(m, f), &pool::WorkerPool::forced(1))
    });
    let mut total = QueryStats::default();
    for mx in &matrices {
        total.merge(mx.stats());
    }
    total
}

/// The scratch side of the edit-stream workload: apply each edit to a
/// plain module and re-run the full batch analysis (what a server
/// without sessions would do). Returns the summed query count as a
/// keep-alive value.
pub fn scratch_replay(m: &Module, stream: &[Edit]) -> usize {
    let mut shadow = m.clone();
    let mut total = 0usize;
    for edit in stream {
        edits::apply_to_module(&mut shadow, edit).expect("stream edits are valid");
        let batch = BatchAnalysis::analyze_with(&shadow, AnalysisConfig::default());
        total += batch.total_stats().queries;
    }
    total
}

/// Builds the long-lived session a server would keep per module (the
/// one-time load cost, paid outside the per-edit measurements — the
/// same convention the all-pairs measurements use by pre-building
/// `rbaa` once and timing only the sweeps).
pub fn build_session(m: &Module) -> AnalysisSession {
    AnalysisSession::with_config(m.clone(), AnalysisConfig::default()).expect("module verifies")
}

/// The session side of the edit-stream workload: incremental updates
/// against a pre-built session (clone one per replay from
/// [`build_session`]'s result). Verdict-for-verdict identical to
/// [`scratch_replay`] — the `session_equivalence` suite pins that —
/// so only wall time differs.
pub fn session_replay(session: &mut AnalysisSession, stream: &[Edit]) -> usize {
    let mut total = 0usize;
    for edit in stream {
        edits::apply_to_session(session, edit).expect("stream edits are valid");
        total += session
            .module()
            .func_ids()
            .map(|f| session.stats_of(f).queries)
            .sum::<usize>();
    }
    total
}

/// The scratch side of the *textual* edit-stream workload: recompile
/// the whole program text and re-run the full batch analysis after
/// every edit (what a server without the incremental frontend would
/// do). Returns the summed query count as a keep-alive value.
pub fn source_scratch_replay(steps: &[SourceEditStep]) -> usize {
    let mut total = 0usize;
    for step in steps {
        let module = sra_lang::compile(&step.text).expect("stream text compiles");
        let batch = BatchAnalysis::analyze_with(&module, AnalysisConfig::default());
        total += batch.total_stats().queries;
    }
    total
}

/// The incremental side of the textual workload: diff each new text at
/// function granularity, re-lower only changed units, and map the diff
/// onto a pre-built session (clone the program and session per replay
/// — the server's load cost stays outside the timed region). The cost
/// measured here is honest about the incremental pipeline's overheads:
/// it includes tokenizing the whole text to diff it and re-lowering
/// the changed functions, not just the session update.
pub fn source_session_replay(
    program: &mut SourceProgram,
    session: &mut AnalysisSession,
    steps: &[SourceEditStep],
) -> usize {
    let mut total = 0usize;
    for step in steps {
        let diff = program
            .apply_edit(&step.text)
            .expect("stream text compiles");
        session
            .apply_source_edit(diff)
            .expect("session accepts registry diffs");
        total += session
            .module()
            .func_ids()
            .map(|f| session.stats_of(f).queries)
            .sum::<usize>();
    }
    total
}

/// The pre-fusion scratch pipeline, replicated from public building
/// blocks: a one-shot thread pool per phase (budget scan, part
/// analyses, matrix builds), fully serial canonical-arena assembly,
/// and a forced-width pool per GR solve — the exact schedule the
/// BENCH_9-era driver ran. The `trajectory` harness keeps it as the
/// `pipeline` group's legacy arm so the fused persistent-pool driver's
/// speedup is measured in-run on the same machine, not against a stale
/// JSON. Returns the summed query count as a keep-alive value.
pub fn legacy_scratch_pipeline(m: &Module, threads: usize) -> usize {
    let config = AnalysisConfig::builder().threads(threads).build();
    let nf = m.num_functions();
    let budgets: Vec<(usize, usize)> = pool::run_indexed(nf, threads, |i| {
        let fid = FuncId::new(i);
        (
            sra_range::symbol_budget(m.function(fid), config.range),
            lr::symbol_budget(m, fid),
        )
    });
    let mut range_bases = Vec::with_capacity(nf);
    let mut lr_bases = Vec::with_capacity(nf);
    let (mut rb, mut lb) = (0u32, 0u32);
    for &(r, l) in &budgets {
        range_bases.push(rb);
        lr_bases.push(lb);
        rb += r as u32;
        lb += l as u32;
    }
    let parts: Vec<(RangePart, LrPart)> = pool::run_indexed(nf, threads, |i| {
        let fid = FuncId::new(i);
        (
            sra_range::analyze_function_part(m.function(fid), config.range, range_bases[i]),
            lr::analyze_function_part(m, fid, lr_bases[i]),
        )
    });
    let mut range_parts = Vec::with_capacity(nf);
    let mut lr_parts = Vec::with_capacity(nf);
    for (r, l) in parts {
        range_parts.push(r);
        lr_parts.push(l);
    }
    let ranges = RangeAnalysis::from_parts(range_parts);
    let lrs = LrAnalysis::from_parts(lr_parts);
    let gr_config = GrConfig {
        threads: config.threads,
        ..config.gr
    };
    let gr = GrAnalysis::analyze_with(m, &ranges, gr_config);
    let rbaa = RbaaAnalysis::from_pieces(ranges, gr, lrs);
    let matrices = pool::run_indexed(nf, threads, |i| {
        let f = FuncId::new(i);
        AliasMatrix::build_for_on(&rbaa, f, pointer_values(m, f), &pool::WorkerPool::forced(1))
    });
    matrices.iter().map(|mx| mx.stats().queries).sum()
}

/// Renders a plain-text table: a header row plus aligned data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        let _ = write!(line, "{:<w$}  ", h, w = width[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    let total: usize = width.iter().sum::<usize>() + 2 * cols;
    out.push_str(&"-".repeat(total.saturating_sub(2)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                let _ = write!(line, "{:<w$}  ", cell, w = width[i]);
            } else {
                let _ = write!(line, "{:>w$}  ", cell, w = width[i]);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a percentage like the paper's tables (two decimals).
pub fn pct(x: f64) -> String {
    format!("{:.2}", x)
}

/// Formats a count with thousands separators, e.g. `3,093,541`.
pub fn thousands(mut n: usize) -> String {
    let mut parts = Vec::new();
    loop {
        if n < 1000 {
            parts.push(n.to_string());
            break;
        }
        parts.push(format!("{:03}", n % 1000));
        n /= 1000;
    }
    parts.reverse();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(3093541), "3,093,541");
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["Program", "#Queries"],
            &[
                vec!["cfrac".into(), "89,255".into()],
                vec!["gs".into(), "608,374".into()],
            ],
        );
        assert!(t.contains("Program"));
        assert!(t.lines().count() == 4);
        // Numeric column is right-aligned.
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[2].ends_with("89,255"));
    }

    #[test]
    fn pct_two_decimals() {
        assert_eq!(pct(41.7341), "41.73");
        assert_eq!(pct(0.0), "0.00");
    }
}
