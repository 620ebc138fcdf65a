//! Incremental re-analysis: keep a long-lived [`AnalysisSession`] over
//! an evolving module and pay only for what an edit can actually
//! affect, with results byte-identical to re-analyzing from scratch.
//!
//! ```text
//! cargo run --release --example incremental_session [insts] [edits]
//! ```

use sra::core::{analyze_parallel, AnalysisConfig, AnalysisSession};
use sra::workloads::{edits, scaling};

fn main() {
    let insts: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let num_edits: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    let module = scaling::generate_module(insts, 42);
    println!(
        "module: {} functions, {} instructions",
        module.num_functions(),
        module.num_insts()
    );
    let stream = edits::generate_edit_stream(&module, num_edits, 7);

    let config = AnalysisConfig::default();
    let mut session = AnalysisSession::with_config(module, config).expect("module verifies");

    let mut session_time = std::time::Duration::ZERO;
    let mut scratch_time = std::time::Duration::ZERO;
    for edit in &stream {
        let t = std::time::Instant::now();
        edits::apply_to_session(&mut session, edit).expect("stream edits are valid");
        session_time += t.elapsed();

        // What a batch system would do instead: full re-analysis.
        let t = std::time::Instant::now();
        std::hint::black_box(analyze_parallel(session.module(), config));
        scratch_time += t.elapsed();

        // The session's contract: after every edit, every range, GR
        // and LR state is byte-identical to a scratch re-analysis.
        session
            .verify_against_scratch()
            .expect("byte-identical states after every edit");
    }

    let stats = session.stats();
    println!(
        "applied {} edits: {} parts re-analyzed, {} reused ({} rebased onto shifted symbol blocks)",
        stats.edits, stats.parts_reanalyzed, stats.parts_reused, stats.parts_rebased
    );
    println!(
        "GR components: {} solved, {} reused; GR functions: {} solved, {} reused; \
         matrices: {} rebuilt, {} reused",
        stats.gr_components_solved,
        stats.gr_components_reused,
        stats.gr_functions_solved,
        stats.gr_functions_reused,
        stats.matrices_rebuilt,
        stats.matrices_reused
    );
    assert!(stats.parts_reused > 0, "incrementality must reuse parts");
    println!(
        "incremental re-analysis: {session_time:?} vs from-scratch: {scratch_time:?} ({:.1}x)",
        scratch_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9)
    );
}
