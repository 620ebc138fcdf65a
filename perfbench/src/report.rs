//! Run bookkeeping: operation and failure counts, named metrics with
//! units, the host shape, and the final one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::trace::Tracer;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("warm_start_s", "s"),
    ("snapshot_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("no_alias_pct", "%"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("query_p50_ns", "ns"),
    ("query_p99_ns", "ns"),
    ("query_kqps", "kq/s"),
    ("ok_pct", "%"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.apply_edit_ms", "ms"),
    ("lang.units_relowered", "count"),
    ("lang.compile_ms", "ms"),
    ("range.busy_ms", "ms"),
    ("range.max_fn_ms", "ms"),
    ("lr.busy_ms", "ms"),
    ("lr.max_fn_ms", "ms"),
    ("budget.wall_ms", "ms"),
    ("parts.wall_ms", "ms"),
    ("parts.efficiency", "ratio"),
    ("assemble.wall_ms", "ms"),
    ("arena.mb", "MB"),
    ("arena.exprs", "count"),
    ("arena.hit_ratio", "ratio"),
    ("gr.wall_ms", "ms"),
    ("gr.sweeps", "count"),
    ("gr.locs", "count"),
    ("matrices.wall_ms", "ms"),
    ("matrices.cells", "count"),
    ("matrices.mb", "MB"),
    ("matrices.max_fn_cells", "count"),
    ("matrices.max_fn_ms", "ms"),
    ("matrices.distinct_locs_share", "ratio"),
    ("demand.hit_ratio", "ratio"),
    ("demand.pair_misses", "count"),
    ("session.apply_ms", "ms"),
    ("session.freeze_ms", "ms"),
    ("session.parts_reuse_ratio", "ratio"),
    ("session.gr_reuse_ratio", "ratio"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.first_query_us", "us"),
    ("service.snapshot_ns", "ns"),
    ("service.epochs", "count"),
    ("service.monotone_violations", "count"),
    ("loadgen.lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Set-up repetitions per run: set-up is short, so one sample would
/// mostly measure the host's momentary speed.
pub const SETUP_REPEATS: usize = 5;

/// Input sizes of the workloads. `full` is what the benchmark measures;
/// `reduced` keeps the self-test to seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub flat_insts: usize,
    pub deep_funcs: usize,
    pub service_insts: usize,
    /// Minimum measurement rounds of `flat_500k` and `deep_callgraph`
    /// (warm starts and one edit each, and a build every other round);
    /// rounds go on until the run's time is up.
    pub flat_rounds: usize,
    pub deep_rounds: usize,
    /// `NoAlias` claims checked against the interpreter.
    pub oracle_claims: usize,
    /// Whether the pinned `QueryStats` file applies.
    pub pinned: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        flat_insts: 500_000,
        deep_funcs: 6_000,
        service_insts: 10_000,
        flat_rounds: 2,
        deep_rounds: 12,
        oracle_claims: 2_000,
        pinned: true,
    };

    pub const REDUCED: Scale = Scale {
        flat_insts: 20_000,
        deep_funcs: 300,
        service_insts: 800,
        flat_rounds: 2,
        deep_rounds: 3,
        oracle_claims: 200,
        pinned: false,
    };
}

/// Everything one benchmark run accumulates.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub nproc: usize,
    pub tracer: Tracer,
    /// Self-test hook: flips the first verdict a correctness check
    /// compares, which the check must then report.
    pub tamper: bool,
    tampered: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    host: Vec<(String, String)>,
}

impl Run {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Run {
            workload: workload.to_owned(),
            seed,
            seconds,
            scale,
            nproc,
            tracer: Tracer::new(trace, Instant::now()),
            tamper: false,
            tampered: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            host: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Self-test hook (see [`Run::tamper`]): corrupts the first verdict
    /// handed to it when tampering is on.
    pub fn tamper_verdict<T: PartialEq>(&mut self, v: T, other: T) -> T {
        if self.tamper && !self.tampered && v != other {
            self.tampered = true;
            return other;
        }
        v
    }

    /// Runs the workload's set-up [`SETUP_REPEATS`] times and records
    /// the median time as `setup_s`; returns the last set-up's result.
    /// A set-up that fails is counted and ends the repeats.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Run) -> Result<T, String>) -> Option<T> {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let t = Instant::now();
            let out = f(self);
            times.push(t.elapsed().as_secs_f64());
            match out {
                Ok(v) => last = Some(v),
                Err(e) => {
                    self.op(false, || format!("set-up: {e}"));
                    return None;
                }
            }
        }
        self.metric("setup_s", median(&times));
        last
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.push((name.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Records a host-shape or workload-parameter field.
    pub fn host(&mut self, key: &str, value: impl ToString) {
        self.host.push((key.to_owned(), value.to_string()));
    }

    /// Finishes the run: fills the run-level metrics, writes the trace,
    /// prints the host line and returns the result line.
    pub fn finish(&mut self) -> String {
        self.metric("peak_rss_mb", peak_rss_mb());
        let traced = self.traced();
        if !traced {
            for (name, _) in END_TO_END {
                if *name != "ok_pct" && self.get(name).is_none() {
                    self.op(false, || {
                        format!("end-to-end metric {name} was not measured")
                    });
                }
            }
        }
        let ok = 100.0 * (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("ok_pct", ok);

        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            // A layer the workload never calls reports 0.
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }

        self.write_trace();
        let mut host = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": \"{}\"",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(traced),
            self.nproc,
            source_commit()
        );
        for (k, v) in &self.host {
            let _ = write!(host, ", \"{k}\": \"{v}\"");
        }
        host.push('}');
        println!("host {host}");
        if traced {
            eprintln!("perfbench: self time per layer (ms):");
            for (name, (total, own)) in self.tracer.self_times_ns() {
                eprintln!(
                    "  {name:<24} total {:>10.2}  self {:>10.2}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    fn write_trace(&mut self) {
        if !self.traced() {
            return;
        }
        let dir = Path::new(".perfbench_out");
        let path = dir.join(format!("trace-{}-s{}.json", self.workload, self.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.tracer.to_json()));
        if let Err(e) = written {
            self.op(false, || format!("writing {}: {e}", path.display()));
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Identifies the measured code: the git commit when run from a clone,
/// otherwise a hash of the program's sources (benchmark checkouts are
/// plain file trees).
fn source_commit() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_owned();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
