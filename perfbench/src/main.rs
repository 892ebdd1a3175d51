//! Paper-workload benchmark of the submatrix method.
//!
//! Drives the paper's pipeline from outside, through public functions
//! only: water box → S/K build → Löwdin orthogonalization → symbolic plan
//! and numeric execute of the submatrix density, against the sparse
//! Newton–Schulz comparator; plus batches of canonical SCF jobs through the
//! scheduler. See `README.md` next to this crate for the workloads, the
//! metrics and what each layer is expected to move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end metrics, timed with tracing off; with
//! `--trace 1` they are the per-layer metrics of a traced run. The exit
//! code is non-zero when any correctness gate failed.

mod layers;
mod scf;
mod spans;
mod water;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("density_s", "s"),
    ("ns_density_s", "s"),
    ("request_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of the traced run, reported by every
/// workload (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("chem.build_s", "s"),
    ("core.ortho_s", "s"),
    ("core.ortho_iters", "count"),
    ("core.plan_s", "s"),
    ("dbcsr.gather_s", "s"),
    ("dbcsr.gather_bytes", "bytes"),
    ("core.assembly_s", "s"),
    ("core.extract_s", "s"),
    ("linalg.tred2_s", "s"),
    ("linalg.tql2_s", "s"),
    ("core.sign_build_s", "s"),
    ("linalg.tred2_gflops", "GFLOP/s"),
    ("linalg.sign_build_gflops", "GFLOP/s"),
    ("core.execute_serial_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.attributed_frac", "fraction"),
    ("core.n_submatrices", "count"),
    ("core.avg_dim", "count"),
    ("core.max_dim", "count"),
    ("core.ns_iters", "count"),
    ("core.energy_diff_vs_ns_mev_atom", "meV/atom"),
    ("dbcsr.multiply_flops", "flop"),
    ("dbcsr.multiply_gflops", "GFLOP/s"),
    ("dbcsr.bytes_shifted", "bytes"),
    ("comsim.bytes", "bytes"),
    ("comsim.msgs", "count"),
    ("sched.epochs", "count"),
    ("sched.stolen_jobs", "count"),
    ("sched.idle_s", "s"),
    ("sched.overhead_s", "s"),
    ("core.plan_builds", "count"),
    ("core.plan_hits", "count"),
    ("core.mu_bisect_iters", "count"),
    ("chem.scf_iters", "count"),
    ("chem.scf_iter_s", "s"),
    ("chem.scf_converged_frac", "fraction"),
    ("trace.density_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WaterTight,
    WaterLooseW2,
    ScfBatchW2,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "water256-tight" => Ok(Workload::WaterTight),
            "water256-loose-w2" => Ok(Workload::WaterLooseW2),
            "scf-batch-w2" => Ok(Workload::ScfBatchW2),
            _ => Err(format!("unknown workload '{s}'")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WaterTight => "water256-tight",
            Workload::WaterLooseW2 => "water256-loose-w2",
            Workload::ScfBatchW2 => "scf-batch-w2",
        }
    }

    fn world(self) -> usize {
        match self {
            Workload::WaterTight => 1,
            Workload::WaterLooseW2 | Workload::ScfBatchW2 => 2,
        }
    }
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad(&"must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (set-ups, densities, batches, ...).
    pub attempted: u64,
    /// Operations whose correctness gate failed.
    pub failed: u64,
    /// One line per failed gate.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (sample counts, spreads, span tables).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation; `ok == false` records `what` as a
    /// failure.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// One-line summary of a timing sample: median, min, max and count.
pub fn sample_note(name: &str, xs: &[f64]) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{name}: median {:.6} s, min {lo:.6} s, max {hi:.6} s, n = {}",
        median(xs),
        xs.len()
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <water256-tight|water256-loose-w2|scf-batch-w2> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "# run: workload={} seed={} seconds={} trace={} world={} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.world(),
    );

    let mut out = match args.workload {
        Workload::WaterTight => water::run(&water::TIGHT, &args, args.seconds).0,
        Workload::WaterLooseW2 => water::run(&water::LOOSE_W2, &args, args.seconds).0,
        Workload::ScfBatchW2 => scf::run(&args),
    };

    let names: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    if let (false, Some(rss)) = (args.trace, peak_rss_mb()) {
        out.metrics.insert("peak_rss_mb", rss);
    }
    // Per-layer metrics a workload does not exercise read 0; a missing or
    // non-finite end-to-end metric is a failure.
    let mut values = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        if !value.is_finite() {
            out.gate(false, || format!("metric {name} is missing or not finite"));
        }
        values.push((name, unit, value));
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    let mut fields = Vec::new();
    for (name, unit, value) in values {
        println!("{name:<32} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "# attempted {} failed {} failed_frac {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
