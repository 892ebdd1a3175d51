//! SCF batch workload: six canonical SCF jobs on small water boxes, run
//! through the scheduler at world 2.
//!
//! Each timed request is one `Scheduler::run_batch` of the whole batch on
//! a fresh default scheduler, so every batch pays its own plan builds the
//! way a newly submitted batch would. The six systems are set up by the
//! water-box machinery, which also times the density comparison of the
//! water workloads on them (one rank, every system per repetition), so
//! this workload reports the same end-to-end metrics as the others.

use std::time::Instant;

use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_pipeline::{BatchJob, ScfJobSpec, Scheduler, SchedulerOutcome};

use crate::spans::Spans;
use crate::water::{self, keep_going, WaterCase};
use crate::{median, sample_note, Args, Outcome};

/// World size of the batch.
const WORLD: usize = 2;

/// Share of the time budget spent on the density comparison; the rest
/// goes to batches.
const DENSITY_SHARE: f64 = 0.3;

/// The six boxes: three 32-molecule cubes and two 64-molecule elongated
/// boxes from distinct seeds, plus a repeat of the first cube, so two jobs
/// share one sparsity pattern.
fn boxes(seed: u64) -> Vec<(&'static str, WaterBox)> {
    let s = |k: u64| seed.wrapping_add(k);
    vec![
        ("cubic-0", WaterBox::cubic(1, s(0))),
        ("elongated-1", WaterBox::elongated(1, 2, s(1))),
        ("cubic-2", WaterBox::cubic(1, s(2))),
        ("elongated-3", WaterBox::elongated(1, 2, s(3))),
        ("cubic-4", WaterBox::cubic(1, s(4))),
        ("cubic-0-repeat", WaterBox::cubic(1, s(0))),
    ]
}

/// The batch systems: built, orthogonalized at 1e-9 and filtered at 1e-5
/// on one rank, as a client would before submitting them.
const SYSTEMS: WaterCase = WaterCase {
    name: "scf-batch-w2",
    world: 1,
    boxes,
    eps_ortho: 1e-9,
    eps_filter: 1e-5,
};

/// One batch: its makespan, its outcome and the scheduler's plan-cache
/// counters. Gates every job and the plan-cache accounting identity.
fn one_batch(
    specs: &[ScfJobSpec],
    spans: &mut Spans,
    out: &mut Outcome,
) -> (f64, SchedulerOutcome, usize, usize) {
    let jobs: Vec<BatchJob> = specs.iter().cloned().map(BatchJob::Scf).collect();
    let scheduler = Scheduler::default();
    let t = Instant::now();
    let outcome = spans.time("batch", |_| scheduler.run_batch(WORLD, jobs));
    let seconds = t.elapsed().as_secs_f64();
    let stats = scheduler.engine().stats();

    out.gate(outcome.results.len() == specs.len(), || {
        format!(
            "batch returned {} of {} results",
            outcome.results.len(),
            specs.len()
        )
    });
    let mut planning_decisions = 0;
    for r in &outcome.results {
        let scf = r.scf.as_ref();
        let finite = scf
            .is_some_and(|s| s.final_energy.is_finite() && s.final_electrons.is_finite())
            && r.result.store().coords().iter().all(|&(br, bc)| {
                r.result
                    .block(br, bc)
                    .is_some_and(|b| b.as_slice().iter().all(|x| x.is_finite()))
            });
        out.gate(!r.quarantined && finite, || {
            format!(
                "job {}: quarantined = {}, finite result = {finite}",
                r.name, r.quarantined
            )
        });
        planning_decisions += r.group_size * scf.map_or(0, |s| s.iterations);
    }
    let (builds, hits) = (stats.symbolic_builds, stats.cache_hits);
    out.gate(builds + hits == planning_decisions, || {
        format!(
            "plan-cache accounting: builds {builds} + hits {hits} != Σ group_size × iterations \
             = {planning_decisions}"
        )
    });
    (seconds, outcome, builds, hits)
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let (mut out, systems) = water::run(&SYSTEMS, args, args.seconds * DENSITY_SHARE);
    // Default SCF options: canonical ensemble, 30 iterations at most.
    let specs: Vec<ScfJobSpec> = systems
        .into_iter()
        .map(|s| ScfJobSpec::new(s.name, s.kt, s.mu, s.n_electrons))
        .collect();
    let mut spans = Spans::new(args.trace);

    let comm = SerialComm::new();
    let budget = if args.trace {
        0.0
    } else {
        args.seconds * (1.0 - DENSITY_SHARE)
    };
    let start = Instant::now();
    let mut makespans = Vec::new();
    let (mut converged, mut jobs) = (0usize, 0usize);
    let mut last = None;
    while keep_going(&comm, start, makespans.len(), budget) {
        let (seconds, outcome, builds, hits) = one_batch(&specs, &mut spans, &mut out);
        makespans.push(seconds);
        for r in &outcome.results {
            converged += usize::from(r.scf.as_ref().is_some_and(|s| s.converged));
            jobs += 1;
        }
        last = Some((seconds, outcome, builds, hits));
    }
    let (seconds, outcome, builds, hits) = last.expect("one batch");

    out.notes
        .push(sample_note("request_s (run_batch makespan)", &makespans));
    out.notes
        .push(format!("scf jobs converged: {converged} of {jobs}"));
    for r in &outcome.results {
        let scf = r.scf.as_ref();
        out.notes.push(format!(
            "job {:<15} group {} epoch {} iterations {:>2} converged {:<5} electrons {:.4} mu {:.5} \
             busy {:.4} s",
            r.name,
            r.group_size,
            r.epoch,
            scf.map_or(0, |s| s.iterations),
            scf.is_some_and(|s| s.converged),
            scf.map_or(f64::NAN, |s| s.final_electrons),
            r.report.mu,
            r.seconds
        ));
    }
    let m = &mut out.metrics;
    m.insert("request_s", median(&makespans));
    m.insert("chem.scf_converged_frac", converged as f64 / jobs as f64);

    if args.trace {
        let iterations: usize = outcome
            .results
            .iter()
            .map(|r| r.scf.as_ref().map_or(0, |s| s.iterations))
            .sum();
        let busy: f64 = outcome.results.iter().map(|r| r.seconds).sum();
        let group_busy: f64 = outcome
            .results
            .iter()
            .map(|r| r.seconds * r.group_size as f64)
            .sum();
        let steal = &outcome.steal_stats;
        // The density comparison ran on one rank; all traffic is the batch's.
        m.insert("comsim.bytes", outcome.world_stats.total_bytes() as f64);
        m.insert("comsim.msgs", outcome.world_stats.total_msgs() as f64);
        m.insert("core.plan_builds", builds as f64);
        m.insert("core.plan_hits", hits as f64);
        m.insert("sched.epochs", steal.epochs as f64);
        m.insert("sched.stolen_jobs", steal.stolen_jobs as f64);
        m.insert("sched.idle_s", steal.measured_idle_seconds);
        m.insert("sched.overhead_s", seconds - group_busy / WORLD as f64);
        m.insert(
            "core.mu_bisect_iters",
            outcome
                .results
                .iter()
                .map(|r| r.report.bisect_iterations as f64)
                .sum(),
        );
        m.insert("chem.scf_iters", iterations as f64);
        m.insert("chem.scf_iter_s", busy / iterations.max(1) as f64);
        *m.entry("trace.spans").or_insert(0.0) += spans.len() as f64;
        out.notes
            .push("scf-batch-w2: span self times (caller thread)".to_string());
        out.notes.extend(spans.table());
    }
    out
}
