//! Water-box density workloads: the submatrix density against sparse
//! Newton–Schulz purification on the same orthogonalized `K̃`.
//!
//! A workload is a set of water boxes. One run sets them up several times
//! from scratch (generation, S/K build, Löwdin orthogonalization, cold
//! symbolic plan) and reports the median set-up time. It then repeats
//! {one plan-cached submatrix density of every box, one Newton–Schulz
//! density of every box} until the time budget is spent. At world > 1
//! every step runs as a collective on `run_ranks`; rank 0 times it between
//! barriers and decides, by broadcast, whether another repetition fits.

use std::sync::Arc;
use std::time::Instant;

use sm_bench::workloads::accuracy_basis;
use sm_chem::builder::build_system;
use sm_chem::energy::{band_energy, electron_count, error_mev_per_atom};
use sm_chem::WaterBox;
use sm_comsim::{run_ranks, Comm, ReduceOp, SerialComm};
use sm_core::baseline::{
    newton_schulz_density, orthogonalize_sparse, NewtonSchulzOptions, SparseIterationReport,
};
use sm_core::engine::{ExecutionPlan, NumericOptions, SubmatrixEngine};
use sm_dbcsr::DbcsrMatrix;

use crate::layers::{self, Replay};
use crate::spans::Spans;
use crate::{median, sample_note, Args, Outcome};

/// Threshold below which S/K elements are not built at all.
const EPS_BUILD: f64 = 1e-11;

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Allowed deviation of the electron count `2·Tr D̃` from `8·n_mol`.
const ELECTRON_TOL: f64 = 1e-3;

/// Allowed band-energy difference between the submatrix and the
/// Newton–Schulz density, meV per atom.
const ENERGY_TOL_MEV: f64 = 1.0;

/// One water-box density workload.
#[derive(Debug)]
pub struct WaterCase {
    pub name: &'static str,
    /// Ranks of the world the workload runs on.
    pub world: usize,
    /// The named boxes, generated from the run's seed.
    pub boxes: fn(u64) -> Vec<(&'static str, WaterBox)>,
    /// Filter of the sparse inverse-square-root iteration.
    pub eps_ortho: f64,
    /// Block filter applied to `K̃`; also the Newton–Schulz filter.
    pub eps_filter: f64,
}

fn water256(seed: u64) -> Vec<(&'static str, WaterBox)> {
    vec![("water256", WaterBox::cubic(2, seed))]
}

/// 256 molecules, tight filter, one rank: the dense kernels dominate.
pub const TIGHT: WaterCase = WaterCase {
    name: "water256-tight",
    world: 1,
    boxes: water256,
    eps_ortho: 1e-10,
    eps_filter: 1e-8,
};

/// 256 molecules, loose filter, two ranks: communication takes a share.
pub const LOOSE_W2: WaterCase = WaterCase {
    name: "water256-loose-w2",
    world: 2,
    boxes: water256,
    eps_ortho: 1e-9,
    eps_filter: 1e-5,
};

/// One set-up box on one rank.
pub struct System {
    pub name: &'static str,
    n_atoms: usize,
    /// Electron target `2 · occupied orbitals per molecule · n_mol`.
    pub n_electrons: f64,
    /// Mid-gap chemical potential.
    pub mu: f64,
    /// The filtered, orthogonalized `K̃` (this rank's blocks).
    pub kt: DbcsrMatrix,
    plan: Arc<ExecutionPlan>,
    ortho: SparseIterationReport,
}

/// One timed repetition over every box.
struct Rep {
    density_s: f64,
    ns_density_s: f64,
    /// Largest |E_band(submatrix) − E_band(NS)| over the boxes.
    energy_diff_mev: f64,
    comm_bytes: u64,
    comm_msgs: u64,
    ns: Vec<SparseIterationReport>,
}

/// Run the workload `case` with `budget` seconds for the timed loop.
/// Returns rank 0's outcome and rank 0's boxes.
pub fn run(case: &WaterCase, args: &Args, budget: f64) -> (Outcome, Vec<System>) {
    if case.world == 1 {
        rank_body(case, args, budget, &SerialComm::new(), &|| (0, 0))
            .expect("rank 0 returns the outcome")
    } else {
        let (results, _) = run_ranks(case.world, |comm| {
            let stats = Arc::clone(comm.stats());
            rank_body(case, args, budget, comm, &move || {
                (stats.total_bytes(), stats.total_msgs())
            })
        });
        results
            .into_iter()
            .next()
            .flatten()
            .expect("rank 0 returns the outcome")
    }
}

/// Rank 0 decides whether another repetition fits in `budget` and tells
/// the others (collective).
pub fn keep_going<C: Comm>(comm: &C, start: Instant, reps: usize, budget: f64) -> bool {
    let mut go = vec![0.0];
    if comm.rank() == 0 {
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.max(1) as f64;
        go[0] = f64::from(u8::from(reps == 0 || elapsed + per_rep <= budget));
    }
    comm.broadcast_f64(0, &mut go);
    go[0] > 0.0
}

fn set_up<C: Comm>(
    case: &WaterCase,
    seed: u64,
    comm: &C,
    spans: &mut Spans,
) -> (SubmatrixEngine, Vec<System>) {
    spans.time("setup", |sp| {
        let basis = accuracy_basis();
        let opts = NewtonSchulzOptions {
            eps_filter: case.eps_ortho,
            ..NewtonSchulzOptions::default()
        };
        let engine = SubmatrixEngine::default();
        let systems = (case.boxes)(seed)
            .into_iter()
            .map(|(name, water)| {
                let sys = sp.time("chem.build", |_| {
                    build_system(&water, &basis, comm.rank(), comm.size(), EPS_BUILD)
                });
                let (mut kt, _, ortho) = sp.time("core.ortho", |_| {
                    orthogonalize_sparse(&sys.s, &sys.k, &opts, comm)
                });
                kt.store_mut().filter(case.eps_filter);
                let plan = sp.time("core.plan", |_| engine.plan_for_matrix(&kt, comm));
                System {
                    name,
                    n_atoms: water.n_atoms(),
                    n_electrons: 2.0 * (sys.occupied_per_molecule * water.n_molecules()) as f64,
                    mu: sys.mu,
                    kt,
                    plan,
                    ortho,
                }
            })
            .collect();
        (engine, systems)
    })
}

fn one_rep<C: Comm>(
    engine: &SubmatrixEngine,
    systems: &[System],
    case: &WaterCase,
    comm: &C,
    counters: &dyn Fn() -> (u64, u64),
    spans: &mut Spans,
    out: &mut Outcome,
) -> Rep {
    let numeric = NumericOptions::default();
    let ns_opts = NewtonSchulzOptions {
        eps_filter: case.eps_filter,
        ..NewtonSchulzOptions::default()
    };
    let (bytes0, msgs0) = counters();
    comm.barrier();
    let t = Instant::now();
    let densities: Vec<_> = spans.time("density", |_| {
        systems
            .iter()
            .map(|s| engine.density(&s.kt, s.mu, &numeric, comm))
            .collect()
    });
    comm.barrier();
    let density_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ns_densities: Vec<_> = spans.time("ns_density", |_| {
        systems
            .iter()
            .map(|s| newton_schulz_density(&s.kt, s.mu, &ns_opts, comm))
            .collect()
    });
    comm.barrier();
    let ns_density_s = t.elapsed().as_secs_f64();
    let (bytes1, msgs1) = counters();

    let mut energy_diff_mev = 0.0f64;
    for ((s, (d, report)), (d_ns, ns)) in systems.iter().zip(&densities).zip(&ns_densities) {
        let electrons = electron_count(d, comm);
        let e_sub = band_energy(d, &s.kt, comm);
        let e_ns = band_energy(d_ns, &s.kt, comm);
        let diff = error_mev_per_atom(e_sub, e_ns, s.n_atoms);
        energy_diff_mev = energy_diff_mev.max(diff);
        out.gate(
            report.plan_cached
                && (electrons - s.n_electrons).abs() <= ELECTRON_TOL
                && diff <= ENERGY_TOL_MEV,
            || {
                format!(
                    "{}/{}: submatrix density has 2·Tr D = {electrons:.6} (want {} ± \
                     {ELECTRON_TOL:e}), |E - E_ns| = {diff:.4e} meV/atom (max {ENERGY_TOL_MEV}), \
                     plan cached = {}",
                    case.name, s.name, s.n_electrons, report.plan_cached
                )
            },
        );
        out.gate(ns.converged, || {
            format!(
                "{}/{}: Newton-Schulz density did not converge in {} iterations (residual {:.3e})",
                case.name, s.name, ns.iterations, ns.residual
            )
        });
    }
    Rep {
        density_s,
        ns_density_s,
        energy_diff_mev,
        comm_bytes: bytes1 - bytes0,
        comm_msgs: msgs1 - msgs0,
        ns: ns_densities.into_iter().map(|(_, r)| r).collect(),
    }
}

fn rank_body<C: Comm>(
    case: &WaterCase,
    args: &Args,
    budget: f64,
    comm: &C,
    counters: &dyn Fn() -> (u64, u64),
) -> Option<(Outcome, Vec<System>)> {
    let root = comm.rank() == 0;
    let mut out = Outcome::default();
    let mut spans = Spans::new(args.trace && root);
    let mut untraced = Spans::new(false);

    // Set-up, from scratch each time; the traced run sets up once.
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut last_setup = None;
    for _ in 0..setup_reps {
        comm.barrier();
        let t = Instant::now();
        let (engine, systems) = set_up(case, args.seed, comm, &mut spans);
        comm.barrier();
        setup_times.push(t.elapsed().as_secs_f64());
        for s in &systems {
            out.gate(s.ortho.converged, || {
                format!(
                    "{}/{}: orthogonalization did not converge (residual {:.3e})",
                    case.name, s.name, s.ortho.residual
                )
            });
        }
        last_setup = Some((engine, systems));
    }
    let (engine, systems) = last_setup.expect("at least one set-up");

    // Timed repetitions. The traced run makes one untraced and one traced
    // repetition; their difference is the tracing overhead.
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let budget = if args.trace { 0.0 } else { budget };
    while keep_going(comm, start, reps.len(), budget) {
        reps.push(one_rep(
            &engine,
            &systems,
            case,
            comm,
            counters,
            &mut untraced,
            &mut out,
        ));
    }
    let traced = args.trace.then(|| {
        one_rep(
            &engine, &systems, case, comm, counters, &mut spans, &mut out,
        )
    });

    let mut replay = Replay::default();
    if args.trace {
        let replayed = spans.time("layers", |sp| {
            systems.iter().try_for_each(|s| {
                let r = layers::replay(&s.plan, &s.kt, s.mu, comm, sp)?;
                replay.execute_s += r.execute_s;
                replay.gather_bytes += r.gather_bytes;
                replay.tred2_flops += r.tred2_flops;
                replay.sign_flops += r.sign_flops;
                Ok::<(), String>(())
            })
        });
        out.gate(replayed.is_ok(), || {
            format!("{}: layer replay: {:?}", case.name, replayed.err())
        });
    }
    // The NS flop and byte counters and the gathered bytes are per rank;
    // the metrics are world totals.
    let last = traced
        .as_ref()
        .unwrap_or_else(|| reps.last().expect("one repetition"));
    let mut world = [
        last.ns.iter().map(|r| r.multiply.local_flops as f64).sum(),
        last.ns
            .iter()
            .map(|r| r.multiply.bytes_shifted as f64)
            .sum(),
        replay.gather_bytes as f64,
    ];
    comm.allreduce_f64(ReduceOp::Sum, &mut world);
    if !root {
        return None;
    }

    let density: Vec<f64> = reps.iter().map(|r| r.density_s).collect();
    let ns: Vec<f64> = reps.iter().map(|r| r.ns_density_s).collect();
    let pair: Vec<f64> = reps.iter().map(|r| r.density_s + r.ns_density_s).collect();
    for (name, xs) in [
        ("setup_s", &setup_times),
        ("density_s", &density),
        ("ns_density_s", &ns),
    ] {
        out.notes
            .push(format!("{}: {}", case.name, sample_note(name, xs)));
    }
    out.notes.push(format!(
        "{}: max |E_band(submatrix) - E_band(NS)| = {:.6e} meV/atom",
        case.name, last.energy_diff_mev
    ));
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_times));
    m.insert("density_s", median(&density));
    m.insert("ns_density_s", median(&ns));
    m.insert("request_s", median(&pair));
    m.insert("core.energy_diff_vs_ns_mev_atom", last.energy_diff_mev);

    if let Some(traced) = &traced {
        let n_sub: usize = systems.iter().map(|s| s.plan.n_submatrices).sum();
        let dim_sum: f64 = systems
            .iter()
            .map(|s| s.plan.avg_dim * s.plan.n_submatrices as f64)
            .sum();
        let max_dim = systems.iter().map(|s| s.plan.max_dim).max().unwrap_or(0);
        let sum = |f: fn(&SparseIterationReport) -> usize| -> f64 {
            systems.iter().map(|s| f(&s.ortho) as f64).sum()
        };
        m.insert("chem.build_s", spans.total("chem.build"));
        m.insert("core.ortho_s", spans.total("core.ortho"));
        m.insert("core.ortho_iters", sum(|r| r.iterations));
        m.insert("core.plan_s", spans.total("core.plan"));
        m.insert("core.n_submatrices", n_sub as f64);
        m.insert("core.avg_dim", dim_sum / n_sub.max(1) as f64);
        m.insert("core.max_dim", max_dim as f64);
        m.insert(
            "core.ns_iters",
            traced.ns.iter().map(|r| r.iterations as f64).sum(),
        );
        m.insert("dbcsr.multiply_flops", world[0]);
        m.insert(
            "dbcsr.multiply_gflops",
            world[0] / traced.ns_density_s / 1e9,
        );
        m.insert("dbcsr.bytes_shifted", world[1]);
        m.insert("comsim.bytes", traced.comm_bytes as f64);
        m.insert("comsim.msgs", traced.comm_msgs as f64);
        let stats = engine.stats();
        m.insert("core.plan_builds", stats.symbolic_builds as f64);
        m.insert("core.plan_hits", stats.cache_hits as f64);
        m.insert("trace.density_s", traced.density_s);
        m.insert("trace.overhead_s", traced.density_s - reps[0].density_s);
        if replay.execute_s > 0.0 {
            let mut attributed = 0.0;
            for (span, metric) in [
                ("dbcsr.gather", "dbcsr.gather_s"),
                ("core.assembly", "core.assembly_s"),
                ("linalg.tred2", "linalg.tred2_s"),
                ("linalg.tql2", "linalg.tql2_s"),
                ("core.sign_build", "core.sign_build_s"),
                ("core.extract", "core.extract_s"),
            ] {
                let s = spans.total(span);
                attributed += s;
                m.insert(metric, s);
            }
            m.insert("dbcsr.gather_bytes", world[2]);
            m.insert("core.execute_serial_s", replay.execute_s);
            m.insert("core.unattributed_s", replay.execute_s - attributed);
            m.insert("core.attributed_frac", attributed / replay.execute_s);
            m.insert(
                "linalg.tred2_gflops",
                replay.tred2_flops / spans.total("linalg.tred2") / 1e9,
            );
            m.insert(
                "linalg.sign_build_gflops",
                replay.sign_flops / spans.total("core.sign_build") / 1e9,
            );
        }
        m.insert("trace.spans", spans.len() as f64);
        out.notes
            .push(format!("{}: span self times (rank 0)", case.name));
        out.notes.extend(spans.table());
    }
    Some((out, systems))
}
