//! Per-layer replay of one numeric execution.
//!
//! The engine's `execute` runs gather → (assemble → `tred2` → `tql2` →
//! sign construction → extract) per submatrix → scatter. This module times
//! a single-threaded `execute` of a cached plan and replays the same
//! layers one by one through their public entry points on the same
//! submatrices, so that the layer times can be set against the execute
//! wall. Whatever the layers do not cover (eigenvalue sorting, scatter,
//! result insertion) is left as an explicit residual by the caller.
//!
//! The host's speed drifts over tens of seconds, so the two are not timed
//! one after the other. The plan's submatrices are cut into chunks, and
//! each chunk is executed and replayed back to back, alternating which
//! goes first. Each chunk's execute repeats the plan's gather and scatters
//! only that chunk's blocks; so does the replay's gather.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use sm_comsim::Comm;
use sm_core::engine::{EngineOptions, ExecutionPlan, NumericOptions, SubmatrixEngine};
use sm_core::solver::sign_from_decomposition;
use sm_dbcsr::ops::fetch_blocks_prec;
use sm_dbcsr::wire::ValueFormat;
use sm_dbcsr::DbcsrMatrix;
use sm_linalg::eigh::{tql2, Eigh};
use sm_linalg::tridiag::tred2;
use sm_linalg::Matrix;

use crate::spans::Spans;

/// Deviation allowed between the replayed sign blocks and those of the
/// engine's own execute. The replay skips the eigenvalue sort, so the
/// back-transform sums in another order.
const REPLAY_TOL: f64 = 1e-9;

/// Chunks the plan's submatrices are cut into.
const CHUNKS: usize = 8;

type Blocks = BTreeMap<(usize, usize), Matrix>;

/// What the replay measured besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Wall of the single-threaded executes on this rank.
    pub execute_s: f64,
    /// Gathered value bytes, this rank.
    pub gather_bytes: u64,
    /// Nominal `tred2` flops with `Q` accumulated: `8/3·n³` per submatrix.
    pub tred2_flops: f64,
    /// Nominal sign-construction flops (`Q·f(Λ)·Qᵀ` as one GEMM): `2·n³`.
    pub sign_flops: f64,
}

/// The part of `plan` that covers this rank's submatrices `range`.
fn part_of(plan: &ExecutionPlan, range: Range<usize>) -> ExecutionPlan {
    ExecutionPlan {
        my_specs: plan.my_specs[range.clone()].to_vec(),
        assembly: plan.assembly[range.clone()].to_vec(),
        extraction: plan.extraction[range.clone()].to_vec(),
        contributing: plan.contributing[range].to_vec(),
        ..plan.clone()
    }
}

/// Time single-threaded executes of `plan` and replay its layers under
/// spans named after them (collective). Fails if a kernel fails or the
/// replayed sign blocks disagree with the execute's.
pub fn replay<C: Comm>(
    plan: &ExecutionPlan,
    values: &DbcsrMatrix,
    mu: f64,
    comm: &C,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let serial = SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    });
    let numeric = NumericOptions::default();
    let mut out = Replay::default();
    let mut max_diff = 0.0f64;
    let mut first_error = None;
    let n = plan.my_specs.len();
    comm.barrier();
    for k in 0..CHUNKS {
        let part = part_of(plan, k * n / CHUNKS..(k + 1) * n / CHUNKS);
        let mut execute_s = 0.0;
        let mut execute = |sp: &mut Spans| {
            let t = Instant::now();
            let (sign, _) = sp.time("core.execute_serial", |_| {
                serial.execute(&part, values, mu, &numeric, comm)
            });
            execute_s = t.elapsed().as_secs_f64();
            sign
        };
        let (sign, (blocks, replayed)) = if k % 2 == 0 {
            let sign = execute(spans);
            (sign, replay_part(&part, values, mu, comm, spans, &mut out))
        } else {
            let replayed = replay_part(&part, values, mu, comm, spans, &mut out);
            (execute(spans), replayed)
        };
        out.execute_s += execute_s;
        for ((br, bc), blk) in blocks.iter().flatten() {
            if let Some(reference) = sign.block(*br, *bc) {
                for (x, y) in blk.as_slice().iter().zip(reference.as_slice()) {
                    max_diff = max_diff.max((x - y).abs());
                }
            }
        }
        // Every rank runs every chunk, also after a kernel failed, so the
        // collectives inside stay matched.
        if let Err(e) = replayed {
            first_error.get_or_insert(e);
        }
    }
    comm.barrier();
    if let Some(e) = first_error {
        return Err(e);
    }
    if max_diff > REPLAY_TOL {
        return Err(format!(
            "replayed sign blocks deviate from execute by {max_diff:.3e} (> {REPLAY_TOL:.0e})"
        ));
    }
    Ok(out)
}

/// Replay the layers of `part` (collective gather, then local kernels).
/// Returns the extracted blocks of every submatrix replayed, and the first
/// kernel error, after which the part's remaining submatrices are skipped.
fn replay_part<C: Comm>(
    part: &ExecutionPlan,
    values: &DbcsrMatrix,
    mu: f64,
    comm: &C,
    spans: &mut Spans,
    out: &mut Replay,
) -> (Vec<Blocks>, Result<(), String>) {
    let kt = NumericOptions::default().solve.kt;
    let mut extracted = Vec::new();
    let replayed = spans.time("core.layers", |sp| {
        let (fetched, bytes) = sp.time("dbcsr.gather", |_| {
            fetch_blocks_prec(values, &part.remote_wanted, ValueFormat::F64, comm)
        });
        out.gather_bytes += bytes;
        let block_of =
            |br: usize, bc: usize| values.block(br, bc).or_else(|| fetched.get(&(br, bc)));
        for (assembly, extraction) in part.assembly.iter().zip(&part.extraction) {
            let a = sp.time("core.assembly", |_| assembly.assemble(block_of));
            let n = a.nrows() as f64;
            let tri = sp
                .time("linalg.tred2", |_| tred2(&a))
                .map_err(|e| format!("tred2 failed: {e}"))?;
            let dec = sp
                .time("linalg.tql2", |_| {
                    let (mut d, mut e, mut z) = (tri.d, tri.e, tri.q);
                    tql2(&mut d, &mut e, &mut z).map(|()| Eigh {
                        eigenvalues: d,
                        eigenvectors: z,
                    })
                })
                .map_err(|e| format!("tql2 failed: {e}"))?;
            let s = sp.time("core.sign_build", |_| sign_from_decomposition(&dec, mu, kt));
            extracted.push(sp.time("core.extract", |_| extraction.extract(&s)));
            out.tred2_flops += 8.0 / 3.0 * n * n * n;
            out.sign_flops += 2.0 * n * n * n;
        }
        Ok(())
    });
    (extracted, replayed)
}
