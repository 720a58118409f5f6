//! What the two serial-driver workloads (`tall_stream`, `era5_ooc`)
//! share: the planted-record oracles and the driver's rows of the ledger.

use psvd_core::SerialStreamingSvd;
use psvd_linalg::norms::orthogonality_error;
use psvd_linalg::validate::max_principal_angle;
use psvd_linalg::Matrix;

use crate::fixture::max_rel_err;
use crate::harness::{sigma_ok, Check, Metrics, Outcome};
use crate::probes::{self, SmallSvd, UpdateShape};
use crate::stats::median;
use crate::trace::{durations_ms, window_durations_ms, Tracer};

/// Oracle tolerances (the seed commit's values with 10x headroom).
pub struct Tolerances {
    pub ortho: f64,
    pub angle: f64,
    pub sigma: f64,
}

/// Orthonormality, σ sanity, how far the leading 4 modes leave the
/// planted subspace, and the leading 4 σ against the Gram oracle.
/// Returns `(sigma_rel_err, ortho_err)` for the ledger.
pub fn check(
    svd: &SerialStreamingSvd,
    planted: &Matrix,
    oracle_sigma: &[f64],
    tol: &Tolerances,
    out: &mut Outcome,
) -> (f64, f64) {
    let ortho = orthogonality_error(svd.modes());
    let sigma_err = max_rel_err(svd.singular_values(), oracle_sigma, 4);
    let angle = max_principal_angle(planted, &svd.modes().first_columns(4));
    out.checks.push(Check::new("ortho_err", ortho, tol.ortho));
    out.checks.push(Check::holds("sigma_finite_descending", sigma_ok(svd.singular_values())));
    out.checks.push(Check::new("leading4_angle", angle, tol.angle));
    out.checks.push(Check::new("leading4_sigma_rel_err", sigma_err, tol.sigma));
    (sigma_err, ortho)
}

/// The linalg and core rows for a serial driver: probes at the shape of
/// the update that would ingest `next_batch`, and the traced spans.
pub fn ledger(
    svd: &SerialStreamingSvd,
    next_batch: &Matrix,
    tr: &Tracer,
    (sigma_err, ortho): (f64, f64),
    window_updates: usize,
    l: &mut Metrics,
) {
    let (m, k) = svd.modes().shape();
    let n = k + next_batch.cols();
    let shape = UpdateShape {
        qr: vec![probes::stacked(
            svd.modes(),
            svd.singular_values(),
            svd.config().forget_factor,
            next_batch,
        )],
        gemm: vec![(m, n, k)],
        small: SmallSvd::Dense { n },
        modes: (m, k),
    };
    let children = probes::linalg(&shape, l);
    probes::core_update(
        &window_durations_ms(tr.spans(), "core.update"),
        children,
        &durations_ms(tr.spans(), "core.query"),
        l,
    );
    l.put("core.initialize_ms", median(&durations_ms(tr.spans(), "core.initialize")), "ms");
    l.put(
        "core.scratch_fresh_bytes_per_update",
        svd.scratch_stats().fresh_bytes as f64 / window_updates as f64,
        "bytes",
    );
    probes::checkpoint(svd.modes(), svd.singular_values(), l);
    l.put("core.sigma_rel_err", sigma_err, "frac");
    l.put("core.ortho_err", ortho, "frac");
}
