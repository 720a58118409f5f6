//! `psvd reproduce`: the paper's evaluation (Section 4.3) and five
//! ablations, each run at a fixed size and reduced to checked claims.
//!
//! | id | artifact |
//! |---|---|
//! | F1ab | Fig. 1(a,b): serial vs parallel+randomized Burgers modes |
//! | F1c | Fig. 1(c): weak scaling on simulated clocks |
//! | F2 | Fig. 2: coherent structures of a planted-mode ERA5 stand-in, read as `ncsim` hyperslabs |
//! | A1 | forget factor: stationary accuracy and regime-switch tracking |
//! | A2 | APMOS truncation `r1` / `r2`: traffic against accuracy |
//! | A3 | randomized SVD: oversampling and power iterations |
//! | A4 | streaming batch size |
//! | A5 | Levy–Lindenbaum vs randomized vs one-shot on the same data |
//!
//! Each experiment returns its tables and its claims; `psvd reproduce`
//! prints every table, then one claim table, and fails if any claim does.
//! The output is a function of the code alone: no wall time is printed
//! (`benchmark/` owns timings), F1c's simulated clocks charge compute at a
//! fixed 11.59 GF/s, and every distributed run pins the paper's
//! flat exchange whatever `PSVD_TREE_FANOUT` says.
//!
//! A claim's bound is the value EXPERIMENTS.md records, widened by a fixed
//! headroom: ×10 for a value at round-off level (≤ 1e-6), whose last
//! digits move with the kernel and the summation order, and ×1.1 (÷1.1 for
//! a lower bound) for any other.
//! A claim that an ordering holds counts its violations against zero.

use psvd_comm::{Communicator, NetworkModel, World};
use psvd_core::{
    batch_truncated_svd, try_merge_tree_svd, MergeTreePlan, ParallelStreamingSvd,
    SerialStreamingSvd, SvdConfig,
};
use psvd_data::burgers::{snapshot_matrix, snapshot_rows, BurgersConfig};
use psvd_data::era5::{generate, Era5Config};
use psvd_data::ncsim::{write_v2, NcsimReader, V2Options};
use psvd_data::partition::split_rows;
use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};
use psvd_linalg::randomized::{randomized_svd, RandomizedConfig};
use psvd_linalg::svd::svd;
use psvd_linalg::validate::{max_principal_angle, pointwise_mode_error, spectrum_error};
use psvd_linalg::Matrix;

/// Compute rate of F1c's simulated clocks: the dense-kernel rate a 192³
/// GEMM measured on the 2-vCPU Xeon host of EXPERIMENTS.md's F1c run.
const F1C_FLOPS_PER_SEC: f64 = 11.59e9;
/// Recorded values at or below this are round-off.
const ROUNDOFF_LEVEL: f64 = 1e-6;
/// Headroom on a round-off-level recorded value.
const ROUNDOFF: f64 = 10.0;
/// Headroom on every other recorded value.
const SLACK: f64 = 1.1;

/// Which side of its bound a claim's measurement must fall on.
#[derive(Clone, Copy)]
enum Bound {
    /// `measured ≤ bound`.
    AtMost(f64),
    /// `measured ≥ bound`.
    AtLeast(f64),
}

/// One checked statement of an experiment.
#[derive(Clone)]
struct Claim {
    /// Experiment id and ordinal, e.g. `A4.2`.
    id: String,
    /// What is measured, in words.
    statement: String,
    /// The measured value.
    measured: f64,
    /// The recorded value with its headroom.
    bound: Bound,
    /// Whether `measured` falls within `bound` (a NaN never does).
    holds: bool,
}

impl Claim {
    /// A claim on `measured` against `bound`.
    fn new(id: &str, statement: impl Into<String>, measured: f64, bound: Bound) -> Self {
        let holds = match bound {
            Bound::AtMost(b) => measured <= b,
            Bound::AtLeast(b) => measured >= b,
        };
        Self { id: id.to_string(), statement: statement.into(), measured, bound, holds }
    }

    /// `measured` is no more than `recorded` with its headroom.
    fn at_most(id: &str, statement: impl Into<String>, measured: f64, recorded: f64) -> Self {
        let headroom = if recorded <= ROUNDOFF_LEVEL { ROUNDOFF } else { SLACK };
        Self::new(id, statement, measured, Bound::AtMost(recorded * headroom))
    }

    /// `measured` is no less than `recorded` with its headroom.
    fn at_least(id: &str, statement: impl Into<String>, measured: f64, recorded: f64) -> Self {
        Self::new(id, statement, measured, Bound::AtLeast(recorded / SLACK))
    }

    /// An ordering: `violations` must be zero.
    fn never(id: &str, statement: impl Into<String>, violations: usize) -> Self {
        Self::new(id, statement, violations as f64, Bound::AtMost(0.0))
    }
}

/// A titled table of preformatted cells.
struct Table {
    title: String,
    headers: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: impl Into<String>, headers: &[&'static str]) -> Self {
        Self { title: title.into(), headers: headers.to_vec(), rows: Vec::new() }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
    }

    /// Right-aligned columns at least 12 wide, under a title and a rule.
    fn render(&self, out: &mut Vec<String>) {
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|c| {
                let cells = self.rows.iter().map(|r| r[c].chars().count());
                cells.chain([self.headers[c].len(), 12]).max().unwrap_or(12)
            })
            .collect();
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            padded.join("  ")
        };
        out.push(format!("-- {} --", self.title));
        out.push(line(&self.headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
        out.push("-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.extend(self.rows.iter().map(|r| line(r)));
        out.push(String::new());
    }
}

/// One experiment's output.
struct Experiment {
    /// What ran, at what size.
    title: String,
    /// Its tables, in print order.
    tables: Vec<Table>,
    /// Its claims.
    claims: Vec<Claim>,
}

/// Run every experiment (`full`: the paper's sizes for F1ab, F1c and F2)
/// and report them.
pub fn run(full: bool) -> Result<Vec<String>, String> {
    report(&[f1ab(full), f1c(full), f2(full)?, a1(), a2(), a3(), a4(), a5()])
}

/// Every table, then the claim table. `Err` carries the same lines when a
/// claim fails.
fn report(experiments: &[Experiment]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for e in experiments {
        out.push(format!("== {} ==", e.title));
        out.push(String::new());
        for t in &e.tables {
            t.render(&mut out);
        }
    }
    let claims: Vec<&Claim> = experiments.iter().flat_map(|e| &e.claims).collect();
    out.push("== claims ==".into());
    out.push(String::new());
    let line = |id: &str, holds: &str, measured: &str, bound: &str, statement: &str| {
        format!("{id:<7} {holds:<5} {measured:>10} {bound:>13}  {statement}")
    };
    out.push(line("id", "holds", "measured", "bound", "statement"));
    for c in &claims {
        let bound = match c.bound {
            Bound::AtMost(b) => format!("<= {}", num(b)),
            Bound::AtLeast(b) => format!(">= {}", num(b)),
        };
        let holds = if c.holds { "yes" } else { "FAIL" };
        out.push(line(&c.id, holds, &num(c.measured), &bound, &c.statement));
    }
    out.push(String::new());
    let failed = claims.iter().filter(|c| !c.holds).count();
    out.push(format!("{} of {} claims hold", claims.len() - failed, claims.len()));
    if failed > 0 {
        return Err(out.join("\n"));
    }
    Ok(out)
}

/// A count as an integer, anything else in 4-digit scientific notation.
fn num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e6 {
        format!("{x}")
    } else {
        format!("{x:.3e}")
    }
}

/// A streaming configuration on the paper's flat APMOS exchange.
fn config(k: usize) -> SvdConfig {
    SvdConfig::new(k).with_tree_fanout(0)
}

/// Adjacent pairs of `xs` where the value moves against `falling`.
fn violations(xs: &[f64], falling: bool) -> usize {
    xs.windows(2).filter(|w| if falling { w[1] >= w[0] } else { w[1] <= w[0] }).count()
}

/// Fig. 1(a,b): the serial streaming SVD against the 4-rank
/// parallel+randomized one, mode by mode.
fn f1ab(full: bool) -> Experiment {
    let cfg = if full {
        BurgersConfig::default()
    } else {
        BurgersConfig { grid_points: 2048, snapshots: 200, ..BurgersConfig::default() }
    };
    let data = snapshot_matrix(&cfg);
    let batch = cfg.snapshots / 4;
    let svd_cfg = config(10).with_forget_factor(0.95).with_r1(50).with_r2(10);

    let mut serial = SerialStreamingSvd::new(svd_cfg);
    serial.fit_batched(&data, batch);

    let n_ranks = 4;
    let blocks = split_rows(&data, n_ranks);
    let par_cfg = svd_cfg.with_low_rank(true).with_power_iterations(2).with_seed(1);
    let out = World::new(n_ranks).run(|comm| {
        let mut d = ParallelStreamingSvd::new(comm, par_cfg);
        d.fit_batched(&blocks[comm.rank()], batch);
        (d.gather_modes(0), d.singular_values().to_vec())
    });
    let gathered = out[0].0.as_ref().expect("rank 0 gathers");
    let par_sigma = &out[0].1;
    // A mode the parallel run does not return reads NaN, which fails its
    // claim.
    let n = gathered.cols().min(serial.modes().cols());
    let (serial_modes, par_modes) = (serial.modes().first_columns(n), gathered.first_columns(n));

    let mut modes = Table::new(
        "pointwise |serial - parallel| per grid point",
        &["mode", "max |err|", "mean |err|", "mode amplitude"],
    );
    let mut max_err = [f64::NAN; 2];
    for (mode, worst) in max_err.iter_mut().enumerate().take(n) {
        let err = pointwise_mode_error(&serial_modes, &par_modes, mode);
        *worst = err.iter().cloned().fold(0.0, f64::max);
        let mean = err.iter().sum::<f64>() / err.len() as f64;
        let amp = serial_modes.col_iter(mode).fold(0.0f64, |a, x| a.max(x.abs()));
        modes.row(vec![
            (mode + 1).to_string(),
            format!("{worst:.3e}"),
            format!("{mean:.3e}"),
            format!("{amp:.3e}"),
        ]);
    }
    let mut sigma = Table::new("singular values", &["i", "serial", "parallel+randomized"]);
    for (i, (s, p)) in serial.singular_values().iter().zip(par_sigma).enumerate() {
        sigma.row(vec![i.to_string(), format!("{s:.8e}"), format!("{p:.8e}")]);
    }

    let (rec1, rec2, rec_sigma) =
        if full { (9.123e-15, 1.530e-13, 2.046e-12) } else { (3.117e-13, 4.839e-12, 8.301e-12) };
    Experiment {
        title: format!(
            "F1ab: Fig. 1(a,b), Burgers {} x {}, Re = {}, 4 ranks, K = 10, ff = 0.95, batch {batch}",
            cfg.grid_points, cfg.snapshots, cfg.reynolds
        ),
        tables: vec![modes, sigma],
        claims: vec![
            Claim::at_most("F1ab.1", "mode 1: max pointwise |serial - parallel|", max_err[0], rec1),
            Claim::at_most("F1ab.2", "mode 2: max pointwise |serial - parallel|", max_err[1], rec2),
            Claim::at_most(
                "F1ab.3",
                "spectrum error, serial vs parallel+randomized",
                spectrum_error(serial.singular_values(), par_sigma),
                rec_sigma,
            ),
        ],
    }
}

/// Fig. 1(c): weak scaling of the one-shot parallel SVD, 1024 grid points
/// per rank, on per-rank simulated clocks (real messages, alpha–beta wire,
/// analytic flops at `F1C_FLOPS_PER_SEC`).
fn f1c(full: bool) -> Experiment {
    const POINTS_PER_RANK: usize = 1024;
    const SNAPSHOTS: usize = 128;
    const R1: usize = 16;
    const K: usize = 10;
    let max_ranks = if full { 256 } else { 64 };
    let ranks: Vec<usize> = (0..).map(|e| 1 << e).take_while(|&p| p <= max_ranks).collect();

    // One scale point: simulated seconds (the slowest rank's clock),
    // messages and bytes.
    let run_scale = |n_ranks: usize, svd: SvdConfig, plan: &MergeTreePlan| {
        let cfg = BurgersConfig {
            grid_points: POINTS_PER_RANK * n_ranks,
            snapshots: SNAPSHOTS,
            ..BurgersConfig::default()
        };
        let world = World::with_model(n_ranks, NetworkModel::theta_aries());
        let (_, clocks) = world.run_with_clocks(|comm| {
            let r0 = comm.rank() * POINTS_PER_RANK;
            let local = snapshot_rows(&cfg, r0, r0 + POINTS_PER_RANK);
            try_merge_tree_svd(comm, svd, &local, plan, Some(F1C_FLOPS_PER_SEC))
                .expect("fault-free world")
                .1
        });
        let t = clocks.iter().cloned().fold(0.0, f64::max);
        (t, world.stats().total_messages(), world.stats().total_bytes())
    };

    let base = config(K).with_r1(R1).with_r2(K).with_forget_factor(1.0);
    type PlanFor = fn(usize) -> MergeTreePlan;
    let series: [(SvdConfig, PlanFor, &str); 3] = [
        (base.with_low_rank(true), MergeTreePlan::flat, "randomized, flat gather (the paper's)"),
        (base, MergeTreePlan::flat, "deterministic, flat gather"),
        (
            base.with_low_rank(true),
            |p| MergeTreePlan::with_depth(2, p).expect("depth 2 is a valid shape"),
            "randomized, two-level merge tree with ~sqrt(P) groups",
        ),
    ];
    let mut tables = Vec::new();
    // Per series: (simulated seconds, bytes) at each rank count.
    let mut results: Vec<Vec<(f64, u64)>> = Vec::new();
    for (svd, plan_for, label) in series {
        let mut table = Table::new(
            label,
            &["ranks", "global points", "sim time", "efficiency", "messages", "bytes moved"],
        );
        let mut points = Vec::new();
        for &n in &ranks {
            let (t, msgs, bytes) = run_scale(n, svd, &plan_for(n));
            let t1 = points.first().map_or(t, |&(t1, _)| t1);
            table.row(vec![
                n.to_string(),
                (n * POINTS_PER_RANK).to_string(),
                format!("{:.2} ms", t * 1e3),
                format!("{:.3}", t1 / t),
                msgs.to_string(),
                format!("{:.1} kB", bytes as f64 / 1024.0),
            ]);
            points.push((t, bytes));
        }
        tables.push(table);
        results.push(points);
    }

    let efficiency = |s: &[(f64, u64)]| s[0].0 / s[s.len() - 1].0;
    let (flat, det, tree) = (&results[0], &results[1], &results[2]);
    let det_over_rand = ranks
        .iter()
        .zip(flat.iter().zip(det))
        .filter(|(&p, _)| p >= 8)
        .map(|(_, (r, d))| d.0 / r.0)
        .fold(f64::INFINITY, f64::min);
    let per_rank: Vec<f64> =
        ranks.iter().zip(flat).skip(1).map(|(&p, s)| s.1 as f64 / (p - 1) as f64).collect();
    let spread = per_rank.iter().cloned().fold(0.0, f64::max)
        / per_rank.iter().cloned().fold(f64::INFINITY, f64::min);
    let (rec_flat, rec_det, rec_tree) =
        if full { (0.575, 1.626, 0.905) } else { (0.845, 1.626, 0.951) };
    Experiment {
        title: format!(
            "F1c: Fig. 1(c) weak scaling, {POINTS_PER_RANK} grid points/rank, {SNAPSHOTS} \
             snapshots, K = {K}, r1 = {R1}; simulated clocks at {:.2} GF/s, Theta Aries wire \
             (1.2 us, 8 GB/s)",
            F1C_FLOPS_PER_SEC / 1e9
        ),
        tables,
        claims: vec![
            Claim::at_least(
                "F1c.1",
                format!("randomized flat: efficiency at {max_ranks} ranks"),
                efficiency(flat),
                rec_flat,
            ),
            Claim::at_least(
                "F1c.2",
                "deterministic / randomized sim time, least over P >= 8",
                det_over_rand,
                rec_det,
            ),
            Claim::at_least(
                "F1c.3",
                format!("two-level tree: efficiency at {max_ranks} ranks"),
                efficiency(tree),
                rec_tree,
            ),
            Claim::at_most(
                "F1c.4",
                "randomized flat: bytes per non-root rank, max / min over P",
                spread,
                1.0,
            ),
        ],
    }
}

/// Fig. 2: the planted modes of a synthetic ERA5 pressure record, written
/// to one `ncsim` container and read back by 8 ranks as hyperslabs.
fn f2(full: bool) -> Result<Experiment, String> {
    let cfg = if full {
        Era5Config::default()
    } else {
        Era5Config { nlon: 72, nlat: 48, snapshots: 512, ..Era5Config::default() }
    };
    let dataset = generate(&cfg);
    let path = std::env::temp_dir().join(format!("psvd_reproduce_f2_{}.ncs", std::process::id()));
    write_v2(&path, "surface_pressure", &dataset.snapshots, V2Options::default())
        .map_err(|e| e.to_string())?;

    let n_ranks = 8;
    let k = cfg.n_modes + 4; // buffer modes beyond the structures of interest
    let svd_cfg = config(k).with_forget_factor(1.0).with_r1(64).with_r2(16);
    let batch = cfg.snapshots / 8;
    let out = World::new(n_ranks).run(|comm| -> std::io::Result<_> {
        let mut reader = NcsimReader::open(&path)?;
        let local = reader.read_rank_block(comm.size(), comm.rank())?;
        let mut d = ParallelStreamingSvd::new(comm, svd_cfg);
        d.fit_batched(&local, batch);
        Ok((d.gather_modes(0), d.singular_values().to_vec()))
    });
    std::fs::remove_file(&path).ok();
    let (modes, sigma) = out.into_iter().next().expect("rank 0").map_err(|e| e.to_string())?;
    let modes = modes.expect("rank 0 gathers");

    let mut table = Table::new(
        "planted modes",
        &["mode", "sigma (measured)", "sigma (planted)", "angle (rad)"],
    );
    let scale = (cfg.snapshots as f64).sqrt();
    let mut angles = Vec::new();
    for (j, s) in sigma.iter().enumerate().take(cfg.n_modes) {
        let planted = Matrix::from_columns(&[dataset.true_modes.col(j)]);
        let got = Matrix::from_columns(&[modes.col(j)]);
        let angle = max_principal_angle(&planted, &got);
        table.row(vec![
            (j + 1).to_string(),
            format!("{s:.2}"),
            format!("{:.2}", dataset.amplitudes[j] * scale),
            format!("{angle:.4}"),
        ]);
        angles.push(angle);
    }
    let recorded: [f64; 4] =
        if full { [0.0967, 0.1923, 0.3669, 0.6566] } else { [0.0978, 0.1897, 0.3346, 0.5986] };
    let mut claims: Vec<Claim> = angles
        .iter()
        .zip(recorded)
        .enumerate()
        .map(|(j, (&a, rec))| {
            let id = format!("F2.{}", j + 1);
            Claim::at_most(&id, format!("planted mode {}: recovery angle (rad)", j + 1), a, rec)
        })
        .collect();
    claims.push(Claim::never(
        "F2.5",
        "recovery angle grows from each planted mode to the next, weaker one",
        violations(&angles, false),
    ));
    Ok(Experiment {
        title: format!(
            "F2: Fig. 2, synthetic ERA5 pressure, {} x {} grid, {} snapshots, noise {}, \
             {n_ranks} ranks reading ncsim hyperslabs, K = {k}, batch {batch}",
            cfg.nlat, cfg.nlon, cfg.snapshots, cfg.noise_level
        ),
        tables: vec![table],
        claims,
    })
}

/// A1: the forget factor on a stationary stream and across a regime switch.
fn a1() -> Experiment {
    const FFS: [f64; 7] = [0.70, 0.80, 0.90, 0.95, 0.98, 0.99, 1.00];

    let k = 6;
    let data = snapshot_matrix(&BurgersConfig {
        grid_points: 1024,
        snapshots: 160,
        ..BurgersConfig::default()
    });
    let (u_ref, s_ref) = batch_truncated_svd(&data, k);
    let mut stationary = Table::new(
        "stationary stream: Burgers 1024 x 160, batches of 20, K = 6",
        &["ff", "spectrum err", "subspace angle (rad)"],
    );
    let mut errs = Vec::new();
    for ff in FFS {
        let mut s = SerialStreamingSvd::new(config(k).with_forget_factor(ff));
        s.fit_batched(&data, 20);
        let err = spectrum_error(&s_ref, s.singular_values());
        stationary.row(vec![
            format!("{ff:.2}"),
            format!("{err:.3e}"),
            format!("{:.4}", max_principal_angle(&u_ref, s.modes())),
        ]);
        errs.push(err);
    }

    let (m, batch) = (512, 16);
    let mut rng = seeded_rng(9);
    let regime_a = matrix_with_spectrum(m, 8 * batch, &[6.0, 4.0, 2.0], &mut rng);
    let regime_b = matrix_with_spectrum(m, 8 * batch, &[5.0, 3.0, 1.5], &mut rng);
    let (u_b, _) = batch_truncated_svd(&regime_b, 3);
    let mut switch = Table::new(
        "regime switch: rank-3 subspace A -> B, 512 rows, batches of 16, K = 3",
        &["ff", "angle to B after 2 batches", "after 8 batches"],
    );
    let mut after8 = Vec::new();
    for ff in FFS {
        let mut s = SerialStreamingSvd::new(config(3).with_forget_factor(ff));
        s.fit_batched(&regime_a, batch);
        let mut angle2 = f64::NAN;
        for b in 0..8 {
            s.incorporate_data(&regime_b.submatrix(0, m, b * batch, (b + 1) * batch));
            if b == 1 {
                angle2 = max_principal_angle(&u_b, s.modes());
            }
        }
        let angle8 = max_principal_angle(&u_b, s.modes());
        switch.row(vec![format!("{ff:.2}"), format!("{angle2:.4}"), format!("{angle8:.4}")]);
        after8.push(angle8);
    }
    let slow_forgetters = after8[2..].iter().cloned().fold(f64::INFINITY, f64::min);
    Experiment {
        title: "A1: forget factor".into(),
        tables: vec![stationary, switch],
        claims: vec![
            Claim::at_most("A1.1", "stationary: spectrum error at ff = 1.00", errs[6], 2.011e-3),
            Claim::never(
                "A1.2",
                "stationary: spectrum error falls as ff rises",
                violations(&errs, true),
            ),
            Claim::at_least(
                "A1.3",
                "stationary: spectrum error at ff = 0.70 over ff = 1.00",
                errs[0] / errs[6],
                254.8,
            ),
            Claim::at_most(
                "A1.4",
                "switch: angle to B after 8 batches, ff = 0.70",
                after8[0],
                0.0054,
            ),
            Claim::at_least(
                "A1.5",
                "switch: least angle to B after 8 batches, ff >= 0.90",
                slow_forgetters,
                1.5649,
            ),
        ],
    }
}

/// A2: APMOS's local truncation `r1` and root truncation `r2` on 8 ranks.
fn a2() -> Experiment {
    let cfg = BurgersConfig { grid_points: 2048, snapshots: 128, ..BurgersConfig::default() };
    let data = snapshot_matrix(&cfg);
    let (k, n_ranks) = (6, 8);
    let blocks = split_rows(&data, n_ranks);
    let (u_ref, s_ref) = batch_truncated_svd(&data, k);

    // One one-shot parallel SVD: (spectrum error, subspace angle, bytes).
    let run = |r1: usize, r2: usize| {
        let svd_cfg = config(k).with_r1(r1).with_r2(r2);
        let world = World::new(n_ranks);
        let out = world.run(|comm| {
            ParallelStreamingSvd::new(comm, svd_cfg).parallel_svd(&blocks[comm.rank()])
        });
        let modes = Matrix::vstack_all(&out.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());
        let angle = max_principal_angle(&u_ref, &modes.first_columns(k.min(modes.cols())));
        (spectrum_error(&s_ref, &out[0].1), angle, world.stats().total_bytes())
    };
    let row = |table: &mut Table, r: usize, (err, angle, bytes): (f64, f64, u64)| {
        table.row(vec![
            r.to_string(),
            format!("{:.1} kB", bytes as f64 / 1024.0),
            format!("{err:.3e}"),
            format!("{angle:.2e}"),
        ]);
    };

    let mut r1_table = Table::new(
        format!("r1 sweep, r2 = {k}"),
        &["r1", "bytes moved", "spectrum err", "subspace angle"],
    );
    let r1s = [2, 4, 6, 10, 20, 50, 128];
    let r1_runs: Vec<_> = r1s.iter().map(|&r1| run(r1, k)).collect();
    for (&r1, &res) in r1s.iter().zip(&r1_runs) {
        row(&mut r1_table, r1, res);
    }
    let mut r2_table =
        Table::new("r2 sweep, r1 = 50", &["r2", "bytes moved", "spectrum err", "subspace angle"]);
    let mut r2_worst: f64 = 0.0;
    for r2 in [k, 8, 12, 20, 50] {
        let res = run(50, r2);
        r2_worst = r2_worst.max(res.0);
        row(&mut r2_table, r2, res);
    }
    let bytes = |i: usize| r1_runs[i].2 as f64;
    Experiment {
        title: format!(
            "A2: APMOS truncation, Burgers {} x {} on {n_ranks} ranks, K = {k}",
            cfg.grid_points, cfg.snapshots
        ),
        tables: vec![r1_table, r2_table],
        claims: vec![
            Claim::at_least(
                "A2.1",
                "bytes moved at r1 = 128 over r1 = 2",
                bytes(6) / bytes(0),
                16.55,
            ),
            Claim::at_least("A2.2", "spectrum error at r1 = 2", r1_runs[0].0, 1.060e-2),
            Claim::at_most("A2.3", "spectrum error at r1 = 50", r1_runs[5].0, 1.086e-15),
            Claim::at_most("A2.4", "r2 sweep: largest spectrum error", r2_worst, 1.086e-15),
        ],
    }
}

/// A3: the randomized SVD's error over the optimal rank-K error as
/// oversampling `p` and power iterations `q` vary, on a fast and a slow
/// spectrum.
fn a3() -> Experiment {
    let (rows, cols, k) = (1200, 120, 10);
    let mut rng = seeded_rng(5);
    let fast: Vec<f64> = (0..60).map(|i| 10.0 * 0.5f64.powi(i)).collect();
    let a_fast = matrix_with_spectrum(rows, cols, &fast, &mut rng);
    let slow: Vec<f64> = (0..120).map(|i| 10.0 / (1.0 + i as f64)).collect();
    let a_slow = matrix_with_spectrum(rows, cols, &slow, &mut rng);

    // Per spectrum: the table and `(p, q, error / optimal)` per cell.
    let sweep = |label: &str, a: &Matrix| {
        let best = (a - &svd(a).truncated(k).reconstruct()).frobenius_norm();
        let mut table = Table::new(label, &["oversampling p", "power iters q", "error / optimal"]);
        let mut cells = Vec::new();
        for p in [0, 2, 5, 10, 20] {
            for q in [0, 1, 2] {
                let cfg = RandomizedConfig { rank: k, oversampling: p, power_iterations: q };
                let f = randomized_svd(a, &cfg, &mut seeded_rng(77));
                let ratio = (a - &f.reconstruct()).frobenius_norm() / best.max(1e-300);
                table.row(vec![p.to_string(), q.to_string(), format!("{ratio:.4}")]);
                cells.push((p, q, ratio));
            }
        }
        (table, cells)
    };
    let (fast_table, fast) = sweep("fast geometric decay, sigma_i = 10 * 2^-i", &a_fast);
    let (slow_table, slow) = sweep("slow harmonic decay, sigma_i = 10 / (1+i)", &a_slow);
    let worst = |cells: &[(usize, usize, f64)], keep: &dyn Fn(usize, usize) -> bool| {
        cells.iter().filter(|c| keep(c.0, c.1)).map(|c| c.2 - 1.0).fold(f64::MIN, f64::max)
    };
    Experiment {
        title: format!("A3: randomized SVD vs the optimal rank-K error, {rows} x {cols}, K = {k}"),
        tables: vec![fast_table, slow_table],
        claims: vec![
            Claim::at_most(
                "A3.1",
                "fast decay, p = 10, q = 0: error / optimal - 1",
                worst(&fast, &|p, q| p == 10 && q == 0),
                3.445e-6,
            ),
            Claim::at_least(
                "A3.2",
                "slow decay, q = 0: largest error / optimal - 1",
                worst(&slow, &|_, q| q == 0),
                0.574,
            ),
            Claim::at_most(
                "A3.3",
                "slow decay, p >= 5, q >= 1: largest error / optimal - 1",
                worst(&slow, &|p, q| p >= 5 && q >= 1),
                0.0079,
            ),
        ],
    }
}

/// A4: the streaming batch size, from 10 snapshots to the whole record.
fn a4() -> Experiment {
    let cfg = BurgersConfig { grid_points: 4096, snapshots: 400, ..BurgersConfig::default() };
    let data = snapshot_matrix(&cfg);
    let k = 10;
    let (u_ref, s_ref) = batch_truncated_svd(&data, k);
    let mut table =
        Table::new("batch sweep", &["batch B", "updates", "spectrum err", "subspace angle"]);
    let (mut errs, mut angles) = (Vec::new(), Vec::new());
    for batch in [10, 25, 50, 100, 200, 400] {
        let mut s = SerialStreamingSvd::new(config(k).with_forget_factor(1.0));
        s.fit_batched(&data, batch);
        let err = spectrum_error(&s_ref, s.singular_values());
        let angle = max_principal_angle(&u_ref, s.modes());
        table.row(vec![
            batch.to_string(),
            (s.iteration() + 1).to_string(),
            format!("{err:.3e}"),
            format!("{angle:.3e}"),
        ]);
        errs.push(err);
        angles.push(angle);
    }
    Experiment {
        title: format!(
            "A4: batch size, Burgers {} x {}, K = {k}, ff = 1.0 (B = 400 is one batch)",
            cfg.grid_points, cfg.snapshots
        ),
        tables: vec![table],
        claims: vec![
            Claim::never("A4.1", "spectrum error falls as B grows", violations(&errs, true)),
            Claim::never("A4.2", "subspace angle falls as B grows", violations(&angles, true)),
            Claim::at_most("A4.3", "B = 400: subspace angle to the batch SVD", angles[5], 7.598e-8),
        ],
    }
}

/// A5: streaming Levy–Lindenbaum, the one-shot randomized SVD
/// and the exact truncated SVD on the same data.
fn a5() -> Experiment {
    let burgers = snapshot_matrix(&BurgersConfig {
        grid_points: 4096,
        snapshots: 256,
        ..BurgersConfig::default()
    });
    let spec: Vec<f64> = (0..60).map(|i| 8.0 * 0.8f64.powi(i)).collect();
    let synthetic = matrix_with_spectrum(8192, 128, &spec, &mut seeded_rng(1));

    let k = 10;
    let mut table = Table::new(
        format!("K = {k}, accuracy against the exact truncated SVD"),
        &["data", "algorithm", "spectrum err", "subspace angle"],
    );
    // Per data set: (streaming, randomized) spectrum errors.
    let mut compare = |name: &str, data: &Matrix, batch: usize| {
        let (u_ref, s_ref) = batch_truncated_svd(data, k);
        let mut ll = SerialStreamingSvd::new(config(k).with_forget_factor(1.0));
        ll.fit_batched(data, batch);
        let rand = randomized_svd(
            data,
            &RandomizedConfig::new(k).with_power_iterations(2),
            &mut seeded_rng(4),
        );
        let mut errs = [0.0; 2];
        for (i, (alg, s, u)) in [
            (format!("levy-lindenbaum, batch {batch}"), ll.singular_values(), ll.modes()),
            ("randomized q=2".to_string(), &rand.s[..], &rand.u),
        ]
        .into_iter()
        .enumerate()
        {
            errs[i] = spectrum_error(&s_ref, s);
            table.row(vec![
                name.to_string(),
                alg,
                format!("{:.3e}", errs[i]),
                format!("{:.3e}", max_principal_angle(&u_ref, u)),
            ]);
        }
        errs
    };
    let [b_ll, b_rand] = compare("Burgers 4096 x 256", &burgers, 32);
    let [s_ll, s_rand] = compare("synthetic 8192 x 128", &synthetic, 16);
    Experiment {
        title: "A5: algorithm baselines on identical data".into(),
        tables: vec![table],
        claims: vec![
            Claim::at_most("A5.1", "Burgers: streaming spectrum error", b_ll, 5.852e-4),
            Claim::at_most("A5.2", "Burgers: randomized spectrum error", b_rand, 1.815e-9),
            Claim::at_most("A5.3", "synthetic: streaming spectrum error", s_ll, 1.768e-3),
            Claim::at_most("A5.4", "synthetic: randomized spectrum error", s_rand, 2.832e-12),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment(claims: Vec<Claim>) -> Experiment {
        let mut table = Table::new("t", &["x"]);
        table.row(vec!["1".into()]);
        Experiment { title: "E".into(), tables: vec![table], claims }
    }

    #[test]
    fn claims_compare_against_their_headroom() {
        assert!(Claim::at_most("a", "s", 1.09, 1.0).holds);
        assert!(!Claim::at_most("a", "s", 1.11, 1.0).holds);
        assert!(Claim::at_most("a", "s", 9e-9, 1e-9).holds);
        assert!(Claim::at_least("a", "s", 0.91, 1.0).holds);
        assert!(!Claim::at_least("a", "s", 0.90, 1.0).holds);
        assert!(Claim::never("a", "s", 0).holds);
        assert!(!Claim::never("a", "s", 1).holds);
        assert!(!Claim::at_most("a", "s", f64::NAN, 1.0).holds);
        assert_eq!(violations(&[3.0, 2.0, 2.0, 1.0], true), 1);
    }

    #[test]
    fn a_failed_claim_fails_the_report() {
        let ok = Claim::at_most("E.1", "fine", 1.0, 1.0);
        let lines = report(&[experiment(vec![ok.clone()])]).unwrap();
        assert_eq!(lines.last().unwrap(), "1 of 1 claims hold");
        let bad = Claim::at_most("E.2", "broken", 2.0, 1.0);
        let err = report(&[experiment(vec![ok, bad])]).unwrap_err();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.ends_with("1 of 2 claims hold"), "{err}");
    }
}
