//! # psvd-cli
//!
//! The `psvd` command-line tool: generate datasets, inspect `ncsim`
//! containers, and run the streaming / distributed / randomized SVD from a
//! shell. All subcommand logic lives in this library (`run`) so the test
//! suite can drive it without spawning processes.
//!
//! ```text
//! psvd generate burgers --grid 2048 --snapshots 200 --out burgers.ncs
//! psvd generate era5 --nlat 48 --nlon 72 --snapshots 512 --out era5.ncs
//! psvd info burgers.ncs
//! psvd svd burgers.ncs --k 10 --ranks 4 --batch 50 --values-out sv.csv
//! psvd validate burgers.ncs --k 6 --ranks 4
//! psvd pod burgers.ncs --k 4                  # psvd-core
//! psvd dmd burgers.ncs --k 5 --dt 0.05        # psvd-modal
//! psvd spod burgers.ncs --nfft 64 --dt 0.05   # psvd-modal
//! ```

pub mod args;

use std::path::Path;

use args::ParsedArgs;
use psvd_comm::{Communicator, World};
use psvd_core::postprocess::{write_modes_csv, write_singular_values_csv};
use psvd_core::{ParallelStreamingSvd, Precision, SerialStreamingSvd, SvdConfig};
use psvd_data::burgers::{snapshot_matrix, BurgersConfig};
use psvd_data::era5::{generate as generate_era5, Era5Config};
use psvd_data::ncsim::{write_v2, NcsimReader, V2Options};
use psvd_data::partition::block_len;
use psvd_linalg::validate::{max_principal_angle, spectrum_error};
use psvd_linalg::Matrix;

/// Usage text.
pub const USAGE: &str = "\
psvd — streaming, distributed and randomized SVD

USAGE:
  psvd generate burgers --out FILE [--grid N] [--snapshots N] [--re X]
  psvd generate era5    --out FILE [--nlat N] [--nlon N] [--snapshots N] [--noise X]
  psvd generate wake    --out FILE [--nx N] [--ny N] [--snapshots N] [--fs HZ]
  psvd info FILE
  psvd svd FILE  [--k K] [--ranks R] [--batch B] [--ff F] [--r1 N] [--r2 N]
                 [--low-rank] [--values-out CSV] [--modes-out CSV] [--quiet]
  psvd validate FILE [--k K] [--ranks R] [--batch B]
  psvd pod  FILE [--k K] [--modes-out CSV]
  psvd dmd  FILE [--k K] [--dt X]
  psvd spod FILE [--nfft N] [--dt X] [--k K]
  psvd help

Every command also accepts --threads N to pin the linear-algebra kernel
thread count (equivalent to the PSVD_NUM_THREADS environment variable;
default: one share of the machine per communicator rank). Results are
bitwise identical for every thread count.
";

/// Run the CLI with `argv` (program name excluded). Returns the lines to
/// print and the exit code via `Ok(output)` or `Err(message)`.
pub fn run(argv: &[String]) -> Result<Vec<String>, String> {
    let parsed = ParsedArgs::parse(argv)?;
    if parsed.switch("help") || parsed.command == "help" {
        return Ok(vec![USAGE.to_string()]);
    }
    if let Some(n) = parsed.get("threads") {
        let n: usize = n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--threads: expected a positive integer, got '{n}'"))?;
        psvd_linalg::par::set_num_threads(n);
    }
    match parsed.command.as_str() {
        "generate" => cmd_generate(&parsed),
        "info" => cmd_info(&parsed),
        "svd" => cmd_svd(&parsed),
        "validate" => cmd_validate(&parsed),
        "pod" => cmd_pod(&parsed),
        "dmd" => cmd_dmd(&parsed),
        "spod" => cmd_spod(&parsed),
        other => Err(format!("unknown command '{other}' (try `psvd help`)")),
    }
}

fn read_input(a: &ParsedArgs) -> Result<Matrix, String> {
    let file = a.one_positional("input file")?;
    let mut reader = NcsimReader::open(Path::new(file)).map_err(|e| e.to_string())?;
    reader.read_all().map_err(|e| e.to_string())
}

fn cmd_pod(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let data = read_input(a)?;
    let k = a.usize_or("k", 6)?;
    let p = psvd_core::pod::pod(&data, k);
    let total: f64 = {
        let fluct = psvd_core::pod::subtract_mean(&data, &p.mean);
        fluct.frobenius_norm().powi(2)
    };
    let mut out = vec![format!("POD, K = {k}, {} snapshots:", p.snapshots)];
    let cum = p.cumulative_energy_fraction(total);
    for (i, (s, c)) in p.singular_values.iter().zip(&cum).enumerate() {
        out.push(format!("  mode {i}: sigma = {s:.6e}, cumulative energy {:5.1}%", c * 100.0));
    }
    if let Some(path) = a.get("modes-out") {
        write_modes_csv(Path::new(path), &p.modes).map_err(|e| e.to_string())?;
        out.push(format!("wrote {path}"));
    }
    Ok(out)
}

fn cmd_dmd(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let data = read_input(a)?;
    let k = a.usize_or("k", 6)?;
    let dt = a.f64_or("dt", 1.0)?;
    let d = psvd_modal::dmd::dmd(&data, k, dt);
    let mut out = vec![format!("DMD, rank {} (requested {k}), dt = {dt}:", d.rank)];
    out.push(format!("{:>14} {:>12} {:>14}", "freq (cyc/t)", "growth", "|amplitude|"));
    for ((w, b), _) in d.continuous_eigenvalues().iter().zip(&d.amplitudes).zip(&d.eigenvalues) {
        out.push(format!(
            "{:>14.5} {:>12.5} {:>14.4}",
            w.im / (2.0 * std::f64::consts::PI),
            w.re,
            b.abs()
        ));
    }
    out.push(format!("reconstruction error: {:.3e}", d.reconstruction_error(&data)));
    Ok(out)
}

fn cmd_spod(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let raw = read_input(a)?;
    // Standard SPOD practice: analyze fluctuations about the temporal mean
    // (otherwise a steady base flow puts all the energy in the f = 0 bin).
    let mean = psvd_core::pod::temporal_mean(&raw);
    let data = psvd_core::pod::subtract_mean(&raw, &mean);
    let nfft = a.usize_or("nfft", 64)?;
    let dt = a.f64_or("dt", 1.0)?;
    let k = a.usize_or("k", 3)?;
    let cfg = psvd_modal::spod::SpodConfig::new(nfft, dt).with_n_modes(k);
    if cfg.segment_count(data.cols()) == 0 {
        return Err(format!("record too short: {} snapshots < segment length {nfft}", data.cols()));
    }
    let s = psvd_modal::spod::spod(&data, &cfg);
    let mut out = vec![format!(
        "SPOD (mean-subtracted): {} segments of {nfft} snapshots, {} frequency bins:",
        s.n_segments,
        s.frequencies.len()
    )];
    out.push(format!("{:>12} {:>14} {:>14}", "freq", "energy (sum)", "lead mode share"));
    for f in &s.frequencies {
        let total: f64 = f.energies.iter().sum();
        let share = if total > 0.0 { f.energies[0] / total } else { 0.0 };
        out.push(format!("{:>12.5} {:>14.5e} {:>14.2}", f.frequency, total, share));
    }
    out.push(format!("peak frequency: {:.5}", s.peak_frequency()));
    Ok(out)
}

fn cmd_generate(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let kind = a.one_positional("dataset kind (burgers|era5)")?;
    let out = a.require("out")?;
    let path = Path::new(out);
    match kind {
        "burgers" => {
            let cfg = BurgersConfig {
                grid_points: a.usize_or("grid", 2048)?,
                snapshots: a.usize_or("snapshots", 200)?,
                reynolds: a.f64_or("re", 1000.0)?,
                ..BurgersConfig::default()
            };
            let data = snapshot_matrix(&cfg);
            write_v2(path, "burgers_u", &data, V2Options::default()).map_err(|e| e.to_string())?;
            Ok(vec![format!(
                "wrote {} ({} x {} snapshots, Re = {})",
                out, cfg.grid_points, cfg.snapshots, cfg.reynolds
            )])
        }
        "era5" => {
            let cfg = Era5Config {
                nlat: a.usize_or("nlat", 48)?,
                nlon: a.usize_or("nlon", 72)?,
                snapshots: a.usize_or("snapshots", 512)?,
                noise_level: a.f64_or("noise", 0.1)?,
                ..Era5Config::default()
            };
            let d = generate_era5(&cfg);
            write_v2(path, "surface_pressure", &d.snapshots, V2Options::default())
                .map_err(|e| e.to_string())?;
            Ok(vec![format!(
                "wrote {} ({} x {} grid, {} snapshots, {} planted modes)",
                out, cfg.nlat, cfg.nlon, cfg.snapshots, cfg.n_modes
            )])
        }
        "wake" => {
            let cfg = psvd_data::wake::WakeConfig {
                nx: a.usize_or("nx", 96)?,
                ny: a.usize_or("ny", 48)?,
                snapshots: a.usize_or("snapshots", 256)?,
                shedding_frequency: a.f64_or("fs", 1.1)?,
                ..psvd_data::wake::WakeConfig::default()
            };
            let d = psvd_data::wake::generate(&cfg);
            write_v2(path, "vorticity", &d, V2Options::default()).map_err(|e| e.to_string())?;
            Ok(vec![format!(
                "wrote {} ({} x {} grid, {} snapshots, shedding at {} Hz)",
                out, cfg.nx, cfg.ny, cfg.snapshots, cfg.shedding_frequency
            )])
        }
        other => Err(format!("unknown dataset kind '{other}' (burgers|era5|wake)")),
    }
}

fn cmd_info(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let file = a.one_positional("input file")?;
    let reader = NcsimReader::open(Path::new(file)).map_err(|e| e.to_string())?;
    let h = reader.header();
    Ok(vec![
        format!("file      : {file}"),
        format!("variable  : {}", h.name),
        format!("rows (M)  : {}", h.rows),
        format!("cols (N)  : {}", h.cols),
        format!("version   : v{}", h.version),
        format!("dtype     : {}", h.dtype.name()),
        format!("data size : {:.1} MB", (h.rows * h.cols * h.dtype.size()) as f64 / 1e6),
        format!("chunk rows: {}", h.chunk_rows),
    ])
}

struct SvdRun {
    singular_values: Vec<f64>,
    modes: Matrix,
}

fn run_svd(file: &str, cfg: SvdConfig, ranks: usize, batch: usize) -> Result<SvdRun, String> {
    if ranks <= 1 {
        let mut reader = NcsimReader::open(Path::new(file)).map_err(|e| e.to_string())?;
        let data = reader.read_all().map_err(|e| e.to_string())?;
        let mut s = SerialStreamingSvd::new(cfg);
        s.fit_batched(&data, batch.min(data.cols()).max(1));
        Ok(SvdRun { singular_values: s.singular_values().to_vec(), modes: s.modes().clone() })
    } else {
        let (rows, cols) = {
            let reader = NcsimReader::open(Path::new(file)).map_err(|e| e.to_string())?;
            (reader.rows(), reader.header().cols)
        };
        // Every batch after the first QR-factors up to K + batch columns of
        // each rank's rows (TSQR), which needs that block tall.
        let batch = batch.min(cols).max(1);
        let min_block = block_len(rows, ranks, ranks - 1);
        if cols > batch && min_block < cfg.k + batch {
            return Err(format!(
                "--ranks {ranks}: the smallest row block ({min_block} rows) must cover K + the \
                 batch width ({} + {batch}); use fewer ranks or a smaller --batch",
                cfg.k
            ));
        }
        let world = World::new(ranks);
        let out = world.run(|comm| -> Result<_, String> {
            let mut reader = NcsimReader::open(Path::new(file)).map_err(|e| e.to_string())?;
            let local =
                reader.read_rank_block(comm.size(), comm.rank()).map_err(|e| e.to_string())?;
            let mut d = ParallelStreamingSvd::new(comm, cfg);
            d.fit_batched(&local, batch);
            Ok((d.gather_modes(0), d.singular_values().to_vec()))
        });
        let mut results = Vec::new();
        for r in out {
            results.push(r?);
        }
        let modes = results[0].0.clone().expect("rank 0 gathers");
        Ok(SvdRun { singular_values: results[0].1.clone(), modes })
    }
}

fn cmd_svd(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let file = a.one_positional("input file")?;
    let k = a.usize_or("k", 10)?;
    let ranks = a.usize_or("ranks", 1)?;
    let batch = a.usize_or("batch", 64)?;
    let cfg = SvdConfig::new(k)
        .with_forget_factor(a.f64_or("ff", 0.95)?)
        .with_r1(a.usize_or("r1", 50)?)
        .with_r2(a.usize_or("r2", k)?.max(k))
        .with_low_rank(a.switch("low-rank"))
        .try_validated()
        .map_err(|e| e.to_string())?;
    let run = run_svd(file, cfg, ranks, batch)?;

    let mut out = Vec::new();
    if !a.switch("quiet") {
        out.push(format!(
            "svd of {file}: K = {k}, {ranks} rank(s), batch = {batch}, ff = {}, {}",
            cfg.forget_factor,
            if cfg.low_rank { "randomized" } else { "deterministic" }
        ));
        for (i, s) in run.singular_values.iter().enumerate() {
            out.push(format!("  sigma_{i} = {s:.6e}"));
        }
    }
    if let Some(path) = a.get("values-out") {
        write_singular_values_csv(Path::new(path), &run.singular_values)
            .map_err(|e| e.to_string())?;
        out.push(format!("wrote {path}"));
    }
    if let Some(path) = a.get("modes-out") {
        write_modes_csv(Path::new(path), &run.modes).map_err(|e| e.to_string())?;
        out.push(format!("wrote {path}"));
    }
    Ok(out)
}

fn cmd_validate(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let file = a.one_positional("input file")?;
    let k = a.usize_or("k", 6)?;
    let ranks = a.usize_or("ranks", 4)?;
    if ranks < 2 {
        return Err(format!(
            "validate compares serial with parallel: --ranks must be at least 2, got {ranks}"
        ));
    }
    let batch = a.usize_or("batch", 64)?;
    let cfg = SvdConfig::new(k)
        .with_forget_factor(1.0)
        .with_r1(10_000)
        .with_r2(10_000)
        .try_validated()
        .map_err(|e| e.to_string())?;

    let serial = run_svd(file, cfg, 1, batch)?;
    let parallel = run_svd(file, cfg, ranks, batch)?;
    let spec_err = spectrum_error(&serial.singular_values, &parallel.singular_values);
    let angle = max_principal_angle(&serial.modes, &parallel.modes);
    // Mixed precision demotes wire payloads to f32, so the parallel run
    // legitimately departs from the (wire-free) serial one at single
    // precision; hold it to f32-level agreement instead of f64-level.
    let (spec_tol, angle_tol) =
        if cfg.precision == Precision::Mixed { (1e-5, 1e-2) } else { (1e-6, 1e-4) };
    let ok = spec_err < spec_tol && angle < angle_tol;
    let mut out = vec![
        format!("serial vs {ranks}-rank parallel on {file} (K = {k}):"),
        format!("  spectrum error : {spec_err:.3e}"),
        format!("  subspace angle : {angle:.3e} rad"),
        format!("  verdict        : {}", if ok { "PASS" } else { "FAIL" }),
    ];
    if !ok {
        out.push(format!("  (expected spectrum error < {spec_tol:e} and angle < {angle_tol:e})"));
        return Err(out.join("\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("psvd_cli_{name}_{}", std::process::id()))
            .display()
            .to_string()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out[0].contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_info_svd_validate_roundtrip() {
        let file = tmp("pipeline.ncs");
        // Generate a small Burgers dataset.
        let out = run(&argv(&[
            "generate",
            "burgers",
            "--out",
            &file,
            "--grid",
            "256",
            "--snapshots",
            "48",
        ]))
        .unwrap();
        assert!(out[0].contains("wrote"));

        // Inspect it.
        let info = run(&argv(&["info", &file])).unwrap();
        assert!(info.iter().any(|l| l.contains("256")));
        assert!(info.iter().any(|l| l.contains("48")));
        assert!(info.iter().any(|l| l.contains("v2")));
        assert!(info.iter().any(|l| l.contains("f64")));
        assert!(info.iter().any(|l| l.contains("chunk rows: 256")));

        // An f32 file reports its dtype and chunking too, with the byte
        // size scaled by the element width.
        let v2 = tmp("pipeline_v2.ncs");
        let small: Matrix<f32> = Matrix::from_fn(64, 8, |i, j| (i + j) as f32);
        let opts = V2Options { chunk_rows: 16, ..Default::default() };
        write_v2(Path::new(&v2), "u", &small, opts).unwrap();
        let info = run(&argv(&["info", &v2])).unwrap();
        assert!(info.iter().any(|l| l.contains("f32")));
        assert!(info.iter().any(|l| l.contains("chunk rows: 16")));
        assert!(info.iter().any(|l| l.contains("0.0 MB"))); // 64*8*4 bytes
        std::fs::remove_file(&v2).ok();

        // Serial SVD with CSV output.
        let sv_csv = tmp("sv.csv");
        let out = run(&argv(&["svd", &file, "--k", "4", "--ff", "1.0", "--values-out", &sv_csv]))
            .unwrap();
        assert!(out.iter().any(|l| l.contains("sigma_0")));
        let text = std::fs::read_to_string(&sv_csv).unwrap();
        assert_eq!(text.lines().count(), 5);

        // Parallel SVD matches serial (validate passes).
        let out = run(&argv(&["validate", &file, "--k", "4", "--ranks", "3"])).unwrap();
        assert!(out.iter().any(|l| l.contains("PASS")));

        // Bad numeric arguments are typed errors naming the violated
        // condition, not panics; validate needs a parallel side to compare.
        for (args, want) in [
            (vec!["svd", &file, "--k", "0"], "K must be positive"),
            (vec!["svd", &file, "--ff", "2.0"], "forget factor must be in (0, 1]"),
            (vec!["svd", &file, "--r1", "0"], "r1 must be positive"),
            (vec!["validate", &file, "--ranks", "0"], "--ranks must be at least 2"),
            (vec!["validate", &file, "--ranks", "1"], "--ranks must be at least 2"),
            (vec!["svd", &file, "--k", "4", "--ranks", "32", "--batch", "16"], "(4 + 16)"),
            (vec!["validate", &file, "--k", "4", "--ranks", "32", "--batch", "16"], "(4 + 16)"),
        ] {
            let err = run(&argv(&args)).expect_err(&args.join(" "));
            assert!(err.contains(want), "{args:?}: {err}");
        }

        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&sv_csv).ok();
    }

    #[test]
    fn generate_era5_and_parallel_svd() {
        let file = tmp("era5.ncs");
        run(&argv(&[
            "generate",
            "era5",
            "--out",
            &file,
            "--nlat",
            "12",
            "--nlon",
            "18",
            "--snapshots",
            "64",
        ]))
        .unwrap();
        let modes_csv = tmp("modes.csv");
        let out = run(&argv(&[
            "svd",
            &file,
            "--k",
            "3",
            "--ranks",
            "2",
            "--batch",
            "16",
            "--ff",
            "1.0",
            "--modes-out",
            &modes_csv,
            "--quiet",
        ]))
        .unwrap();
        assert!(out.iter().any(|l| l.contains("modes")));
        let text = std::fs::read_to_string(&modes_csv).unwrap();
        assert!(text.starts_with("point,mode_0,mode_1,mode_2"));
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&modes_csv).ok();
    }

    #[test]
    fn wake_dmd_pipeline() {
        let file = tmp("wake.ncs");
        run(&argv(&[
            "generate",
            "wake",
            "--out",
            &file,
            "--nx",
            "32",
            "--ny",
            "16",
            "--snapshots",
            "128",
            "--fs",
            "1.1",
        ]))
        .unwrap();
        let out = run(&argv(&["dmd", &file, "--k", "5", "--dt", "0.05"])).unwrap();
        // The shedding frequency must appear in the eigenvalue table.
        assert!(
            out.iter().any(|l| l.contains("1.10000") || l.contains("-1.10000")),
            "shedding frequency missing from: {out:?}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn pod_and_spod_commands() {
        let file = tmp("analysis.ncs");
        run(&argv(&[
            "generate",
            "wake",
            "--out",
            &file,
            "--nx",
            "24",
            "--ny",
            "12",
            "--snapshots",
            "192",
        ]))
        .unwrap();
        let modes_csv = tmp("pod_modes.csv");
        let pod_out = run(&argv(&["pod", &file, "--k", "4", "--modes-out", &modes_csv])).unwrap();
        assert!(pod_out.iter().any(|l| l.contains("cumulative energy")));
        assert!(std::fs::read_to_string(&modes_csv).unwrap().starts_with("point,mode_0"));

        let spod_out = run(&argv(&["spod", &file, "--nfft", "64", "--dt", "0.05"])).unwrap();
        assert!(spod_out.iter().any(|l| l.contains("peak frequency")));
        // Peak should be near the 1.1 Hz shedding (bin width 1/(64*0.05) ~ 0.31).
        let peak_line = spod_out.iter().find(|l| l.contains("peak frequency")).unwrap();
        let peak: f64 = peak_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!((peak - 1.1).abs() < 0.32, "peak {peak}");

        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&modes_csv).ok();
    }

    #[test]
    fn spod_rejects_short_records() {
        let file = tmp("short.ncs");
        run(&argv(&["generate", "burgers", "--out", &file, "--grid", "64", "--snapshots", "16"]))
            .unwrap();
        assert!(run(&argv(&["spod", &file, "--nfft", "64"])).is_err());
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn info_on_missing_file_fails() {
        assert!(run(&argv(&["info", "/nonexistent/file.ncs"])).is_err());
    }

    #[test]
    fn threads_flag_sets_kernel_pool() {
        let file = tmp("threads.ncs");
        run(&argv(&[
            "generate",
            "burgers",
            "--out",
            &file,
            "--grid",
            "64",
            "--snapshots",
            "8",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(psvd_linalg::par::num_threads(), 2);
        psvd_linalg::par::set_num_threads(0);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn threads_flag_rejects_garbage() {
        assert!(run(&argv(&["info", "x.ncs", "--threads", "0"])).is_err());
        assert!(run(&argv(&["info", "x.ncs", "--threads", "many"])).is_err());
    }

    #[test]
    fn generate_requires_out() {
        assert!(run(&argv(&["generate", "burgers"])).is_err());
    }
}
