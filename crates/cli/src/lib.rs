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
//! psvd pod burgers.ncs --k 4
//! psvd reproduce [--full]
//! ```

pub mod args;
pub mod reproduce;

use std::path::Path;

use args::ParsedArgs;
use psvd_comm::{Communicator, World};
use psvd_core::postprocess::{write_modes_csv, write_singular_values_csv};
use psvd_core::{ParallelStreamingSvd, SerialStreamingSvd, SvdConfig};
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
  psvd info FILE
  psvd svd FILE  [--k K] [--ranks R] [--batch B] [--ff F] [--r1 N] [--r2 N]
                 [--low-rank] [--values-out CSV] [--modes-out CSV] [--quiet]
  psvd validate FILE [--k K] [--ranks R] [--batch B]
  psvd pod FILE [--k K] [--modes-out CSV]
  psvd reproduce [--full]
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
        "reproduce" => cmd_reproduce(&parsed),
        other => Err(format!("unknown command '{other}' (try `psvd help`)")),
    }
}

/// Open a container for a decomposition: one with no rows or no columns
/// has nothing to decompose.
fn open_nonempty(file: &str) -> Result<NcsimReader, String> {
    let reader = NcsimReader::open(Path::new(file)).map_err(|e| e.to_string())?;
    let (rows, cols) = (reader.rows(), reader.cols());
    if rows == 0 || cols == 0 {
        return Err(format!("{file} holds a {rows} x {cols} matrix: nothing to decompose"));
    }
    Ok(reader)
}

/// The paper's figures and the ablations as checked claims
/// ([`reproduce`]); `--full` runs F1ab, F1c and F2 at the paper's sizes.
fn cmd_reproduce(a: &ParsedArgs) -> Result<Vec<String>, String> {
    if let Some(p) = a.positional.first() {
        return Err(format!(
            "reproduce takes no argument, got '{p}' (usage: psvd reproduce [--full])"
        ));
    }
    reproduce::run(a.switch("full"))
}

fn cmd_pod(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let file = a.one_positional("input file")?;
    let k = a.usize_or("k", 6)?;
    SvdConfig::new(k).try_validated().map_err(|e| e.to_string())?;
    let data = open_nonempty(file)?.read_all().map_err(|e| e.to_string())?;
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

fn cmd_generate(a: &ParsedArgs) -> Result<Vec<String>, String> {
    let kind = a.one_positional("dataset kind (burgers|era5)")?;
    let out = a.require("out")?;
    let path = Path::new(out);
    match kind {
        "burgers" => {
            let cfg = BurgersConfig {
                grid_points: a.positive_or("grid", 2048)?,
                snapshots: a.positive_or("snapshots", 200)?,
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
                nlat: a.positive_or("nlat", 48)?,
                nlon: a.positive_or("nlon", 72)?,
                snapshots: a.positive_or("snapshots", 512)?,
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
        other => Err(format!("unknown dataset kind '{other}' (burgers|era5)")),
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
        let data = open_nonempty(file)?.read_all().map_err(|e| e.to_string())?;
        let mut s = SerialStreamingSvd::new(cfg);
        s.fit_batched(&data, batch.min(data.cols()));
        Ok(SvdRun { singular_values: s.singular_values().to_vec(), modes: s.modes().clone() })
    } else {
        let (rows, cols) = {
            let reader = open_nonempty(file)?;
            (reader.rows(), reader.cols())
        };
        // Every batch after the first QR-factors up to K + batch columns of
        // each rank's rows (TSQR), which needs that block tall.
        let batch = batch.min(cols);
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
    let ranks = a.positive_or("ranks", 1)?;
    let batch = a.positive_or("batch", 64)?;
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
    let batch = a.positive_or("batch", 64)?;
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
    let (spec_tol, angle_tol) = (1e-6, 1e-4);
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
        // A zero size writes no file, and an empty container is refused.
        let never = tmp("never.ncs");
        let no_rows = tmp("no_rows.ncs");
        let no_cols = tmp("no_cols.ncs");
        write_v2(Path::new(&no_rows), "u", &Matrix::<f64>::zeros(0, 8), V2Options::default())
            .unwrap();
        write_v2(Path::new(&no_cols), "u", &Matrix::<f64>::zeros(64, 0), V2Options::default())
            .unwrap();
        for (args, want) in [
            (vec!["svd", &file, "--k", "0"], "K must be positive"),
            (vec!["svd", &file, "--ff", "2.0"], "forget factor must be in (0, 1]"),
            (vec!["svd", &file, "--r1", "0"], "r1 must be positive"),
            (vec!["validate", &file, "--ranks", "0"], "--ranks must be at least 2"),
            (vec!["validate", &file, "--ranks", "1"], "--ranks must be at least 2"),
            (vec!["svd", &file, "--ranks", "0"], "--ranks must be positive"),
            (vec!["svd", &file, "--batch", "0"], "--batch must be positive"),
            (vec!["validate", &file, "--ranks", "2", "--batch", "0"], "--batch must be positive"),
            (vec!["svd", &file, "--k", "4", "--ranks", "32", "--batch", "16"], "(4 + 16)"),
            (vec!["validate", &file, "--k", "4", "--ranks", "32", "--batch", "16"], "(4 + 16)"),
            (vec!["pod", &file, "--k", "0"], "K must be positive"),
            (
                vec!["generate", "burgers", "--out", &never, "--grid", "0"],
                "--grid must be positive",
            ),
            (vec!["generate", "burgers", "--out", &never, "--snapshots", "0"], "--snapshots"),
            (vec!["generate", "era5", "--out", &never, "--nlat", "0"], "--nlat must be positive"),
            (vec!["generate", "era5", "--out", &never, "--nlon", "0"], "--nlon must be positive"),
            (vec!["generate", "era5", "--out", &never, "--snapshots", "0"], "--snapshots"),
            (vec!["svd", &no_rows], "0 x 8 matrix"),
            (vec!["svd", &no_cols, "--ranks", "2"], "64 x 0 matrix"),
            (vec!["validate", &no_rows], "0 x 8 matrix"),
            (vec!["validate", &no_cols], "64 x 0 matrix"),
            (vec!["pod", &no_rows], "0 x 8 matrix"),
            (vec!["pod", &no_cols], "64 x 0 matrix"),
        ] {
            let err = run(&argv(&args)).expect_err(&args.join(" "));
            assert!(err.contains(want), "{args:?}: {err}");
        }
        assert!(!Path::new(&never).exists(), "a rejected size must not create its file");
        std::fs::remove_file(&no_rows).ok();
        std::fs::remove_file(&no_cols).ok();

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
    fn pod_command() {
        let file = tmp("pod.ncs");
        run(&argv(&["generate", "burgers", "--out", &file, "--grid", "256", "--snapshots", "48"]))
            .unwrap();
        let modes_csv = tmp("pod_modes.csv");
        let out = run(&argv(&["pod", &file, "--k", "4", "--modes-out", &modes_csv])).unwrap();
        assert_eq!(out.iter().filter(|l| l.contains("cumulative energy")).count(), 4);
        assert!(std::fs::read_to_string(&modes_csv).unwrap().starts_with("point,mode_0"));
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&modes_csv).ok();
    }

    #[test]
    fn f32_tagged_files_are_refused_with_a_typed_error() {
        use psvd_data::ncsim::Dtype;
        use psvd_data::prefetch::SnapshotPrefetcher;
        use std::io::ErrorKind;

        let file = tmp("f32_tagged.ncs");
        let a = Matrix::from_fn(64, 8, |i, j| (i + j) as f64);
        write_v2(Path::new(&file), "u", &a, V2Options { chunk_rows: 16, ..Default::default() })
            .unwrap();
        // The dtype byte follows magic, the name's length and bytes, rows
        // and cols.
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[8 + 4 + "u".len() + 16] = Dtype::F32.tag();
        std::fs::write(&file, &bytes).unwrap();

        let info = run(&argv(&["info", &file])).unwrap();
        assert!(info.iter().any(|l| l.contains("dtype     : f32")), "{info:?}");
        let mut reader = NcsimReader::open(Path::new(&file)).unwrap();
        let mut dst = Matrix::<f64>::zeros(0, 0);
        let err = reader.read_block_into(0, 64, 0, 8, &mut dst).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        let err = SnapshotPrefetcher::<f64>::open(Path::new(&file), 2).err().expect("refused");
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        for ranks in ["1", "2"] {
            let err = run(&argv(&["svd", &file, "--k", "2", "--ranks", ranks])).unwrap_err();
            assert!(err.contains("file holds f32 data, requested f64"), "{ranks}: {err}");
        }
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
    fn reproduce_rejects_a_positional_argument() {
        let err = run(&argv(&["reproduce", "F1ab"])).unwrap_err();
        assert!(err.contains("takes no argument, got 'F1ab'"), "{err}");
    }

    #[test]
    fn generate_requires_out() {
        assert!(run(&argv(&["generate", "burgers"])).is_err());
    }
}
