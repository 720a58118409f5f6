//! Robustness of the IO and checkpoint formats against malformed input:
//! decoders must reject garbage with errors, never panic or misread.

use proptest::prelude::*;
use pyparsvd::core::{SerialStreamingSvd, SvdCheckpoint, SvdConfig};
use pyparsvd::data::ncsim::{write_v2, Codec, NcsimReader, NcsimV2Writer, V2Options};
use pyparsvd::linalg::Matrix;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("psvd_fuzz_{name}_{}", std::process::id()))
}

/// Shared body of the bit-flip property below and its named regression
/// cases: a single corrupted byte must either fail decoding or decode
/// into a structurally consistent checkpoint (sizes matching lengths) —
/// silent structural corruption is the only forbidden outcome.
fn checkpoint_bitflip_case(flip: usize) -> Result<(), String> {
    let mut s = SerialStreamingSvd::new(SvdConfig::new(3).with_forget_factor(1.0));
    s.initialize(&Matrix::from_fn(12, 6, |i, j| ((i + 2 * j) as f64).sin()));
    let mut bytes = s.checkpoint().to_bytes();
    let idx = flip % bytes.len();
    bytes[idx] ^= 0xFF;
    if let Ok(ckpt) = SvdCheckpoint::from_bytes(&bytes) {
        if ckpt.modes.cols() != ckpt.singular_values.len() {
            return Err(format!(
                "flip {flip}: decoded inconsistent checkpoint ({} mode cols, {} sigmas)",
                ckpt.modes.cols(),
                ckpt.singular_values.len()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ncsim_reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let path = tmp("garbage");
        std::fs::write(&path, &bytes).unwrap();
        // Opening may succeed only if the magic happens to match (it won't
        // for random bytes with overwhelming probability); either way, no
        // panic is allowed and errors must be clean.
        let _ = NcsimReader::open(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ncsim_truncated_files_rejected(cut in 1usize..100) {
        let path = tmp("truncated");
        let a = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        write_v2(&path, "v", &a, V2Options::default()).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = cut.min(full.len() - 1);
        std::fs::write(&path, &full[..full.len() - cut]).unwrap();
        // Header may still parse; the data read must then fail.
        if let Ok(mut r) = NcsimReader::open(&path) {
            prop_assert!(r.read_all().is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ncsim_v2_bitflips_never_panic(flip in 0usize..2048, xor in 1u8..=255) {
        // Flip one byte anywhere in a compressed v2 file: the reader must
        // either serve consistent data (the flip landed in slack it never
        // reads) or fail with a typed error — panics and misreads of the
        // requested shape are the forbidden outcomes.
        let path = tmp("v2_bitflip");
        let a = Matrix::from_fn(24, 5, |i, j| ((i * 5 + j) as f64 * 0.31).sin());
        write_v2(&path, "v", &a, V2Options { chunk_rows: 7, codec: Codec::ShuffleRle }).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = flip % bytes.len();
        bytes[idx] ^= xor;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(mut r) = NcsimReader::open(&path) {
            let mut dst: Matrix<f64> = Matrix::zeros(0, 0);
            if r.read_block_into(0, 24, 0, 5, &mut dst).is_ok() {
                prop_assert_eq!(dst.shape(), (24, 5));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ncsim_v2_garbage_chunk_tables_rejected(lens in proptest::collection::vec(any::<u64>(), 4)) {
        // Overwrite the patched chunk-length table with arbitrary values:
        // open-time validation or the block read must reject, not panic.
        let path = tmp("v2_chunktable");
        let a = Matrix::from_fn(16, 3, |i, j| (i * 3 + j) as f64);
        write_v2(&path, "v", &a, V2Options { chunk_rows: 4, codec: Codec::Raw }).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Header: magic(8) + name_len(4) + "v"(1) + rows(8) + cols(8)
        //         + dtype(1) + codec(1) + chunk_rows(8) = 39, then 4 chunk lens.
        for (k, len) in lens.iter().enumerate() {
            bytes[39 + 8 * k..39 + 8 * (k + 1)].copy_from_slice(&len.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(mut r) = NcsimReader::open(&path) {
            let mut dst: Matrix<f64> = Matrix::zeros(0, 0);
            let _ = r.read_block_into(0, 16, 0, 3, &mut dst);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = SvdCheckpoint::from_bytes(&bytes);
    }

    #[test]
    fn checkpoint_bitflip_detected_or_consistent(flip in 0usize..200) {
        prop_assert!(checkpoint_bitflip_case(flip).is_ok());
    }
}

// Named regression cases promoted from io_robustness.proptest-regressions
// so the seeds keep running even when proptest shrinks differently (see
// DESIGN.md, "Promoting proptest regressions").

#[test]
fn regression_checkpoint_bitflip_flip_15() {
    // Seed `cc da0d9407…` shrank to flip = 15: the most-significant byte
    // of the header's row-count field, which inflates the promised payload
    // past any sane allocation — the overflow-checked decoder must reject.
    checkpoint_bitflip_case(15).unwrap();
}

#[test]
fn ncsim_header_only_file() {
    // A file containing exactly the header (zero-row variable) roundtrips.
    let path = tmp("header_only");
    let a: Matrix = Matrix::zeros(0, 5);
    write_v2(&path, "empty", &a, V2Options::default()).unwrap();
    let mut r = NcsimReader::open(&path).unwrap();
    assert_eq!(r.rows(), 0);
    assert_eq!(r.cols(), 5);
    assert_eq!(r.read_all().unwrap().shape(), (0, 5));
    std::fs::remove_file(&path).ok();
}

#[test]
fn ncsim_large_name_rejected() {
    // Corrupt the name length field to a huge value: reader must refuse.
    let path = tmp("bigname");
    let a: Matrix = Matrix::zeros(2, 2);
    write_v2(&path, "ok", &a, V2Options::default()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(u32::MAX).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(NcsimReader::open(&path).is_err());
    std::fs::remove_file(&path).ok();

    // The writer refuses, before creating the file, any name its own
    // reader would refuse; the longest accepted name round-trips.
    let long = "x".repeat(5000);
    let err = NcsimV2Writer::<f64>::create(&path, &long, 2, 2, V2Options::default()).err();
    assert_eq!(err.map(|e| e.kind()), Some(std::io::ErrorKind::InvalidInput));
    assert!(!path.exists(), "a refused name must not leave a file behind");
    write_v2(&path, &long[..4096], &a, V2Options::default()).unwrap();
    assert_eq!(NcsimReader::open(&path).unwrap().header().name.len(), 4096);
    std::fs::remove_file(&path).ok();
}
