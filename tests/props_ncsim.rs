//! Property tests for the `ncsim` container: round-trips are bit-exact
//! across chunkings and codecs; hyperslab reads match
//! in-core slicing; malformed or future-versioned files are rejected with
//! typed errors, never panics.

use proptest::prelude::*;
use pyparsvd::data::ncsim::{write_v2, Codec, Dtype, NcsimReader, V2Options};
use pyparsvd::linalg::Matrix;

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("psvd_props_ncsim_{name}_{case}_{}", std::process::id()))
}

/// A deterministic but byte-diverse test matrix: mixes smooth fields
/// (compressible under shuffle+RLE) with sign flips and exact zeros.
fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i * cols + j) as f64 + seed as f64 * 0.618;
        if (i + j) % 7 == 0 {
            0.0
        } else {
            (x * 0.173).sin() * 1e3 + i as f64
        }
    })
}

fn roundtrip_case(rows: usize, cols: usize, chunk_rows: usize, codec: Codec, case: u64) {
    let a = sample(rows, cols, case);
    let path = tmp("f64", case);
    write_v2(&path, "var", &a, V2Options { chunk_rows, codec }).unwrap();

    let mut r = NcsimReader::open(&path).unwrap();
    assert_eq!(r.header().version, 2);
    assert_eq!((r.rows(), r.cols()), (rows, cols));

    // Full read is bit-exact.
    let mut full = Matrix::zeros(0, 0);
    r.read_block_into(0, rows, 0, cols, &mut full).unwrap();
    assert_eq!(full, a, "full v2 read must be bit-exact");

    // Every aligned and unaligned hyperslab matches in-core slicing.
    if rows > 2 && cols > 1 {
        let (r0, r1) = (rows / 3, rows - rows / 4);
        let (c0, c1) = (cols / 2, cols);
        let mut block = Matrix::zeros(0, 0);
        r.read_block_into(r0, r1, c0, c1, &mut block).unwrap();
        assert_eq!(block, a.submatrix(r0, r1, c0, c1), "hyperslab must be bit-exact");
    }

    // Out-of-range requests are typed errors, not panics.
    let mut sink: Matrix = Matrix::zeros(0, 0);
    assert!(r.read_block_into(0, rows + 1, 0, cols, &mut sink).is_err());
    assert!(r.read_block_into(0, rows, cols, cols + 1, &mut sink).err().is_some());

    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn v2_roundtrip_f64(
        rows in 0usize..60,
        cols in 1usize..20,
        chunk_rows in 1usize..70,
        rle in any::<bool>(),
        case in any::<u64>(),
    ) {
        let codec = if rle { Codec::ShuffleRle } else { Codec::Raw };
        roundtrip_case(rows, cols, chunk_rows, codec, case);
    }

    #[test]
    fn v2_truncation_rejected(cut in 1usize..200, case in any::<u64>()) {
        let a = sample(16, 6, case);
        let path = tmp("trunc", case);
        write_v2(&path, "var", &a, V2Options { chunk_rows: 4, codec: Codec::ShuffleRle }).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = cut.min(full.len() - 1);
        std::fs::write(&path, &full[..full.len() - cut]).unwrap();
        // Either the header validation or the data read must fail cleanly.
        if let Ok(mut r) = NcsimReader::open(&path) {
            let mut dst: Matrix<f64> = Matrix::zeros(0, 0);
            prop_assert!(r.read_block_into(0, 16, 0, 6, &mut dst).is_err());
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn future_versions_rejected_gracefully() {
    // Every version byte but 2 — the retired v1 as well as future ones —
    // is a typed error, never a misread.
    let a = sample(4, 3, 0);
    let path = tmp("future", 0);
    write_v2(&path, "var", &a, V2Options::default()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    for version in (0..=u8::MAX).filter(|&v| v != 2) {
        bytes[5] = version; // the version byte of the magic
        std::fs::write(&path, &bytes).unwrap();
        match NcsimReader::open(&path) {
            Ok(_) => panic!("version {version} must be rejected"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "version {version}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dtype_mismatch_is_a_typed_error() {
    let a = sample(6, 4, 1);
    let path = tmp("dtype", 0);
    write_v2(&path, "var", &a, V2Options::default()).unwrap();
    // An f32-tagged header: the dtype byte follows magic, the name's
    // length and bytes, rows and cols.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8 + 4 + "var".len() + 16] = Dtype::F32.tag();
    std::fs::write(&path, &bytes).unwrap();
    let mut r = NcsimReader::open(&path).unwrap();
    let mut dst: Matrix<f64> = Matrix::zeros(0, 0);
    let err = r.read_block_into(0, 6, 0, 4, &mut dst).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    std::fs::remove_file(&path).ok();
}
