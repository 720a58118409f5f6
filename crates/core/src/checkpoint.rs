//! Checkpoint / restart for the streaming drivers.
//!
//! Streaming jobs run for the lifetime of a simulation; on HPC systems that
//! lifetime is chopped into scheduler allocations. A checkpoint captures
//! the entire algorithmic state of a tracker — modes, singular values,
//! counters — so a follow-up job resumes the stream bit-exactly. The format
//! is a small self-describing little-endian binary (one file per rank for
//! the distributed driver, as each rank owns only its row block).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use psvd_linalg::Matrix;

const MAGIC: &[u8; 8] = b"PSVDCKP1";

/// A serializable snapshot of a streaming tracker's state.
#[derive(Clone, Debug, PartialEq)]
pub struct SvdCheckpoint {
    /// Tracked modes (`M x K'`).
    pub modes: Matrix,
    /// Singular values (length `K'`).
    pub singular_values: Vec<f64>,
    /// Streaming updates performed.
    pub iteration: usize,
    /// Snapshots ingested.
    pub snapshots_seen: usize,
}

impl SvdCheckpoint {
    /// Exact size of the [`SvdCheckpoint::to_bytes`] encoding, without
    /// encoding — what an eviction ledger charges for spilling this state.
    pub fn byte_len(&self) -> usize {
        let (m, k) = self.modes.shape();
        48 + 8 * (m * k + self.singular_values.len())
    }

    /// Encode to bytes (self-describing, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let (m, k) = self.modes.shape();
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(MAGIC);
        for v in [
            m as u64,
            k as u64,
            self.singular_values.len() as u64,
            self.iteration as u64,
            self.snapshots_seen as u64,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &x in self.modes.as_slice() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for &x in &self.singular_values {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Decode from bytes written by [`SvdCheckpoint::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if data.len() < 48 || &data[..8] != MAGIC {
            return Err(bad("not a PSVD checkpoint"));
        }
        let mut u64s = [0u64; 5];
        for (i, v) in u64s.iter_mut().enumerate() {
            let off = 8 + i * 8;
            *v = u64::from_le_bytes(data[off..off + 8].try_into().expect("sized"));
        }
        let [m, k, ns, iteration, snapshots_seen] = u64s.map(|v| v as usize);
        // Checked arithmetic: corrupted dimension fields must produce a
        // clean error, not an overflow panic.
        let need = m
            .checked_mul(k)
            .and_then(|mk| mk.checked_add(ns))
            .and_then(|n| n.checked_mul(8))
            .and_then(|b| b.checked_add(48))
            .ok_or_else(|| bad("checkpoint dimensions overflow"))?;
        if data.len() != need {
            return Err(bad("checkpoint length mismatch"));
        }
        let mut floats = Vec::with_capacity(m * k + ns);
        for i in 0..(m * k + ns) {
            let off = 48 + i * 8;
            floats.push(f64::from_le_bytes(data[off..off + 8].try_into().expect("sized")));
        }
        let sv = floats.split_off(m * k);
        Ok(Self {
            modes: Matrix::from_vec(m, k, floats),
            singular_values: sv,
            iteration,
            snapshots_seen,
        })
    }

    /// Stack per-rank distributed checkpoints (rank order) into the
    /// equivalent global checkpoint, e.g. to publish a served session's
    /// model or hand a distributed run to the serial driver as its restart
    /// oracle. All parts must come from the same streaming step.
    pub fn vstack(parts: Vec<SvdCheckpoint>) -> SvdCheckpoint {
        assert!(!parts.is_empty(), "vstack of no checkpoints");
        for p in &parts[1..] {
            assert_eq!(p.singular_values, parts[0].singular_values, "mixed-step checkpoints");
            assert_eq!(p.iteration, parts[0].iteration, "mixed-step checkpoints");
            assert_eq!(p.snapshots_seen, parts[0].snapshots_seen, "mixed-step checkpoints");
        }
        let singular_values = parts[0].singular_values.clone();
        let iteration = parts[0].iteration;
        let snapshots_seen = parts[0].snapshots_seen;
        let modes = Matrix::vstack_owned(parts.into_iter().map(|p| p.modes).collect());
        SvdCheckpoint { modes, singular_values, iteration, snapshots_seen }
    }

    /// Write to a file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&self.to_bytes())?;
        out.flush()
    }

    /// Read from a file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut data = Vec::new();
        BufReader::new(File::open(path)?).read_to_end(&mut data)?;
        Self::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SvdConfig;
    use crate::serial::SerialStreamingSvd;
    use psvd_linalg::random::{matrix_with_spectrum, seeded_rng};

    fn config() -> SvdConfig {
        SvdConfig::new(5).with_forget_factor(0.95)
    }

    fn tracker_after(n_batches: usize) -> (SerialStreamingSvd, Matrix) {
        stream(config(), n_batches)
    }

    fn stream(cfg: SvdConfig, n_batches: usize) -> (SerialStreamingSvd, Matrix) {
        let mut rng = seeded_rng(11);
        let spec: Vec<f64> = (0..12).map(|i| 4.0 * 0.7f64.powi(i)).collect();
        let data = matrix_with_spectrum(60, 48, &spec, &mut rng);
        let mut s = SerialStreamingSvd::new(cfg);
        for b in 0..n_batches {
            let chunk = data.submatrix(0, 60, b * 8, (b + 1) * 8);
            if s.is_initialized() {
                s.incorporate_data(&chunk);
            } else {
                s.initialize(&chunk);
            }
        }
        (s, data)
    }

    #[test]
    fn bytes_roundtrip() {
        let (s, _) = tracker_after(3);
        let ckpt = s.checkpoint();
        let encoded = ckpt.to_bytes();
        assert_eq!(encoded.len(), ckpt.byte_len());
        let back = SvdCheckpoint::from_bytes(&encoded).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn file_roundtrip() {
        let (s, _) = tracker_after(2);
        let path = std::env::temp_dir().join(format!("psvd_ckpt_{}.bin", std::process::id()));
        let ckpt = s.checkpoint();
        ckpt.save(&path).unwrap();
        let back = SvdCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_is_bit_exact() {
        // Run 6 batches straight vs 3 batches + checkpoint + restore + 3:
        // final states must be identical, the randomized path's included.
        for cfg in [config(), config().with_low_rank(true).with_power_iterations(2)] {
            let (straight, data) = stream(cfg, 6);
            let (half, _) = stream(cfg, 3);
            let mut resumed = SerialStreamingSvd::restore(cfg, half.checkpoint());
            for b in 3..6 {
                resumed.incorporate_data(&data.submatrix(0, 60, b * 8, (b + 1) * 8));
            }
            assert_eq!(straight.modes(), resumed.modes(), "low_rank {}", cfg.low_rank);
            assert_eq!(straight.singular_values(), resumed.singular_values());
            assert_eq!(straight.iteration(), resumed.iteration());
            assert_eq!(straight.snapshots_seen(), resumed.snapshots_seen());
        }
    }

    #[test]
    fn corrupted_data_rejected() {
        let (s, _) = tracker_after(1);
        let mut bytes = s.checkpoint().to_bytes();
        bytes[0] = b'X';
        assert!(SvdCheckpoint::from_bytes(&bytes).is_err());
        let mut truncated = s.checkpoint().to_bytes();
        truncated.pop();
        assert!(SvdCheckpoint::from_bytes(&truncated).is_err());
    }

    #[test]
    fn vstack_reassembles_rank_blocks() {
        let (s, _) = tracker_after(2);
        let global = s.checkpoint();
        let (m, k) = global.modes.shape();
        let part = |r0: usize, r1: usize| SvdCheckpoint {
            modes: global.modes.submatrix(r0, r1, 0, k),
            singular_values: global.singular_values.clone(),
            iteration: global.iteration,
            snapshots_seen: global.snapshots_seen,
        };
        let back = SvdCheckpoint::vstack(vec![part(0, 25), part(25, m)]);
        assert_eq!(back, global);
    }

    #[test]
    #[should_panic(expected = "mixed-step")]
    fn vstack_rejects_mixed_steps() {
        let (s, _) = tracker_after(2);
        let a = s.checkpoint();
        let mut b = a.clone();
        b.iteration += 1;
        let _ = SvdCheckpoint::vstack(vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "uninitialized")]
    fn checkpoint_before_init_panics() {
        let s = SerialStreamingSvd::new(SvdConfig::new(2));
        let _ = s.checkpoint();
    }
}
