//! Message payloads.
//!
//! Every value that travels between ranks implements [`Payload`], which the
//! traffic recorder uses to charge byte volumes (the sizes a real MPI
//! implementation would put on the wire for contiguous element buffers).
//! A matrix is charged a 16-byte dims header plus `size_of::<T>()` per
//! element.

use psvd_linalg::{Matrix, Scalar};

/// A value that can be shipped between ranks.
pub trait Payload: Send + 'static {
    /// Wire size in bytes (payload only, headers excluded).
    fn byte_len(&self) -> usize;
}

impl Payload for () {
    fn byte_len(&self) -> usize {
        0
    }
}

impl Payload for f64 {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for u64 {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for usize {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for bool {
    fn byte_len(&self) -> usize {
        1
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn byte_len(&self) -> usize {
        self.iter().map(Payload::byte_len).sum()
    }
}

impl<T: Scalar> Payload for Matrix<T> {
    fn byte_len(&self) -> usize {
        // Dims header + contiguous data, as an MPI derived type would ship.
        16 + std::mem::size_of::<T>() * self.rows() * self.cols()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn byte_len(&self) -> usize {
        self.0.byte_len() + self.1.byte_len() + self.2.byte_len()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn byte_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::byte_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(().byte_len(), 0);
        assert_eq!(1.5f64.byte_len(), 8);
        assert_eq!(3usize.byte_len(), 8);
        assert_eq!(true.byte_len(), 1);
    }

    #[test]
    fn vector_and_matrix_sizes() {
        assert_eq!(vec![0.0f64; 10].byte_len(), 80);
        assert_eq!(Matrix::<f64>::zeros(3, 4).byte_len(), 16 + 96);
    }

    #[test]
    fn matrix_wire_size_is_dtype_aware() {
        // size_of::<f64>() data bytes per element behind the 16-byte dims
        // header.
        let wide = Matrix::<f64>::zeros(7, 9);
        assert_eq!(wide.byte_len(), 16 + 8 * 63);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1.0f64, vec![0.0f64; 2]).byte_len(), 24);
        assert_eq!(Some(2.0f64).byte_len(), 9);
        assert_eq!(None::<f64>.byte_len(), 1);
    }
}
