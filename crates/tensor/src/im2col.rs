//! im2col convolution: a second, independent formulation of the
//! convolution used to cross-check the direct reference implementation.
//!
//! `im2col` unrolls each receptive field of the input volume into a column
//! of a matrix, turning the convolution into a single matrix-matrix
//! multiplication — the formulation GPU libraries (and many accelerator
//! papers) reason in. Having two independent implementations lets the test
//! suite validate Algorithm 1 property-style: for any input/kernel/stride/
//! padding, `conv2d == im2col_conv2d`.

use crate::conv::ConvSpec;
use crate::shape::output_extent;
use crate::{Tensor3, Tensor4};

/// A dense row-major matrix, minimal on purpose.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads an element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Writes an element.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let _prof = albireo_obs::profile::scope("tensor.gemm");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for (i, row) in out.data.chunks_mut(rhs.cols.max(1)).enumerate() {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for (j, o) in row.iter_mut().enumerate() {
                    *o += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }
}

/// Unrolls the input volume into the im2col matrix: one column per output
/// position, one row per (channel, ky, kx) kernel tap.
pub fn im2col(input: &Tensor3, kernel_y: usize, kernel_x: usize, spec: &ConvSpec) -> Matrix {
    let _prof = albireo_obs::profile::scope("tensor.im2col");
    let (az, ay, ax) = input.dims();
    let by = output_extent(ay, kernel_y, spec.padding, spec.stride);
    let bx = output_extent(ax, kernel_x, spec.padding, spec.stride);
    let taps = az * kernel_y * kernel_x;
    let positions = by * bx;
    let pad = spec.padding as isize;
    let mut m = Matrix::zeros(taps, positions);
    for z in 0..az {
        for ky in 0..kernel_y {
            for kx in 0..kernel_x {
                let row = (z * kernel_y + ky) * kernel_x + kx;
                for yb in 0..by {
                    for xb in 0..bx {
                        let y = yb as isize * spec.stride as isize - pad + ky as isize;
                        let x = xb as isize * spec.stride as isize - pad + kx as isize;
                        m.set(row, yb * bx + xb, input.get_padded(z, y, x));
                    }
                }
            }
        }
    }
    m
}

/// Flattens the kernel stack into the weight matrix: one row per kernel,
/// one column per (channel, ky, kx) tap — matching [`im2col`]'s row order.
pub fn kernels_to_matrix(kernels: &Tensor4) -> Matrix {
    let (wm, wz, wy, wx) = kernels.dims();
    let mut m = Matrix::zeros(wm, wz * wy * wx);
    for k in 0..wm {
        for z in 0..wz {
            for ky in 0..wy {
                for kx in 0..wx {
                    m.set(k, (z * wy + ky) * wx + kx, kernels[(k, z, ky, kx)]);
                }
            }
        }
    }
    m
}

/// Convolution via im2col + matmul. Produces exactly the same result as
/// [`crate::conv::conv2d`] (up to floating-point association order).
///
/// # Panics
///
/// Panics if the kernel depth does not match the input depth.
pub fn im2col_conv2d(input: &Tensor3, kernels: &Tensor4, spec: &ConvSpec) -> Tensor3 {
    let (az, ay, ax) = input.dims();
    let (wm, wz, wy, wx) = kernels.dims();
    assert_eq!(wz, az, "kernel depth must equal input depth");
    let by = output_extent(ay, wy, spec.padding, spec.stride);
    let bx = output_extent(ax, wx, spec.padding, spec.stride);
    let cols = im2col(input, wy, wx, spec);
    let weights = kernels_to_matrix(kernels);
    let product = weights.matmul(&cols);
    let mut out = Tensor3::zeros(wm, by, bx);
    for m in 0..wm {
        for yb in 0..by {
            for xb in 0..bx {
                out.set(m, yb, xb, product.get(m, yb * bx + xb));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 3.0);
        a.set(1, 1, 4.0);
        let mut b = Matrix::zeros(2, 1);
        b.set(0, 0, 5.0);
        b.set(1, 0, 6.0);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 17.0);
        assert_eq!(c.get(1, 0), 39.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_checks_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn im2col_shape() {
        let input = Tensor3::filled(2, 4, 4, 1.0);
        let m = im2col(&input, 3, 3, &ConvSpec::unit());
        assert_eq!(m.rows(), 2 * 9);
        assert_eq!(m.cols(), 2 * 2);
    }

    #[test]
    fn im2col_matches_direct_conv_basic() {
        let mut rng = StdRng::seed_from_u64(17);
        let input = Tensor3::random_uniform(3, 7, 7, -1.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(4, 3, 3, 3, 0.5, &mut rng);
        let spec = ConvSpec::unit();
        let a = conv2d(&input, &kernels, &spec);
        let b = im2col_conv2d(&input, &kernels, &spec);
        assert!(a.max_abs_diff(&b) < 1e-10);
    }

    #[test]
    fn im2col_matches_direct_conv_with_stride_and_padding() {
        let mut rng = StdRng::seed_from_u64(18);
        for (stride, padding) in [(1, 1), (2, 0), (2, 1), (3, 2)] {
            let input = Tensor3::random_uniform(2, 9, 9, -1.0, 1.0, &mut rng);
            let kernels = Tensor4::random_gaussian(3, 2, 3, 3, 0.5, &mut rng);
            let spec = ConvSpec::new(stride, padding);
            let a = conv2d(&input, &kernels, &spec);
            let b = im2col_conv2d(&input, &kernels, &spec);
            assert!(
                a.max_abs_diff(&b) < 1e-10,
                "stride {stride}, padding {padding}"
            );
        }
    }

    #[test]
    fn im2col_matches_for_asymmetric_kernels() {
        let mut rng = StdRng::seed_from_u64(19);
        let input = Tensor3::random_uniform(2, 8, 8, 0.0, 1.0, &mut rng);
        // 1×1 and 5×5 kernels.
        for k in [1usize, 5] {
            let kernels = Tensor4::random_gaussian(2, 2, k, k, 0.5, &mut rng);
            let spec = ConvSpec::unit();
            let a = conv2d(&input, &kernels, &spec);
            let b = im2col_conv2d(&input, &kernels, &spec);
            assert!(a.max_abs_diff(&b) < 1e-10, "kernel {k}");
        }
    }

    #[test]
    fn kernel_matrix_layout() {
        let mut kernels = Tensor4::zeros(2, 1, 2, 2);
        kernels.set(1, 0, 1, 0, 7.0);
        let m = kernels_to_matrix(&kernels);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.get(1, 2), 7.0);
    }
}
