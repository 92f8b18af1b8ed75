//! Reference (digital) CNN operators — Algorithm 1 of the paper and friends.
//!
//! These exact `f64` implementations are the golden model the analog
//! photonic simulation is validated against.

use crate::shape::output_extent;
use crate::{Tensor3, Tensor4};

/// Stride/padding specification for a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Stride S (identical in x and y, as in the paper).
    pub stride: usize,
    /// Zero padding P (identical in x and y).
    pub padding: usize,
}

impl ConvSpec {
    /// A unit-stride, zero-padding convolution.
    pub fn unit() -> ConvSpec {
        ConvSpec {
            stride: 1,
            padding: 0,
        }
    }

    /// Builds a spec with explicit stride and padding.
    pub fn new(stride: usize, padding: usize) -> ConvSpec {
        assert!(stride > 0, "stride must be positive");
        ConvSpec { stride, padding }
    }

    /// "Same" padding for an odd kernel extent at the given stride:
    /// `P = (W − 1)/2`.
    pub fn same_padding(kernel: usize, stride: usize) -> ConvSpec {
        assert!(kernel % 2 == 1, "same padding needs an odd kernel");
        ConvSpec {
            stride,
            padding: (kernel - 1) / 2,
        }
    }
}

impl Default for ConvSpec {
    fn default() -> ConvSpec {
        ConvSpec::unit()
    }
}

/// Dot product between a receptive field of the input volume anchored at
/// `(x0, y0)` (top-left, in padded coordinates) and kernel `m`.
fn receptive_field_dot(input: &Tensor3, kernels: &Tensor4, m: usize, x0: isize, y0: isize) -> f64 {
    let (_, wz, wy, wx) = kernels.dims();
    let mut acc = 0.0;
    for z in 0..wz {
        for ky in 0..wy {
            for kx in 0..wx {
                let a = input.get_padded(z, y0 + ky as isize, x0 + kx as isize);
                if a != 0.0 {
                    acc += a * kernels[(m, z, ky, kx)];
                }
            }
        }
    }
    acc
}

/// Standard convolution (paper Algorithm 1), producing an output volume of
/// shape `Wm × By × Bx` (Eq. 1). No activation is applied.
///
/// # Panics
///
/// Panics if the kernel depth does not match the input depth, or the kernel
/// is larger than the padded input.
///
/// ```
/// use albireo_tensor::{Tensor3, Tensor4, conv::{conv2d, ConvSpec}};
/// let input = Tensor3::filled(2, 4, 4, 1.0);
/// let kernels = Tensor4::filled(3, 2, 3, 3, 1.0);
/// let out = conv2d(&input, &kernels, &ConvSpec::unit());
/// assert_eq!(out.dims(), (3, 2, 2));
/// // Every receptive field sums 2·3·3 ones.
/// assert_eq!(out[(0, 0, 0)], 18.0);
/// ```
pub fn conv2d(input: &Tensor3, kernels: &Tensor4, spec: &ConvSpec) -> Tensor3 {
    let _prof = albireo_obs::profile::scope("tensor.conv2d");
    let (az, ay, ax) = input.dims();
    let (wm, wz, wy, wx) = kernels.dims();
    assert_eq!(wz, az, "kernel depth {wz} must equal input depth {az}");
    let bx = output_extent(ax, wx, spec.padding, spec.stride);
    let by = output_extent(ay, wy, spec.padding, spec.stride);
    let mut out = Tensor3::zeros(wm, by, bx);
    let pad = spec.padding as isize;
    for (m, plane) in out.as_mut_slice().chunks_mut((by * bx).max(1)).enumerate() {
        for (yb, ya) in (0..by).zip((0..).step_by(spec.stride)) {
            for (xb, xa) in (0..bx).zip((0..).step_by(spec.stride)) {
                plane[yb * bx + xb] =
                    receptive_field_dot(input, kernels, m, xa as isize - pad, ya as isize - pad);
            }
        }
    }
    out
}

/// Grouped convolution (AlexNet's conv2/4/5 use two groups): the input and
/// kernels are split along the channel axis into `groups` independent
/// convolutions whose outputs are stacked.
///
/// # Panics
///
/// Panics if the channel counts are not divisible by `groups` or the kernel
/// depth does not match `input_depth / groups`.
pub fn conv2d_grouped(
    input: &Tensor3,
    kernels: &Tensor4,
    spec: &ConvSpec,
    groups: usize,
) -> Tensor3 {
    assert!(groups > 0, "groups must be positive");
    let (az, ay, ax) = input.dims();
    let (wm, wz, wy, wx) = kernels.dims();
    assert_eq!(az % groups, 0, "input depth not divisible by groups");
    assert_eq!(wm % groups, 0, "kernel count not divisible by groups");
    assert_eq!(wz, az / groups, "kernel depth must be input depth / groups");
    let bx = output_extent(ax, wx, spec.padding, spec.stride);
    let by = output_extent(ay, wy, spec.padding, spec.stride);
    let mut out = Tensor3::zeros(wm, by, bx);
    let ch_per_group = az / groups;
    let kn_per_group = wm / groups;
    for g in 0..groups {
        // Slice the input channels of this group.
        let mut sub = Tensor3::zeros(ch_per_group, ay, ax);
        for z in 0..ch_per_group {
            for y in 0..ay {
                for x in 0..ax {
                    sub.set(z, y, x, input[(g * ch_per_group + z, y, x)]);
                }
            }
        }
        let mut subk = Tensor4::zeros(kn_per_group, wz, wy, wx);
        for m in 0..kn_per_group {
            for z in 0..wz {
                for y in 0..wy {
                    for x in 0..wx {
                        subk.set(m, z, y, x, kernels[(g * kn_per_group + m, z, y, x)]);
                    }
                }
            }
        }
        let part = conv2d(&sub, &subk, spec);
        let (_, py, px) = part.dims();
        for m in 0..kn_per_group {
            for y in 0..py {
                for x in 0..px {
                    out.set(g * kn_per_group + m, y, x, part[(m, y, x)]);
                }
            }
        }
    }
    out
}

/// Depthwise convolution (MobileNet): each input channel is convolved with
/// its own single-channel kernel; no cross-channel accumulation (paper
/// §III-C).
///
/// `kernels` has shape `[C]\[1\][Wy][Wx]` — one kernel per input channel.
///
/// # Panics
///
/// Panics if the kernel count differs from the channel count or kernels are
/// not single-channel.
pub fn depthwise_conv(input: &Tensor3, kernels: &Tensor4, spec: &ConvSpec) -> Tensor3 {
    let (az, ay, ax) = input.dims();
    let (wm, wz, wy, wx) = kernels.dims();
    assert_eq!(wm, az, "need one depthwise kernel per channel");
    assert_eq!(wz, 1, "depthwise kernels are single-channel");
    let bx = output_extent(ax, wx, spec.padding, spec.stride);
    let by = output_extent(ay, wy, spec.padding, spec.stride);
    let mut out = Tensor3::zeros(az, by, bx);
    let pad = spec.padding as isize;
    for (c, plane) in out.as_mut_slice().chunks_mut((by * bx).max(1)).enumerate() {
        for (yb, ya) in (0..by).zip((0..).step_by(spec.stride)) {
            for (xb, xa) in (0..bx).zip((0..).step_by(spec.stride)) {
                let mut acc = 0.0;
                for ky in 0..wy {
                    for kx in 0..wx {
                        let a = input.get_padded(
                            c,
                            ya as isize - pad + ky as isize,
                            xa as isize - pad + kx as isize,
                        );
                        acc += a * kernels[(c, 0, ky, kx)];
                    }
                }
                plane[yb * bx + xb] = acc;
            }
        }
    }
    out
}

/// Pointwise (1×1) convolution (MobileNet): mixes channels at every spatial
/// location.
///
/// `kernels` has shape `[M][C]\[1\][1]`.
///
/// # Panics
///
/// Panics if the kernel spatial extent is not 1×1 or depths mismatch.
pub fn pointwise_conv(input: &Tensor3, kernels: &Tensor4) -> Tensor3 {
    let (az, ay, ax) = input.dims();
    let (wm, wz, wy, wx) = kernels.dims();
    assert_eq!((wy, wx), (1, 1), "pointwise kernels are 1x1");
    assert_eq!(wz, az, "kernel depth must equal input depth");
    let mut out = Tensor3::zeros(wm, ay, ax);
    for (m, plane) in out.as_mut_slice().chunks_mut((ay * ax).max(1)).enumerate() {
        for y in 0..ay {
            for x in 0..ax {
                let mut acc = 0.0;
                for z in 0..az {
                    acc += input[(z, y, x)] * kernels[(m, z, 0, 0)];
                }
                plane[y * ax + x] = acc;
            }
        }
    }
    out
}

/// Fully-connected layer: `out[m] = Σ_i weights[m][i]·input_flat[i]`.
/// Implemented, as the paper describes, as a convolution whose receptive
/// field is the whole input volume.
///
/// # Panics
///
/// Panics if `weights[m].len()` differs from the flattened input length.
pub fn fully_connected(input_flat: &[f64], weights: &[Vec<f64>]) -> Vec<f64> {
    weights
        .iter()
        .map(|row| {
            assert_eq!(row.len(), input_flat.len(), "FC weight row length mismatch");
            row.iter().zip(input_flat.iter()).map(|(w, a)| w * a).sum()
        })
        .collect()
}

/// 2-D max pooling with a square window and stride.
///
/// # Panics
///
/// Panics if the window does not fit the input.
pub fn max_pool(input: &Tensor3, window: usize, stride: usize) -> Tensor3 {
    pool(
        input,
        window,
        stride,
        f64::NEG_INFINITY,
        |acc, v| acc.max(v),
        |acc, _| acc,
    )
}

/// 2-D average pooling with a square window and stride.
///
/// # Panics
///
/// Panics if the window does not fit the input.
pub fn avg_pool(input: &Tensor3, window: usize, stride: usize) -> Tensor3 {
    pool(
        input,
        window,
        stride,
        0.0,
        |acc, v| acc + v,
        |acc, n| acc / n as f64,
    )
}

fn pool(
    input: &Tensor3,
    window: usize,
    stride: usize,
    init: f64,
    fold: impl Fn(f64, f64) -> f64,
    finish: impl Fn(f64, usize) -> f64,
) -> Tensor3 {
    let (az, ay, ax) = input.dims();
    let by = output_extent(ay, window, 0, stride);
    let bx = output_extent(ax, window, 0, stride);
    let mut out = Tensor3::zeros(az, by, bx);
    for z in 0..az {
        for yb in 0..by {
            for xb in 0..bx {
                let mut acc = init;
                let mut n = 0;
                for wy in 0..window {
                    for wx in 0..window {
                        let y = yb * stride + wy;
                        let x = xb * stride + wx;
                        if y < ay && x < ax {
                            acc = fold(acc, input[(z, y, x)]);
                            n += 1;
                        }
                    }
                }
                out.set(z, yb, xb, finish(acc, n));
            }
        }
    }
    out
}

/// The rectified linear unit applied elementwise, returning a new tensor.
pub fn relu(input: &Tensor3) -> Tensor3 {
    let mut out = input.clone();
    out.relu_inplace();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut input = Tensor3::zeros(1, 3, 3);
        for y in 0..3 {
            for x in 0..3 {
                input.set(0, y, x, (y * 3 + x) as f64);
            }
        }
        // 1×1 kernel of weight 1.
        let kernels = Tensor4::filled(1, 1, 1, 1, 1.0);
        let out = conv2d(&input, &kernels, &ConvSpec::unit());
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // Input 1..16 in a 4×4, sum kernel of ones.
        let input = Tensor3::from_vec(1, 4, 4, (1..=16).map(f64::from).collect());
        let kernels = Tensor4::filled(1, 1, 3, 3, 1.0);
        let out = conv2d(&input, &kernels, &ConvSpec::unit());
        assert_eq!(out.dims(), (1, 2, 2));
        // Top-left receptive field: 1+2+3+5+6+7+9+10+11 = 54.
        assert_eq!(out[(0, 0, 0)], 54.0);
        assert_eq!(out[(0, 1, 1)], 54.0 + 9.0 + 4.0 * 9.0); // shift by (1,1): each element +5 → 54+45=99
    }

    #[test]
    fn padding_adds_zero_border() {
        let input = Tensor3::filled(1, 2, 2, 1.0);
        let kernels = Tensor4::filled(1, 1, 3, 3, 1.0);
        let out = conv2d(&input, &kernels, &ConvSpec::same_padding(3, 1));
        assert_eq!(out.dims(), (1, 2, 2));
        // Every output sees the four ones.
        assert!(out.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn stride_subsamples() {
        let input = Tensor3::filled(1, 5, 5, 1.0);
        let kernels = Tensor4::filled(1, 1, 3, 3, 1.0);
        let out = conv2d(&input, &kernels, &ConvSpec::new(2, 0));
        assert_eq!(out.dims(), (1, 2, 2));
        assert!(out.iter().all(|&v| v == 9.0));
    }

    #[test]
    fn multi_channel_accumulates_depth() {
        let input = Tensor3::filled(3, 3, 3, 2.0);
        let kernels = Tensor4::filled(1, 3, 3, 3, 0.5);
        let out = conv2d(&input, &kernels, &ConvSpec::unit());
        assert_eq!(out.dims(), (1, 1, 1));
        assert_eq!(out[(0, 0, 0)], 3.0 * 9.0 * 2.0 * 0.5);
    }

    #[test]
    fn grouped_conv_equals_regular_when_one_group() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = Tensor3::random_uniform(4, 6, 6, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 4, 3, 3, 0.5, &mut rng);
        let a = conv2d(&input, &kernels, &ConvSpec::unit());
        let b = conv2d_grouped(&input, &kernels, &ConvSpec::unit(), 1);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn grouped_conv_isolates_groups() {
        // Two groups; second group's input is zero ⇒ its outputs are zero.
        let mut input = Tensor3::filled(4, 3, 3, 1.0);
        for z in 2..4 {
            for y in 0..3 {
                for x in 0..3 {
                    input.set(z, y, x, 0.0);
                }
            }
        }
        let kernels = Tensor4::filled(2, 2, 3, 3, 1.0);
        let out = conv2d_grouped(&input, &kernels, &ConvSpec::unit(), 2);
        assert_eq!(out.dims(), (2, 1, 1));
        assert_eq!(out[(0, 0, 0)], 18.0);
        assert_eq!(out[(1, 0, 0)], 0.0);
    }

    #[test]
    fn depthwise_keeps_channels_separate() {
        let mut input = Tensor3::zeros(2, 3, 3);
        for y in 0..3 {
            for x in 0..3 {
                input.set(0, y, x, 1.0);
                input.set(1, y, x, 10.0);
            }
        }
        let kernels = Tensor4::filled(2, 1, 3, 3, 1.0);
        let out = depthwise_conv(&input, &kernels, &ConvSpec::unit());
        assert_eq!(out.dims(), (2, 1, 1));
        assert_eq!(out[(0, 0, 0)], 9.0);
        assert_eq!(out[(1, 0, 0)], 90.0);
    }

    #[test]
    fn pointwise_mixes_channels() {
        let mut input = Tensor3::zeros(3, 2, 2);
        for (z, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            for y in 0..2 {
                for x in 0..2 {
                    input.set(z, y, x, *v);
                }
            }
        }
        let mut kernels = Tensor4::zeros(1, 3, 1, 1);
        kernels.set(0, 0, 0, 0, 1.0);
        kernels.set(0, 1, 0, 0, 10.0);
        kernels.set(0, 2, 0, 0, 100.0);
        let out = pointwise_conv(&input, &kernels);
        assert_eq!(out.dims(), (1, 2, 2));
        assert!(out.iter().all(|&v| v == 321.0));
    }

    #[test]
    fn depthwise_separable_equals_full_conv_for_rank1_kernels() {
        // A depthwise pass with kernel d_c followed by pointwise p_{m,c}
        // equals a full conv with W[m][c] = p_{m,c}·d_c.
        let mut rng = StdRng::seed_from_u64(11);
        let input = Tensor3::random_uniform(3, 5, 5, 0.0, 1.0, &mut rng);
        let depthwise = Tensor4::random_gaussian(3, 1, 3, 3, 0.5, &mut rng);
        let pointwise = Tensor4::random_gaussian(2, 3, 1, 1, 0.5, &mut rng);
        let sep = pointwise_conv(
            &depthwise_conv(&input, &depthwise, &ConvSpec::unit()),
            &pointwise,
        );
        let mut full = Tensor4::zeros(2, 3, 3, 3);
        for m in 0..2 {
            for c in 0..3 {
                for y in 0..3 {
                    for x in 0..3 {
                        full.set(
                            m,
                            c,
                            y,
                            x,
                            pointwise[(m, c, 0, 0)] * depthwise[(c, 0, y, x)],
                        );
                    }
                }
            }
        }
        let direct = conv2d(&input, &full, &ConvSpec::unit());
        assert!(sep.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn fc_is_dot_product() {
        let input = [1.0, 2.0, 3.0];
        let weights = vec![vec![1.0, 0.0, 0.0], vec![0.5, 0.5, 0.5]];
        let out = fully_connected(&input, &weights);
        assert_eq!(out, vec![1.0, 3.0]);
    }

    #[test]
    fn fc_equals_whole_input_conv() {
        // The paper's framing: FC = conv with receptive field = whole volume.
        let mut rng = StdRng::seed_from_u64(5);
        let input = Tensor3::random_uniform(2, 3, 3, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(4, 2, 3, 3, 0.5, &mut rng);
        let conv_out = conv2d(&input, &kernels, &ConvSpec::unit());
        assert_eq!(conv_out.dims(), (4, 1, 1));
        let weights: Vec<Vec<f64>> = (0..4).map(|m| kernels.kernel(m).flatten()).collect();
        let fc_out = fully_connected(&input.flatten(), &weights);
        for m in 0..4 {
            assert!((conv_out[(m, 0, 0)] - fc_out[m]).abs() < 1e-12);
        }
    }

    #[test]
    fn max_pool_picks_maximum() {
        let input = Tensor3::from_vec(1, 2, 2, vec![1.0, 5.0, 3.0, 2.0]);
        let out = max_pool(&input, 2, 2);
        assert_eq!(out.dims(), (1, 1, 1));
        assert_eq!(out[(0, 0, 0)], 5.0);
    }

    #[test]
    fn avg_pool_averages() {
        let input = Tensor3::from_vec(1, 2, 2, vec![1.0, 5.0, 3.0, 3.0]);
        let out = avg_pool(&input, 2, 2);
        assert_eq!(out[(0, 0, 0)], 3.0);
    }

    #[test]
    fn relu_non_negative() {
        let input = Tensor3::from_vec(1, 1, 3, vec![-2.0, 0.0, 2.0]);
        let out = relu(&input);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "kernel depth")]
    fn depth_mismatch_panics() {
        let input = Tensor3::zeros(2, 4, 4);
        let kernels = Tensor4::zeros(1, 3, 3, 3);
        let _ = conv2d(&input, &kernels, &ConvSpec::unit());
    }

    #[test]
    fn conv_is_linear_in_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor3::random_uniform(2, 4, 4, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 3, 3, 0.5, &mut rng);
        let mut a2 = a.clone();
        a2.map_inplace(|v| 2.0 * v);
        let out1 = conv2d(&a, &kernels, &ConvSpec::unit());
        let out2 = conv2d(&a2, &kernels, &ConvSpec::unit());
        let mut doubled = out1.clone();
        doubled.map_inplace(|v| 2.0 * v);
        assert!(out2.max_abs_diff(&doubled) < 1e-9);
    }
}
