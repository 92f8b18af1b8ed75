//! Precision analysis: separable output levels under noise and crosstalk
//! (paper §II-C, Figures 3 and 4c).
//!
//! "Bits of precision" for analog photonic computation is the `log2` of the
//! number of separable optical power amplitudes at the output.
//!
//! # Noise-limited precision (Fig. 3)
//!
//! The receiver noise is signal-dependent: thermal noise is constant, shot
//! noise grows with `√I`, and RIN grows with `I`. Levels can therefore be
//! packed more densely at low amplitudes; the number of separable levels for
//! full-scale current `I_fs` is
//!
//! ```text
//! levels = 1 + (1/z) ∫₀^{I_fs} dI / σ(I)
//! ```
//!
//! where `z` is the separation (in standard deviations) required between
//! adjacent level means. The default `z = 4` (±2σ per decision boundary)
//! reproduces the paper's anchor of **10 bits at 2 mW laser power with
//! 20 wavelengths**, and simultaneously reproduces the crosstalk anchor
//! below, so one calibration constant serves both analyses.
//!
//! # Crosstalk-limited precision (Fig. 4c)
//!
//! For `N` wavelengths uniformly spaced inside one FSR, each accumulating
//! MRR picks up a fraction `T_drop(Δφ_j)` of every foreign channel. With
//! independent uniform data on the foreign channels the interference has
//! standard deviation `σ_xt = sqrt(Σ_j T_j²/12)` of full scale, giving
//! `levels = 1 + 1/(z·σ_xt)`. With the paper's `k² = 0.03` ring this yields
//! **6 bits at 20 wavelengths** (7 bits with the negative rail), matching
//! §II-C2.

use crate::mrr::Microring;
use crate::noise::NoiseParams;
use crate::{check_positive, Result};

/// Number of trapezoid panels for the level integral.
const INTEGRATION_STEPS: usize = 4096;

/// The precision model combining receiver noise and MRR crosstalk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionModel {
    noise: NoiseParams,
    /// Photodiode responsivity, A/W.
    responsivity: f64,
    /// Required separation between adjacent level means, in σ.
    separation_sigmas: f64,
}

impl PrecisionModel {
    /// Builds the model with the paper's noise parameters, the Table II
    /// responsivity (1.1 A/W) and the calibrated separation `z = 4`.
    pub fn paper() -> PrecisionModel {
        PrecisionModel {
            noise: NoiseParams::paper(),
            responsivity: 1.1,
            separation_sigmas: 4.0,
        }
    }

    /// Builds a model with explicit components.
    ///
    /// # Errors
    ///
    /// Returns an error if `responsivity` or `separation_sigmas` is not
    /// strictly positive.
    pub fn new(
        noise: NoiseParams,
        responsivity: f64,
        separation_sigmas: f64,
    ) -> Result<PrecisionModel> {
        check_positive("responsivity", responsivity)?;
        check_positive("separation_sigmas", separation_sigmas)?;
        Ok(PrecisionModel {
            noise,
            responsivity,
            separation_sigmas,
        })
    }

    /// The noise parameters in use.
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// Number of noise-limited separable levels for `n_wavelengths`
    /// channels each delivering `per_channel_power_w` to the photodiode.
    ///
    /// # Panics
    ///
    /// Panics if `n_wavelengths` is zero or the power is negative.
    pub fn noise_limited_levels(&self, n_wavelengths: usize, per_channel_power_w: f64) -> f64 {
        assert!(n_wavelengths > 0, "need at least one wavelength");
        assert!(per_channel_power_w >= 0.0, "power must be non-negative");
        let i_fs = self.responsivity * n_wavelengths as f64 * per_channel_power_w;
        if i_fs == 0.0 {
            return 1.0;
        }
        // Trapezoid rule over f(I) = 1/σ(I); σ(0) = σ_thermal > 0 so the
        // integrand is bounded.
        let h = i_fs / INTEGRATION_STEPS as f64;
        let f = |i: f64| 1.0 / self.noise.total_sigma(i, n_wavelengths);
        let mut sum = 0.5 * (f(0.0) + f(i_fs));
        for k in 1..INTEGRATION_STEPS {
            sum += f(k as f64 * h);
        }
        1.0 + sum * h / self.separation_sigmas
    }

    /// Noise-limited precision in bits (`log2` of the level count).
    pub fn noise_limited_bits(&self, n_wavelengths: usize, per_channel_power_w: f64) -> f64 {
        self.noise_limited_levels(n_wavelengths, per_channel_power_w)
            .log2()
    }

    /// Number of crosstalk-limited separable levels for an MRR accumulator
    /// with `n_wavelengths` channels in one FSR.
    pub fn crosstalk_limited_levels(&self, ring: &Microring, n_wavelengths: usize) -> f64 {
        let sigma = ring.rms_crosstalk(n_wavelengths);
        if sigma == 0.0 {
            return f64::INFINITY;
        }
        1.0 + 1.0 / (self.separation_sigmas * sigma)
    }

    /// Crosstalk-limited precision in bits.
    pub fn crosstalk_limited_bits(&self, ring: &Microring, n_wavelengths: usize) -> f64 {
        self.crosstalk_limited_levels(ring, n_wavelengths).log2()
    }

    /// Crosstalk-limited levels when the interfering data has the RMS of
    /// trained (bell-shaped) kernel weights rather than uniform data —
    /// the paper's §II-C2 observation that an MRR accumulator "could
    /// possibly support more optical power levels" for real CNN weights.
    ///
    /// `weight_rms` is the RMS of the normalized weights (uniform `[0,1]`
    /// data has RMS deviation `sqrt(1/12) ≈ 0.289` around its mean; a
    /// Gaussian weight distribution with σ = 0.15 of full scale has
    /// RMS 0.15).
    pub fn crosstalk_limited_levels_with_weight_rms(
        &self,
        ring: &Microring,
        n_wavelengths: usize,
        weight_rms: f64,
    ) -> f64 {
        let sigma = ring.rms_crosstalk_with_variance(n_wavelengths, weight_rms * weight_rms);
        if sigma == 0.0 {
            return f64::INFINITY;
        }
        1.0 + 1.0 / (self.separation_sigmas * sigma)
    }

    /// Crosstalk-limited levels when every accumulator ring has drifted
    /// `drift_m` meters off its grid slot (e.g. thermally, via
    /// [`crate::thermal::ThermalModel::drift`]).
    pub fn crosstalk_limited_levels_with_drift(
        &self,
        ring: &Microring,
        n_wavelengths: usize,
        drift_m: f64,
    ) -> f64 {
        let sigma = ring.rms_crosstalk_with_drift(n_wavelengths, drift_m);
        if sigma == 0.0 {
            return f64::INFINITY;
        }
        1.0 + 1.0 / (self.separation_sigmas * sigma)
    }

    /// Combined levels when both noise and crosstalk act: the effective
    /// relative uncertainties add in quadrature, so
    /// `1/(L−1)² = 1/(Ln−1)² + 1/(Lx−1)²`.
    pub fn combined_levels(
        &self,
        ring: &Microring,
        n_wavelengths: usize,
        per_channel_power_w: f64,
    ) -> f64 {
        let ln = self.noise_limited_levels(n_wavelengths, per_channel_power_w) - 1.0;
        let lx = self.crosstalk_limited_levels(ring, n_wavelengths) - 1.0;
        if !lx.is_finite() {
            return ln + 1.0;
        }
        if ln <= 0.0 || lx <= 0.0 {
            return 1.0;
        }
        1.0 + 1.0 / (1.0 / (ln * ln) + 1.0 / (lx * lx)).sqrt()
    }

    /// Applies the negative accumulation rail (paper §II-C2): doubling the
    /// representable values adds about one bit without adding wavelengths.
    pub fn with_negative_rail(levels: f64) -> f64 {
        2.0 * levels - 1.0
    }

    /// Whole bits of precision *fully supported* (no decision-boundary
    /// overlap): `floor(log2(levels))`, as in the paper's 8.81-bit example
    /// supporting 8 bits.
    pub fn supported_bits(levels: f64) -> u32 {
        if levels < 2.0 {
            0
        } else {
            levels.log2().floor() as u32
        }
    }
}

impl Default for PrecisionModel {
    fn default() -> PrecisionModel {
        PrecisionModel::paper()
    }
}

/// One row of the Fig. 3 sweep: noise-limited bits vs. wavelength count for
/// a per-channel laser power.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisePrecisionSweep {
    /// Per-channel laser power, W.
    pub laser_power_w: f64,
    /// `(wavelength count, bits)` series.
    pub series: Vec<(usize, f64)>,
}

/// Regenerates the Fig. 3 data: precision vs. number of wavelengths for each
/// laser power, noise only (crosstalk excluded).
pub fn fig3_noise_sweep(
    model: &PrecisionModel,
    laser_powers_w: &[f64],
    max_wavelengths: usize,
) -> Vec<NoisePrecisionSweep> {
    laser_powers_w
        .iter()
        .map(|&p| NoisePrecisionSweep {
            laser_power_w: p,
            series: (1..=max_wavelengths)
                .map(|n| (n, model.noise_limited_bits(n, p)))
                .collect(),
        })
        .collect()
}

/// One row of the Fig. 4c sweep: crosstalk-limited bits vs. wavelength count
/// for a ring coupling coefficient.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstalkPrecisionSweep {
    /// Power cross-coupling coefficient k².
    pub k2: f64,
    /// `(wavelength count, bits)` series.
    pub series: Vec<(usize, f64)>,
}

/// Regenerates the Fig. 4c data: precision vs. number of wavelengths for an
/// MRR accumulator at each `k²`.
pub fn fig4c_crosstalk_sweep(
    model: &PrecisionModel,
    params: &crate::OpticalParams,
    k2_values: &[f64],
    max_wavelengths: usize,
) -> Vec<CrosstalkPrecisionSweep> {
    k2_values
        .iter()
        .map(|&k2| {
            let ring = Microring::with_k2(params, k2);
            CrosstalkPrecisionSweep {
                k2,
                series: (2..=max_wavelengths)
                    .map(|n| (n, model.crosstalk_limited_bits(&ring, n)))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpticalParams;

    #[test]
    fn paper_anchor_10_bits_at_2mw_20_wavelengths() {
        // §II-C1: "10 bits of precision is achievable with a 2 mW optical
        // laser source with as few as 20 wavelengths".
        let m = PrecisionModel::paper();
        let bits = m.noise_limited_bits(20, 2e-3);
        assert!((9.0..11.0).contains(&bits), "bits = {bits}");
    }

    #[test]
    fn paper_anchor_6_bits_crosstalk_at_k2_003_20_wavelengths() {
        // §II-C2: "For around 20 wavelengths, k² = 0.03 can support 6 bits
        // of precision, but this is only for positive accumulation."
        let m = PrecisionModel::paper();
        let ring = Microring::from_params(&OpticalParams::paper());
        let bits = m.crosstalk_limited_bits(&ring, 20);
        assert!((5.5..6.6).contains(&bits), "bits = {bits}");
    }

    #[test]
    fn negative_rail_adds_about_one_bit() {
        let m = PrecisionModel::paper();
        let ring = Microring::from_params(&OpticalParams::paper());
        let levels = m.crosstalk_limited_levels(&ring, 20);
        let with_neg = PrecisionModel::with_negative_rail(levels);
        let gain = with_neg.log2() - levels.log2();
        assert!((0.8..=1.0).contains(&gain), "gain = {gain}");
        // §II-C2: "7 bits is the worst case precision for k² = 0.03 with
        // 20 wavelengths".
        assert!((6.5..7.6).contains(&with_neg.log2()), "{}", with_neg.log2());
    }

    #[test]
    fn precision_increases_with_laser_power_with_diminishing_returns() {
        let m = PrecisionModel::paper();
        let b05 = m.noise_limited_bits(20, 0.5e-3);
        let b1 = m.noise_limited_bits(20, 1e-3);
        let b2 = m.noise_limited_bits(20, 2e-3);
        let b4 = m.noise_limited_bits(20, 4e-3);
        assert!(b05 < b1 && b1 < b2 && b2 < b4);
        // Diminishing returns: each doubling gains less.
        assert!((b2 - b1) < (b1 - b05) + 1e-9);
        assert!((b4 - b2) < (b2 - b1) + 1e-9);
    }

    #[test]
    fn crosstalk_precision_decreases_with_wavelengths() {
        let m = PrecisionModel::paper();
        let ring = Microring::from_params(&OpticalParams::paper());
        let b8 = m.crosstalk_limited_bits(&ring, 8);
        let b20 = m.crosstalk_limited_bits(&ring, 20);
        let b40 = m.crosstalk_limited_bits(&ring, 40);
        assert!(b8 > b20 && b20 > b40);
    }

    #[test]
    fn lower_k2_supports_more_bits() {
        let m = PrecisionModel::paper();
        let p = OpticalParams::paper();
        let r02 = Microring::with_k2(&p, 0.02);
        let r05 = Microring::with_k2(&p, 0.05);
        assert!(m.crosstalk_limited_bits(&r02, 20) > m.crosstalk_limited_bits(&r05, 20));
    }

    #[test]
    fn k2_002_and_003_support_8_bits_at_few_wavelengths() {
        // §II-C2: "both k² = 0.02 and k² = 0.03 can support 8 bits of
        // precision for a small number of wavelengths".
        let m = PrecisionModel::paper();
        let p = OpticalParams::paper();
        for k2 in [0.02, 0.03] {
            let ring = Microring::with_k2(&p, k2);
            let bits = m.crosstalk_limited_bits(&ring, 6);
            assert!(bits >= 8.0, "k²={k2}: bits = {bits}");
        }
    }

    #[test]
    fn combined_is_below_both_limits() {
        let m = PrecisionModel::paper();
        let ring = Microring::from_params(&OpticalParams::paper());
        let combined = m.combined_levels(&ring, 20, 2e-3);
        assert!(combined <= m.noise_limited_levels(20, 2e-3));
        assert!(combined <= m.crosstalk_limited_levels(&ring, 20));
        assert!(combined > 1.0);
    }

    #[test]
    fn supported_bits_floor_semantics() {
        // log2(450) ≈ 8.81 ⇒ the paper says 8 bits fully supported.
        assert_eq!(PrecisionModel::supported_bits(450.0), 8);
        assert_eq!(PrecisionModel::supported_bits(1.0), 0);
        assert_eq!(PrecisionModel::supported_bits(2.0), 1);
    }

    #[test]
    fn zero_power_gives_single_level() {
        let m = PrecisionModel::paper();
        assert_eq!(m.noise_limited_levels(20, 0.0), 1.0);
    }

    #[test]
    fn fig3_sweep_shape() {
        let m = PrecisionModel::paper();
        let sweeps = fig3_noise_sweep(&m, &[0.5e-3, 2e-3], 32);
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].series.len(), 32);
        // Higher power series dominates everywhere.
        for (lo, hi) in sweeps[0].series.iter().zip(sweeps[1].series.iter()) {
            assert!(hi.1 >= lo.1);
        }
    }

    #[test]
    fn fig4c_sweep_shape() {
        let m = PrecisionModel::paper();
        let p = OpticalParams::paper();
        let sweeps = fig4c_crosstalk_sweep(&m, &p, &[0.02, 0.03, 0.05], 40);
        assert_eq!(sweeps.len(), 3);
        for s in &sweeps {
            assert_eq!(s.series.len(), 39);
        }
        // Lower k² dominates at every wavelength count.
        for (a, b) in sweeps[0].series.iter().zip(sweeps[1].series.iter()) {
            assert!(a.1 >= b.1);
        }
    }

    #[test]
    fn invalid_model_parameters_rejected() {
        assert!(PrecisionModel::new(NoiseParams::paper(), 0.0, 4.0).is_err());
        assert!(PrecisionModel::new(NoiseParams::paper(), 1.1, 0.0).is_err());
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::thermal::ThermalModel;
    use crate::OpticalParams;

    fn ring() -> Microring {
        Microring::from_params(&OpticalParams::paper())
    }

    #[test]
    fn bell_shaped_weights_gain_levels() {
        // §II-C2: trained weights are bell-shaped ⇒ lower interference
        // variance ⇒ more supported levels than the uniform-data analysis.
        let m = PrecisionModel::paper();
        let r = ring();
        let uniform = m.crosstalk_limited_levels(&r, 20);
        let gaussian = m.crosstalk_limited_levels_with_weight_rms(&r, 20, 0.15);
        assert!(gaussian > uniform, "{gaussian} vs {uniform}");
        // ~1 bit of headroom for σ = 0.15 weights.
        let gain_bits = gaussian.log2() - uniform.log2();
        assert!((0.5..1.5).contains(&gain_bits), "gain = {gain_bits}");
    }

    #[test]
    fn weight_rms_equal_to_uniform_matches_baseline() {
        let m = PrecisionModel::paper();
        let r = ring();
        let uniform = m.crosstalk_limited_levels(&r, 20);
        let matched = m.crosstalk_limited_levels_with_weight_rms(&r, 20, (1.0f64 / 12.0).sqrt());
        assert!((uniform - matched).abs() / uniform < 1e-9);
    }

    #[test]
    fn zero_drift_matches_baseline() {
        let m = PrecisionModel::paper();
        let r = ring();
        let base = m.crosstalk_limited_levels(&r, 20);
        let drifted = m.crosstalk_limited_levels_with_drift(&r, 20, 0.0);
        assert!((base - drifted).abs() / base < 0.02, "{base} vs {drifted}");
    }

    #[test]
    fn thermal_drift_costs_precision() {
        let m = PrecisionModel::paper();
        let r = ring();
        let t = ThermalModel::silicon();
        let base = m.crosstalk_limited_levels_with_drift(&r, 20, 0.0).log2();
        let half_k = m
            .crosstalk_limited_levels_with_drift(&r, 20, t.drift(0.5))
            .log2();
        let two_k = m
            .crosstalk_limited_levels_with_drift(&r, 20, t.drift(2.0))
            .log2();
        assert!(half_k < base);
        assert!(two_k < half_k);
        // A 2 K uncorrected excursion costs multiple bits — the argument
        // for active ring tuning.
        assert!(base - two_k > 1.0, "loss = {}", base - two_k);
    }
}
