//! Functional analog simulation of the Albireo photonic datapath.
//!
//! Where [`crate::sched`] and [`crate::energy`] model *performance*, this
//! module models *function*: it pushes real tensors through the physical
//! signal chain —
//!
//! 1. inputs normalized to optical powers and modulated onto the PLCU's
//!    wavelengths,
//! 2. star-coupler multicast of each kernel row's `Nd + Wx − 1` channels,
//! 3. MZM multiplication (every wavelength on a waveguide scaled by the
//!    same kernel weight, Eq. 2),
//! 4. MRR switching onto the positive/negative rails with inter-channel
//!    crosstalk leakage (the dominant precision limit, §II-C2) and
//!    off-state leakage,
//! 5. balanced photodetection (Eq. 4) with RIN/shot/thermal noise
//!    sampling (Eq. 5/6),
//! 6. TIA + ADC quantization and digital depth-first accumulation over
//!    `⌈Wz/Nu⌉` cycles (Algorithm 2).
//!
//! The result is validated against the digital golden model in
//! `albireo-tensor` within the precision bound predicted by
//! `albireo-photonics::precision`.

use crate::config::ChipConfig;
use albireo_parallel::{split_seed, stream_id, Parallelism};
use albireo_photonics::link::LinkBudget;
use albireo_photonics::mrr::Microring;
use albireo_photonics::noise::{CompiledNoise, NoiseParams};
use albireo_photonics::photodiode::BalancedPd;
use albireo_photonics::precision::PrecisionModel;
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{output_extent, Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the analog simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogSimConfig {
    /// Per-wavelength laser power, W (paper Fig. 3 anchor: 2 mW).
    pub laser_power_w: f64,
    /// ADC resolution, bits (paper: 8-bit converters).
    pub adc_bits: u32,
    /// Sample receiver noise (RIN/shot/thermal).
    pub enable_noise: bool,
    /// Model MRR inter-channel and off-state crosstalk.
    pub enable_crosstalk: bool,
    /// Wavelength-to-channel allocation strategy (see
    /// [`ChannelAllocation`]).
    pub allocation: ChannelAllocation,
    /// Digitally pre-compensate the deterministic crosstalk leakage: the
    /// controller knows what it transmitted, so it can subtract the
    /// predicted inter-channel interference from each detected partial —
    /// an architectural extension beyond the paper (its §II-C treats
    /// crosstalk as an uncorrected precision limit).
    pub crosstalk_compensation: bool,
    /// RNG seed for noise sampling (the simulation is deterministic per
    /// seed).
    pub seed: u64,
}

impl Default for AnalogSimConfig {
    fn default() -> AnalogSimConfig {
        AnalogSimConfig {
            laser_power_w: 2e-3,
            adc_bits: 8,
            enable_noise: true,
            enable_crosstalk: true,
            allocation: ChannelAllocation::Contiguous,
            crosstalk_compensation: false,
            seed: 0xA1B1_2E00,
        }
    }
}

/// How the PLCU's wavelengths are assigned to multicast columns.
///
/// The paper's Fig. 5 assigns each kernel row a *contiguous* block of
/// `Nd + Wx − 1` channels, so a ring's nearest spectral neighbours are the
/// row's own data channels. Interleaving the rows across the FSR (row `r`
/// takes slots `r, r + Wy, r + 2·Wy, …`) multiplies each ring's
/// nearest-neighbour detuning by `Wy`, cutting intra-row crosstalk — an
/// allocation optimization beyond the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelAllocation {
    /// Each row's channels occupy adjacent wavelength slots (the paper's
    /// layout).
    #[default]
    Contiguous,
    /// Rows are interleaved: adjacent slots belong to different rows, so
    /// same-row channels sit `Wy` slots apart.
    RowInterleaved,
}

/// A hardware fault injected into the analog datapath, for reliability
/// studies. Faults apply uniformly to every PLCU of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// A switching ring stuck off: the crossing at (kernel row, kernel
    /// column, output column) never drops its signal onto its rail.
    DeadRing {
        /// Kernel row of the crossing.
        row: usize,
        /// Kernel column of the crossing.
        col: usize,
        /// Output column of the crossing.
        output: usize,
    },
    /// A weight MZM stuck at a fixed (signed, normalized) transmission.
    StuckMzm {
        /// Kernel row of the modulator.
        row: usize,
        /// Kernel column of the modulator.
        col: usize,
        /// The stuck weight in `[-1, 1]`.
        weight: f64,
    },
    /// A dead laser/modulator: the multicast column carries no power.
    DeadChannel {
        /// Multicast column index (`0..Nd + Wx − 1`).
        column: usize,
    },
}

/// A set of injected faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSet {
    faults: Vec<Fault>,
}

impl FaultSet {
    /// An empty (healthy) fault set.
    pub fn new() -> FaultSet {
        FaultSet::default()
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) -> &mut FaultSet {
        self.faults.push(fault);
        self
    }

    /// Whether no faults are present.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The injected faults, in insertion order.
    pub fn as_slice(&self) -> &[Fault] {
        &self.faults
    }

    /// Checks every fault against the chip's PLCU geometry: a ring or MZM
    /// at kernel row `< kernel_y` and column `< kernel_x`, a ring output
    /// `< Nd`, a multicast column `< Nd + kernel_x − 1`, and a stuck weight
    /// that is finite and within `[-1, 1]`. Returns the first fault
    /// outside that geometry: on a native-size kernel it would match no
    /// crossing and be silently inert.
    pub fn check(&self, chip: &ChipConfig) -> Result<(), FaultError> {
        let (rows, cols, nd) = (chip.kernel_y, chip.kernel_x, chip.plcu.nd);
        let columns = nd + cols - 1;
        for &fault in &self.faults {
            let expected = match fault {
                Fault::DeadRing { row, col, output }
                    if row >= rows || col >= cols || output >= nd =>
                {
                    format!("row < {rows}, column < {cols}, output < {nd}")
                }
                Fault::StuckMzm { row, col, weight }
                    if row >= rows || col >= cols || !(-1.0..=1.0).contains(&weight) =>
                {
                    format!("row < {rows}, column < {cols}, weight in [-1, 1]")
                }
                Fault::DeadChannel { column } if column >= columns => {
                    format!("column < {columns}")
                }
                _ => continue,
            };
            return Err(FaultError { fault, expected });
        }
        Ok(())
    }
}

/// A fault outside the chip's PLCU geometry (see [`FaultSet::check`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultError {
    /// The offending fault.
    pub fault: Fault,
    /// The range its fields must lie in.
    pub expected: String,
}

impl AnalogSimConfig {
    /// An ideal configuration (no noise, no crosstalk, fine ADC) — useful
    /// for isolating quantization effects in tests.
    pub fn ideal() -> AnalogSimConfig {
        AnalogSimConfig {
            enable_noise: false,
            enable_crosstalk: false,
            adc_bits: 16,
            ..AnalogSimConfig::default()
        }
    }
}

/// The analog PLCG/chip simulation engine.
#[derive(Debug, Clone)]
pub struct AnalogEngine {
    chip: ChipConfig,
    cfg: AnalogSimConfig,
    ring: Microring,
    pd: BalancedPd,
    /// Receiver noise at the PLCU's wavelength count.
    noise: CompiledNoise,
    /// Largest ADC code, `2^(bits − 1) − 1`.
    max_code: i64,
    /// Photocurrent of one full-scale term, `R·P·gain`, A; the ADC full
    /// scale is this times the terms per detection.
    i_term: f64,
    /// Per-wavelength optical power arriving at the photodiodes, W.
    p_channel: f64,
    /// Drop-port gain of an on-resonance switching ring (calibrated out of
    /// the output scale).
    main_gain: f64,
    /// Drop-port leakage of an off-state (detuned) ring.
    off_leakage: f64,
    /// Injected hardware faults.
    faults: FaultSet,
    /// Parallel execution policy for the per-output-row work items.
    par: Parallelism,
}

/// Stream-id pass tag for [`AnalogEngine::dot`] noise draws, keeping the
/// FC path's child seeds disjoint from every convolution pass.
const DOT_PASS: u64 = 0xD07;

impl AnalogEngine {
    /// Builds an engine for a chip configuration.
    pub fn new(chip: &ChipConfig, cfg: AnalogSimConfig) -> AnalogEngine {
        let params = chip.optical_params();
        let ring = Microring::from_params(&params);
        let link = LinkBudget::albireo_chip(&params, chip.ng, chip.kernel_x, chip.plcu.nd, 10);
        let p_channel = link.output_power(cfg.laser_power_w);
        let pd = BalancedPd::from_params(&params);
        let main_gain = ring.drop_peak();
        AnalogEngine {
            chip: *chip,
            cfg,
            ring,
            pd,
            noise: NoiseParams::paper().compile(chip.wavelengths_per_plcu()),
            max_code: (1i64 << (cfg.adc_bits - 1)) - 1,
            i_term: pd.positive().responsivity() * p_channel * main_gain,
            p_channel,
            main_gain,
            off_leakage: ring.drop_transmission(ring.fsr() / 2.0),
            faults: FaultSet::new(),
            par: Parallelism::default(),
        }
    }

    /// Sets the parallel execution policy (builder style). Results are
    /// bit-identical at any thread count: noise streams are keyed to work
    /// items, not threads.
    pub fn with_parallelism(mut self, par: Parallelism) -> AnalogEngine {
        self.par = par;
        self
    }

    /// The per-work-item noise generator for pass `pass`, kernel `m`,
    /// output row `yb`. Derived purely from the configured seed and the
    /// item's logical coordinates, so the stream an item draws from is
    /// independent of thread count and execution order.
    fn item_rng(&self, pass: u64, m: usize, yb: usize) -> StdRng {
        StdRng::seed_from_u64(split_seed(
            self.cfg.seed,
            stream_id(pass, m as u64, yb as u64),
        ))
    }

    /// Injects a set of hardware faults (replacing any previous set).
    pub fn inject_faults(&mut self, faults: FaultSet) {
        self.faults = faults;
    }

    /// Removes all injected faults.
    pub fn clear_faults(&mut self) {
        self.faults = FaultSet::new();
    }

    /// The currently injected faults.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The per-wavelength power reaching the photodiodes, W.
    pub fn channel_power_w(&self) -> f64 {
        self.p_channel
    }

    /// The precision (bits) the photonic subsystem is predicted to support
    /// for this configuration, from the combined noise + crosstalk model.
    pub fn expected_bits(&self) -> f64 {
        let model = PrecisionModel::paper();
        let n = self.chip.wavelengths_per_plcu();
        let levels = model.combined_levels(&self.ring, n, self.p_channel);
        PrecisionModel::with_negative_rail(levels).log2()
    }

    /// Crosstalk (drop transmission) from a channel `offset` wavelength
    /// slots away, with all `wavelengths_per_plcu` channels uniformly
    /// spaced in one FSR.
    fn crosstalk(&self, offset: isize, enabled: bool) -> f64 {
        if offset == 0 {
            return self.main_gain;
        }
        if !enabled {
            return 0.0;
        }
        let n = self.chip.wavelengths_per_plcu() as f64;
        let spacing = self.ring.fsr() / n;
        let slots = match self.cfg.allocation {
            ChannelAllocation::Contiguous => offset as f64,
            // Same-row channels are Wy slots apart under interleaving.
            ChannelAllocation::RowInterleaved => (offset * self.chip.kernel_y as isize) as f64,
        };
        self.ring
            .drop_at_phase(self.ring.phase_detuning(slots * spacing))
    }

    /// Converts rail powers to a balanced, noise-sampled, ADC-quantized
    /// *normalized* dot-product value. Noise is drawn from the caller's
    /// per-work-item generator.
    fn detect(&self, p_pos: f64, p_neg: f64, full_scale_terms: usize, rng: &mut StdRng) -> f64 {
        let r = self.pd.positive().responsivity();
        let mut current = self.pd.output_current_total(p_pos, p_neg);
        if self.cfg.enable_noise {
            let sigma = self.noise.total_sigma(r * (p_pos + p_neg));
            current += sigma * sample_standard_normal(rng);
        }
        // ADC over ±full scale.
        let i_fs = self.i_term * full_scale_terms as f64;
        let max_code = self.max_code;
        let code = ((current / i_fs) * max_code as f64).round() as i64;
        let code = code.clamp(-max_code, max_code);
        // Back to the normalized dot-product domain.
        code as f64 / max_code as f64 * full_scale_terms as f64
    }

    /// Computes a signed dot product `a · w` through the analog datapath
    /// using the FC mapping (one PD column, `Nm·Nu` terms per cycle).
    ///
    /// # Panics
    ///
    /// Panics if any input is negative (optical powers cannot be) or the
    /// lengths differ.
    pub fn dot(&mut self, a: &[f64], w: &[f64]) -> f64 {
        assert_eq!(a.len(), w.len(), "dot operands must have equal length");
        assert!(
            a.iter().all(|&v| v >= 0.0),
            "optical inputs must be non-negative"
        );
        let a_max = a.iter().fold(0.0_f64, |m, v| m.max(*v));
        let w_max = w.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        if a_max == 0.0 || w_max == 0.0 {
            return 0.0;
        }
        let chunk = self.chip.plcu.nm * self.chip.nu;
        let mut acc = 0.0;
        for (ci, (ac, wc)) in a.chunks(chunk).zip(w.chunks(chunk)).enumerate() {
            // Each Nm·Nu chunk is one detection event with its own derived
            // noise stream.
            let mut rng = self.item_rng(DOT_PASS, ci, 0);
            // Each term gets its own wavelength/MZM: model as a 1-column
            // PLCU row per term (no receptive-field sharing in FC, §III-C).
            let mut p_pos = 0.0;
            let mut p_neg = 0.0;
            for (&ai, &wi) in ac.iter().zip(wc.iter()) {
                let a_norm = ai / a_max;
                let w_norm = wi / w_max;
                let p = a_norm * w_norm.abs() * self.main_gain * self.p_channel;
                if w_norm >= 0.0 {
                    p_pos += p;
                    p_neg += a_norm
                        * w_norm.abs()
                        * if self.cfg.enable_crosstalk {
                            self.off_leakage
                        } else {
                            0.0
                        }
                        * self.p_channel;
                } else {
                    p_neg += p;
                    p_pos += a_norm
                        * w_norm.abs()
                        * if self.cfg.enable_crosstalk {
                            self.off_leakage
                        } else {
                            0.0
                        }
                        * self.p_channel;
                }
            }
            acc += self.detect(p_pos, p_neg, chunk, &mut rng);
        }
        acc * a_max * w_max
    }

    /// Runs a full convolution through the analog datapath, following the
    /// Algorithm 2 partitioning (kernels across PLCGs, `Nd` receptive
    /// fields per PLCU, `Nu`-channel groups aggregated depth-first in the
    /// digital domain). No activation is applied.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has more than `Nm` weights per channel, if the
    /// kernel depth mismatches the input, or if any input element is
    /// negative.
    pub fn conv2d(&mut self, input: &Tensor3, kernels: &Tensor4, spec: &ConvSpec) -> Tensor3 {
        self.conv2d_inner(input, kernels, spec, self.chip.plcu.nm, 0)
    }

    /// The shared convolution path. `nm_cap` is the assumed MZM capacity
    /// (the chip's `Nm`, or the widened virtual capacity the large-kernel
    /// decomposition guarantees by masking); `pass` tags this invocation's
    /// noise streams so decomposition passes draw independent noise.
    ///
    /// Output rows are independent work items executed under the engine's
    /// [`Parallelism`] policy. Each row builds its input-side tables once
    /// and then runs every kernel over them; each `(kernel, output row)`
    /// pair draws noise from its own seed-derived generator, so the output
    /// is bit-identical at any thread count.
    fn conv2d_inner(
        &self,
        input: &Tensor3,
        kernels: &Tensor4,
        spec: &ConvSpec,
        nm_cap: usize,
        pass: u64,
    ) -> Tensor3 {
        let (az, ay, ax) = input.dims();
        let (wm, wz, wy, wx) = kernels.dims();
        assert_eq!(wz, az, "kernel depth {wz} must equal input depth {az}");
        assert!(
            wy * wx <= nm_cap,
            "kernel {wy}x{wx} exceeds the PLCU's {nm_cap} MZMs; decompose it first"
        );
        assert!(
            input.iter().all(|&v| v >= 0.0),
            "optical inputs must be non-negative"
        );
        let _prof = albireo_obs::profile::scope("analog.conv2d");
        let by = output_extent(ay, wy, spec.padding, spec.stride);
        let bx = output_extent(ax, wx, spec.padding, spec.stride);
        let mut out = Tensor3::zeros(wm, by, bx);
        let Some(conv) = ConvPass::new(self, input, kernels, spec, nm_cap, pass) else {
            return out;
        };
        // Rows are laid out `[yb][m][bx]` so each work item owns one
        // contiguous slice, then transposed into the `[m][yb][bx]` output.
        let mut rows = vec![0.0; wm * by * bx];
        self.par.fill_slices(&mut rows, wm * bx, |yb, row| {
            conv.output_row(yb, row);
        });
        let plane = out.as_mut_slice();
        for (yb, row) in rows.chunks(wm * bx).enumerate() {
            for (m, kernel_row) in row.chunks(bx).enumerate() {
                plane[(m * by + yb) * bx..][..bx].copy_from_slice(kernel_row);
            }
        }
        out
    }
}

/// One `conv2d_inner` call compiled into the tables every output row
/// shares: the geometry, the crosstalk look-up table, the fault tables and
/// the normalized weights.
struct ConvPass<'a> {
    engine: &'a AnalogEngine,
    input: &'a Tensor3,
    a_max: f64,
    /// `a_max · w_max`: scales normalized dot products back to the data.
    scale: f64,
    stride: isize,
    pad: isize,
    /// Output columns per row.
    bx: usize,
    az: usize,
    wy: usize,
    wx: usize,
    /// Receptive fields per PLCU cycle: `Nd` at stride 1, otherwise 1.
    nd: usize,
    /// Multicast columns of the widest group, `nd + wx − 1`.
    span: usize,
    /// `(first output column, width)` of each column group of a row.
    groups: Vec<(usize, usize)>,
    /// Drop transmission of a ring from the channel `c − t` slots away,
    /// at index `c − t + span − 1` (paper Eqs. 3 and 7).
    xt: Vec<f64>,
    /// `[row][col][output]`: the switching ring is dead.
    dead_ring: Vec<bool>,
    /// `[column]`: the multicast column carries no power.
    dead_channel: Vec<bool>,
    /// `[m][z][r][k]`: normalized weights with stuck MZMs applied.
    weights: Vec<f64>,
    compensate: bool,
    full_scale_terms: usize,
    pass: u64,
}

/// The input-side tables of one output row, shared by every kernel: for
/// each (channel `z`, column group, kernel row `r`) slot, `span` entries
/// indexed by multicast column.
struct RowTables {
    /// The normalized input row `a[c]`.
    a: Vec<f64>,
    /// The correlated drop `g[t] = Σ_c xt[c − t]·a[c]` of a ring tuned
    /// to column `t`: its main term plus the crosstalk of the row's other
    /// live channels.
    drop: Vec<f64>,
    /// The main-term-only drop `main_gain·a[t]` (compensation only).
    ideal: Vec<f64>,
}

impl<'a> ConvPass<'a> {
    fn new(
        engine: &'a AnalogEngine,
        input: &'a Tensor3,
        kernels: &Tensor4,
        spec: &ConvSpec,
        nm_cap: usize,
        pass: u64,
    ) -> Option<ConvPass<'a>> {
        let (_, az, wy, wx) = kernels.dims();
        let bx = output_extent(input.dims().2, wx, spec.padding, spec.stride);
        let a_max = input.max_abs();
        let w_max = kernels.max_abs();
        if a_max == 0.0 || w_max == 0.0 {
            return None;
        }
        // Overlapping receptive fields (the multicast pattern) exist only
        // at stride 1; otherwise columns are processed one at a time.
        let nd = if spec.stride == 1 {
            engine.chip.plcu.nd
        } else {
            1
        };
        let span = nd + wx - 1;
        let groups = (0..bx)
            .step_by(nd)
            .map(|xb| (xb, nd.min(bx - xb)))
            .collect();
        let with_xt = engine.cfg.enable_crosstalk;
        let xt = (0..2 * span - 1)
            .map(|i| engine.crosstalk(i as isize - (span as isize - 1), with_xt))
            .collect();
        // Fault tables for this pass. A fault outside its kernel or
        // multicast extent matches no crossing; the first stuck value of
        // an MZM wins.
        let mut dead_ring = vec![false; wy * wx * nd];
        let mut dead_channel = vec![false; span];
        let mut stuck_mzm = vec![None; wy * wx];
        for &fault in engine.faults.as_slice() {
            match fault {
                Fault::DeadRing { row, col, output } if row < wy && col < wx && output < nd => {
                    dead_ring[(row * wx + col) * nd + output] = true;
                }
                Fault::StuckMzm { row, col, weight } if row < wy && col < wx => {
                    stuck_mzm[row * wx + col].get_or_insert(weight);
                }
                Fault::DeadChannel { column } if column < span => dead_channel[column] = true,
                _ => {}
            }
        }
        let weights = kernels
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &w)| stuck_mzm[i % (wy * wx)].unwrap_or(w / w_max))
            .collect();
        Some(ConvPass {
            engine,
            input,
            a_max,
            scale: a_max * w_max,
            stride: spec.stride as isize,
            pad: spec.padding as isize,
            bx,
            az,
            wy,
            wx,
            nd,
            span,
            groups,
            xt,
            dead_ring,
            dead_channel,
            weights,
            compensate: engine.cfg.crosstalk_compensation && with_xt,
            full_scale_terms: nm_cap * engine.chip.nu,
            pass,
        })
    }

    /// Offset of the `(z, column group, kernel row)` slot in [`RowTables`].
    fn slot(&self, z: usize, group: usize, r: usize) -> usize {
        ((z * self.groups.len() + group) * self.wy + r) * self.span
    }

    /// Builds output row `yb`'s input-side tables. Sums run in ascending
    /// multicast-column order, skipping dead channels.
    fn row_tables(&self, yb: usize) -> RowTables {
        let _prof = albireo_obs::profile::scope("analog.tables");
        let len = self.slot(self.az, 0, 0);
        let mut t = RowTables {
            a: vec![0.0; len],
            drop: vec![0.0; len],
            ideal: vec![0.0; if self.compensate { len } else { 0 }],
        };
        let dead = &self.dead_channel;
        let main_gain = self.engine.main_gain;
        let ya = yb as isize * self.stride - self.pad;
        for z in 0..self.az {
            for (gi, &(xb, cols)) in self.groups.iter().enumerate() {
                let xa = xb as isize * self.stride - self.pad;
                let row_len = cols + self.wx - 1;
                for r in 0..self.wy {
                    let s = self.slot(z, gi, r);
                    let a = &mut t.a[s..s + row_len];
                    for (c, v) in a.iter_mut().enumerate() {
                        *v =
                            self.input.get_padded(z, ya + r as isize, xa + c as isize) / self.a_max;
                    }
                    let a = &t.a[s..s + row_len];
                    for (target, g) in t.drop[s..s + row_len].iter_mut().enumerate() {
                        let xt = &self.xt[self.span - 1 - target..];
                        let mut dropped = 0.0;
                        for (c, &v) in a.iter().enumerate() {
                            if dead[c] {
                                continue;
                            }
                            if xt[c] != 0.0 {
                                dropped += xt[c] * v;
                            }
                        }
                        *g = dropped;
                    }
                    if self.compensate {
                        for (target, g) in t.ideal[s..s + row_len].iter_mut().enumerate() {
                            let mut dropped = 0.0;
                            if !dead[target] {
                                dropped += main_gain * a[target];
                            }
                            *g = dropped;
                        }
                    }
                }
            }
        }
        t
    }

    /// Computes output row `yb` of every kernel into `row` (`[m][bx]`).
    fn output_row(&self, yb: usize, row: &mut [f64]) {
        let tables = self.row_tables(yb);
        // Per detection event (column group, Nu-channel group, output
        // column): positive rail, negative rail and the predicted
        // crosstalk excess for digital pre-compensation.
        let mut events = Vec::new();
        let mut plcu = vec![[0.0; 4]; self.nd];
        for (m, out) in row.chunks_mut(self.bx).enumerate() {
            self.kernel_rails(m, &tables, &mut events, &mut plcu);
            self.detect_row(m, yb, &events, out);
        }
    }

    /// Accumulates kernel `m`'s rail powers for every detection event of
    /// the row, in detection order.
    fn kernel_rails(
        &self,
        m: usize,
        tables: &RowTables,
        events: &mut Vec<[f64; 3]>,
        plcu: &mut [[f64; 4]],
    ) {
        let _prof = albireo_obs::profile::scope("analog.rails");
        let nu = self.engine.chip.nu;
        events.clear();
        for (gi, &(_, cols)) in self.groups.iter().enumerate() {
            // Depth-first aggregation over Nu-channel groups.
            for z0 in (0..self.az).step_by(nu) {
                let at = events.len();
                events.resize(at + cols, [0.0; 3]);
                for z in z0..self.az.min(z0 + nu) {
                    let rails = &mut plcu[..cols];
                    self.plcu_rails(m, z, gi, tables, rails);
                    for (e, &[p, n, pi, ni]) in events[at..].iter_mut().zip(rails.iter()) {
                        // Currents from corresponding PDs across the
                        // group's PLCUs add in the analog domain.
                        e[0] += p;
                        e[1] += n;
                        if self.compensate {
                            e[2] += (p - n) - (pi - ni);
                        }
                    }
                }
            }
        }
    }

    /// One PLCU cycle: kernel `m`'s channel `z` applied to column group
    /// `gi`'s receptive fields. Writes each output column's `[positive,
    /// negative]` rail powers, W, followed by the crosstalk-free pair when
    /// compensating.
    fn plcu_rails(&self, m: usize, z: usize, gi: usize, t: &RowTables, rails: &mut [[f64; 4]]) {
        let e = self.engine;
        let with_xt = e.cfg.enable_crosstalk;
        let dead_channel = &self.dead_channel;
        rails.fill([0.0; 4]);
        for r in 0..self.wy {
            let s = self.slot(z, gi, r);
            let (a, g) = (&t.a[s..s + self.span], &t.drop[s..s + self.span]);
            let w_row = ((m * self.az + z) * self.wy + r) * self.wx;
            for (k, &w) in self.weights[w_row..w_row + self.wx].iter().enumerate() {
                if w == 0.0 {
                    continue;
                }
                let mag = w.abs().min(1.0);
                let at = (r * self.wx + k) * self.nd;
                let dead_ring = &self.dead_ring[at..at + self.nd];
                for (d, rail) in rails.iter_mut().enumerate() {
                    if dead_ring[d] {
                        continue;
                    }
                    let target = d + k;
                    // The ring's correlated drop, scaled by the shared MZM
                    // weight.
                    let p_dropped = g[target] * mag * e.p_channel;
                    // The matching-sign ring drops onto its rail; the
                    // opposite-rail ring is detuned but leaks a little.
                    let leak = if with_xt && !dead_channel[target] {
                        a[target] * mag * e.off_leakage * e.p_channel
                    } else {
                        0.0
                    };
                    let (on, off) = if w > 0.0 { (0, 1) } else { (1, 0) };
                    rail[on] += p_dropped;
                    rail[off] += leak;
                    if self.compensate {
                        // The crosstalk-free pass leaks nothing: adding its
                        // zero to a non-negative rail is exact, so skip it.
                        rail[2 + on] += t.ideal[s + target] * mag * e.p_channel;
                    }
                }
            }
        }
    }

    /// Detects kernel `m`'s events in order with the `(m, yb)` noise
    /// stream, accumulating each output column over its Nu-channel groups
    /// into `out` (`[bx]`).
    fn detect_row(&self, m: usize, yb: usize, events: &[[f64; 3]], out: &mut [f64]) {
        let _prof = albireo_obs::profile::scope("analog.detect");
        let e = self.engine;
        let mut rng = e.item_rng(self.pass, m, yb);
        let mut events = events.iter();
        for &(xb, cols) in &self.groups {
            let totals = &mut out[xb..xb + cols];
            for _ in (0..self.az).step_by(e.chip.nu) {
                for (total, &[p, n, excess]) in totals.iter_mut().zip(events.by_ref()) {
                    let mut detected = e.detect(p, n, self.full_scale_terms, &mut rng);
                    if self.compensate {
                        // Subtract the predicted interference in the
                        // normalized dot-product domain.
                        detected -= excess / (e.p_channel * e.main_gain);
                    }
                    *total += detected;
                }
            }
            for total in totals {
                *total *= self.scale;
            }
        }
    }
}

impl AnalogEngine {
    /// Convolution for kernels of any size: kernels whose `Wy·Wx` exceeds
    /// the PLCU's `Nm` MZMs are decomposed into row bands of at most
    /// `⌊Nm/Wx⌋` kernel rows, each applied in its own pass with the
    /// partial outputs accumulated digitally — the extra cycles the paper
    /// describes for kernels that "will not completely fit in the PLCU's
    /// MZMs" (§III-A).
    ///
    /// # Panics
    ///
    /// Panics if the kernel is wider than `Nm` (a row must fit), on depth
    /// mismatch, or on negative inputs.
    pub fn conv2d_large(&mut self, input: &Tensor3, kernels: &Tensor4, spec: &ConvSpec) -> Tensor3 {
        self.conv2d_large_inner(input, kernels, spec, 0)
    }

    /// [`conv2d_large`](AnalogEngine::conv2d_large) with an explicit noise
    /// stream base: decomposition pass `t` uses pass id `pass_base + t`,
    /// so every tile — and every group in a grouped convolution — draws
    /// independent noise.
    fn conv2d_large_inner(
        &self,
        input: &Tensor3,
        kernels: &Tensor4,
        spec: &ConvSpec,
        pass_base: u64,
    ) -> Tensor3 {
        let (wm, wz, wy, wx) = kernels.dims();
        let nm = self.chip.plcu.nm;
        if wy * wx <= nm {
            return self.conv2d_inner(input, kernels, spec, nm, pass_base);
        }
        // Tile the kernel into masked sub-kernels with at most Nm non-zero
        // weights each: full-width row bands when a row fits the MZMs,
        // single-row column chunks otherwise. The sum over tiles equals
        // the full convolution by linearity.
        let (rows_per_pass, cols_per_pass) = if wx <= nm {
            ((nm / wx).max(1), wx)
        } else {
            (1, nm)
        };
        let mut out: Option<Tensor3> = None;
        let mut pass = pass_base;
        let mut r0 = 0;
        while r0 < wy {
            let band = rows_per_pass.min(wy - r0);
            let mut c0 = 0;
            while c0 < wx {
                let chunk = cols_per_pass.min(wx - c0);
                let mut masked = Tensor4::zeros(wm, wz, wy, wx);
                for m in 0..wm {
                    for z in 0..wz {
                        for r in r0..r0 + band {
                            for k in c0..c0 + chunk {
                                masked.set(m, z, r, k, kernels[(m, z, r, k)]);
                            }
                        }
                    }
                }
                // Widen the virtual capacity so the shared path accepts the
                // masked kernel; the physical constraint (non-zero weights
                // ≤ Nm) is upheld by construction.
                let partial = self.conv2d_inner(input, &masked, spec, (wy * wx).max(nm), pass);
                pass += 1;
                out = Some(match out {
                    None => partial,
                    Some(mut acc) => {
                        for (a, p) in acc.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                            *a += p;
                        }
                        acc
                    }
                });
                c0 += chunk;
            }
            r0 += band;
        }
        out.expect("at least one pass")
    }

    /// Grouped convolution through the analog datapath (AlexNet's two-group
    /// layers): each group is an independent convolution over its channel
    /// slice.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts are not divisible by `groups`.
    pub fn conv2d_grouped(
        &mut self,
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
        if groups == 1 {
            return self.conv2d_large_inner(input, kernels, spec, 0);
        }
        let ch_per_group = az / groups;
        let kn_per_group = wm / groups;
        let by = output_extent(ay, wy, spec.padding, spec.stride);
        let bx = output_extent(ax, wx, spec.padding, spec.stride);
        let mut out = Tensor3::zeros(wm, by, bx);
        for g in 0..groups {
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
            // Each group gets its own noise-stream block (a group never
            // tiles into more than 1024 decomposition passes).
            let part = self.conv2d_large_inner(&sub, &subk, spec, g as u64 * 1024);
            for m in 0..kn_per_group {
                for y in 0..by {
                    for x in 0..bx {
                        out.set(g * kn_per_group + m, y, x, part[(m, y, x)]);
                    }
                }
            }
        }
        out
    }
}

/// Box-Muller standard-normal sample.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_tensor::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(cfg: AnalogSimConfig) -> AnalogEngine {
        AnalogEngine::new(&ChipConfig::albireo_9(), cfg)
    }

    fn random_case(seed: u64, z: usize, n: usize) -> (Tensor3, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(z, n, n, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(4, z, 3, 3, 0.3, &mut rng);
        (input, kernels)
    }

    #[test]
    fn ideal_conv_matches_reference_closely() {
        let (input, kernels) = random_case(1, 3, 8);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let mut eng = engine(AnalogSimConfig::ideal());
        let analog = eng.conv2d(&input, &kernels, &spec);
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / full_scale;
        // Only 16-bit ADC quantization remains: error well below 0.1%.
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn realistic_conv_matches_within_predicted_precision() {
        let (input, kernels) = random_case(2, 6, 8);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let mut eng = engine(AnalogSimConfig::default());
        let bits = eng.expected_bits();
        assert!(bits > 5.0, "predicted bits = {bits}");
        let analog = eng.conv2d(&input, &kernels, &spec);
        // Error budget: the predicted precision per detected partial,
        // accumulated over ⌈Wz/Nu⌉ = 2 cycles, against the per-cycle full
        // scale.
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let cycles = 2.0;
        let budget = cycles * full_scale / 2f64.powf(bits - 1.0);
        let err = analog.max_abs_diff(&reference);
        assert!(
            err < budget,
            "error {err} exceeds budget {budget} (bits = {bits})"
        );
    }

    #[test]
    fn noise_only_errors_are_small() {
        let (input, kernels) = random_case(3, 3, 6);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let cfg = AnalogSimConfig {
            enable_crosstalk: false,
            adc_bits: 12,
            ..AnalogSimConfig::default()
        };
        let mut eng = engine(cfg);
        let analog = eng.conv2d(&input, &kernels, &spec);
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / full_scale;
        assert!(err < 0.02, "relative error {err}");
    }

    #[test]
    fn crosstalk_biases_are_bounded() {
        let (input, kernels) = random_case(4, 3, 6);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let cfg = AnalogSimConfig {
            enable_noise: false,
            adc_bits: 16,
            ..AnalogSimConfig::default()
        };
        let mut eng = engine(cfg);
        let analog = eng.conv2d(&input, &kernels, &spec);
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / full_scale;
        // Worst-case aggregate crosstalk for 21 λ at k² = 0.03 is a few
        // percent of full scale.
        assert!(err < 0.05, "relative error {err}");
        assert!(err > 0.0, "crosstalk should perturb the result");
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (input, kernels) = random_case(5, 3, 6);
        let spec = ConvSpec::unit();
        let a = engine(AnalogSimConfig::default()).conv2d(&input, &kernels, &spec);
        let b = engine(AnalogSimConfig::default()).conv2d(&input, &kernels, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_with_noise() {
        let (input, kernels) = random_case(6, 3, 6);
        let spec = ConvSpec::unit();
        let a = engine(AnalogSimConfig::default()).conv2d(&input, &kernels, &spec);
        let cfg2 = AnalogSimConfig {
            seed: 99,
            ..AnalogSimConfig::default()
        };
        let b = engine(cfg2).conv2d(&input, &kernels, &spec);
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn strided_conv_supported() {
        let (input, kernels) = random_case(7, 3, 9);
        let spec = ConvSpec::new(2, 0);
        let reference = conv2d(&input, &kernels, &spec);
        let mut eng = engine(AnalogSimConfig::ideal());
        let analog = eng.conv2d(&input, &kernels, &spec);
        assert_eq!(analog.dims(), reference.dims());
        let full_scale = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / full_scale < 1e-3);
    }

    #[test]
    fn fc_dot_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let a: Vec<f64> = (0..100).map(|_| rng.random::<f64>()).collect();
        let w: Vec<f64> = (0..100).map(|_| rng.random::<f64>() - 0.5).collect();
        let reference: f64 = a.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
        let mut eng = engine(AnalogSimConfig::ideal());
        let analog = eng.dot(&a, &w);
        let a_max = a.iter().cloned().fold(0.0_f64, f64::max);
        let w_max = w.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
        let full_scale = a_max * w_max * 27.0;
        assert!(
            (analog - reference).abs() / full_scale < 1e-3,
            "analog {analog} vs reference {reference}"
        );
    }

    #[test]
    fn zero_inputs_give_zero_output() {
        let input = Tensor3::zeros(3, 6, 6);
        let kernels = Tensor4::filled(2, 3, 3, 3, 0.5);
        let mut eng = engine(AnalogSimConfig::default());
        let out = eng.conv2d(&input, &kernels, &ConvSpec::unit());
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_inputs_rejected() {
        let input = Tensor3::filled(1, 4, 4, -1.0);
        let kernels = Tensor4::filled(1, 1, 3, 3, 0.5);
        let mut eng = engine(AnalogSimConfig::default());
        let _ = eng.conv2d(&input, &kernels, &ConvSpec::unit());
    }

    #[test]
    #[should_panic(expected = "exceeds the PLCU")]
    fn oversized_kernel_rejected() {
        let input = Tensor3::filled(1, 8, 8, 1.0);
        let kernels = Tensor4::filled(1, 1, 5, 5, 0.5);
        let mut eng = engine(AnalogSimConfig::default());
        let _ = eng.conv2d(&input, &kernels, &ConvSpec::unit());
    }

    #[test]
    fn channel_power_is_microwatt_scale() {
        let eng = engine(AnalogSimConfig::default());
        let p = eng.channel_power_w();
        assert!(p > 1e-7 && p < 1e-3, "p = {p}");
    }

    #[test]
    fn expected_bits_reasonable() {
        let eng = engine(AnalogSimConfig::default());
        let bits = eng.expected_bits();
        // §II-C2: 7 bits is the design's worst-case target.
        assert!((5.0..10.0).contains(&bits), "bits = {bits}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use albireo_tensor::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn case(seed: u64) -> (Tensor3, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(3, 8, 8, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
        (input, kernels)
    }

    fn engine(cfg: AnalogSimConfig) -> AnalogEngine {
        AnalogEngine::new(&ChipConfig::albireo_9(), cfg)
    }

    #[test]
    fn crosstalk_compensation_recovers_precision() {
        let (input, kernels) = case(101);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        let base_cfg = AnalogSimConfig {
            enable_noise: false,
            adc_bits: 16,
            ..AnalogSimConfig::default()
        };
        let uncompensated = engine(base_cfg).conv2d(&input, &kernels, &spec);
        let comp_cfg = AnalogSimConfig {
            crosstalk_compensation: true,
            ..base_cfg
        };
        let compensated = engine(comp_cfg).conv2d(&input, &kernels, &spec);
        let err_raw = uncompensated.max_abs_diff(&reference) / fs;
        let err_comp = compensated.max_abs_diff(&reference) / fs;
        assert!(
            err_comp < err_raw / 10.0,
            "compensation should cut error >10x: {err_raw} -> {err_comp}"
        );
    }

    #[test]
    fn compensation_still_helps_under_noise() {
        // Compensation removes the deterministic crosstalk bias but not
        // the stochastic receiver noise, so compare *mean* absolute error
        // aggregated over several noise seeds — a single draw's max error
        // can land wherever the noise happens to spike.
        let (input, kernels) = case(102);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let mean_err = |compensate: bool| {
            let mut total = 0.0;
            let mut count = 0usize;
            for seed in [11u64, 22, 33] {
                let cfg = AnalogSimConfig {
                    crosstalk_compensation: compensate,
                    seed,
                    ..AnalogSimConfig::default()
                };
                let out = engine(cfg).conv2d(&input, &kernels, &spec);
                for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
                    total += (a - b).abs();
                    count += 1;
                }
            }
            total / count as f64
        };
        let err_raw = mean_err(false);
        let err_comp = mean_err(true);
        assert!(err_comp < err_raw, "{err_comp} vs {err_raw}");
    }

    #[test]
    fn dead_ring_degrades_one_output_column_family() {
        let (input, kernels) = case(103);
        let spec = ConvSpec::unit();
        let mut healthy = engine(AnalogSimConfig::ideal());
        let clean = healthy.conv2d(&input, &kernels, &spec);
        let mut faulty = engine(AnalogSimConfig::ideal());
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadRing {
            row: 1,
            col: 1,
            output: 2,
        });
        faulty.inject_faults(faults);
        let broken = faulty.conv2d(&input, &kernels, &spec);
        assert!(broken.max_abs_diff(&clean) > 0.0, "fault must be visible");
        // Only output columns congruent to 2 mod Nd are affected.
        let (_, by, bx) = clean.dims();
        for m in 0..2 {
            for y in 0..by {
                for x in 0..bx {
                    let diff = (clean[(m, y, x)] - broken[(m, y, x)]).abs();
                    if x % 5 != 2 {
                        assert!(diff < 1e-9, "column {x} should be clean, diff {diff}");
                    }
                }
            }
        }
    }

    #[test]
    fn stuck_mzm_biases_everything_it_touches() {
        let (input, kernels) = case(104);
        let spec = ConvSpec::unit();
        let clean = engine(AnalogSimConfig::ideal()).conv2d(&input, &kernels, &spec);
        let mut faulty = engine(AnalogSimConfig::ideal());
        let mut faults = FaultSet::new();
        faults.push(Fault::StuckMzm {
            row: 0,
            col: 0,
            weight: 1.0,
        });
        faulty.inject_faults(faults);
        let broken = faulty.conv2d(&input, &kernels, &spec);
        assert!(broken.max_abs_diff(&clean) > 1e-3);
    }

    #[test]
    fn dead_channel_loses_signal() {
        let (input, kernels) = case(105);
        let spec = ConvSpec::unit();
        let clean = engine(AnalogSimConfig::ideal()).conv2d(&input, &kernels, &spec);
        let mut faulty = engine(AnalogSimConfig::ideal());
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadChannel { column: 0 });
        faulty.inject_faults(faults);
        let broken = faulty.conv2d(&input, &kernels, &spec);
        assert!(broken.max_abs_diff(&clean) > 1e-3);
    }

    #[test]
    fn clear_faults_restores_health() {
        let (input, kernels) = case(106);
        let spec = ConvSpec::unit();
        let mut eng = engine(AnalogSimConfig::ideal());
        let clean = eng.conv2d(&input, &kernels, &spec);
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadChannel { column: 1 });
        eng.inject_faults(faults);
        assert_eq!(eng.faults().len(), 1);
        eng.clear_faults();
        assert!(eng.faults().is_empty());
        let recovered = eng.conv2d(&input, &kernels, &spec);
        assert!(recovered.max_abs_diff(&clean) < 1e-12);
    }

    #[test]
    fn more_faults_more_error() {
        let (input, kernels) = case(107);
        let spec = ConvSpec::unit();
        let clean = engine(AnalogSimConfig::ideal()).conv2d(&input, &kernels, &spec);
        let mut errs = Vec::new();
        for n_faults in [1usize, 3, 6] {
            let mut eng = engine(AnalogSimConfig::ideal());
            let mut faults = FaultSet::new();
            for i in 0..n_faults {
                faults.push(Fault::DeadRing {
                    row: i % 3,
                    col: i % 3,
                    output: i % 5,
                });
            }
            eng.inject_faults(faults);
            let broken = eng.conv2d(&input, &kernels, &spec);
            errs.push(broken.max_abs_diff(&clean));
        }
        assert!(errs[0] <= errs[1] && errs[1] <= errs[2], "{errs:?}");
    }
}

#[cfg(test)]
mod decomposition_tests {
    use super::*;
    use albireo_tensor::conv::{conv2d, conv2d_grouped};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> AnalogEngine {
        AnalogEngine::new(&ChipConfig::albireo_9(), AnalogSimConfig::ideal())
    }

    #[test]
    fn five_by_five_kernel_decomposes_correctly() {
        let mut rng = StdRng::seed_from_u64(201);
        let input = Tensor3::random_uniform(2, 10, 10, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 5, 5, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let analog = engine().conv2d_large(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        let err = analog.max_abs_diff(&reference) / fs;
        // 3 passes of 16-bit quantization: still well under 0.5%.
        assert!(err < 5e-3, "relative error {err}");
    }

    #[test]
    fn small_kernels_take_the_direct_path() {
        let mut rng = StdRng::seed_from_u64(202);
        let input = Tensor3::random_uniform(1, 8, 8, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(1, 1, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let direct = engine().conv2d(&input, &kernels, &spec);
        let via_large = engine().conv2d_large(&input, &kernels, &spec);
        assert_eq!(direct, via_large);
    }

    #[test]
    fn alexnet_conv1_shape_11x11_stride_4() {
        let mut rng = StdRng::seed_from_u64(203);
        let input = Tensor3::random_uniform(3, 19, 19, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 3, 11, 11, 0.1, &mut rng);
        let spec = ConvSpec::new(4, 0);
        let reference = conv2d(&input, &kernels, &spec);
        let analog = engine().conv2d_large(&input, &kernels, &spec);
        assert_eq!(analog.dims(), reference.dims());
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / fs < 2e-2);
    }

    #[test]
    fn grouped_analog_matches_grouped_reference() {
        let mut rng = StdRng::seed_from_u64(204);
        let input = Tensor3::random_uniform(4, 8, 8, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(4, 2, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d_grouped(&input, &kernels, &spec, 2);
        let analog = engine().conv2d_grouped(&input, &kernels, &spec, 2);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / fs < 1e-3);
    }

    #[test]
    fn one_group_equals_direct() {
        let mut rng = StdRng::seed_from_u64(205);
        let input = Tensor3::random_uniform(2, 6, 6, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let a = engine().conv2d_grouped(&input, &kernels, &spec, 1);
        let b = engine().conv2d(&input, &kernels, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn wide_single_row_kernel_decomposes_by_columns() {
        let mut rng = StdRng::seed_from_u64(206);
        let input = Tensor3::random_uniform(1, 4, 16, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(1, 1, 1, 11, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let analog = engine().conv2d_large(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        assert!(analog.max_abs_diff(&reference) / fs < 5e-3);
    }

    #[test]
    fn capacity_restored_after_unchecked_pass() {
        let mut eng = engine();
        let input = Tensor3::filled(1, 8, 8, 1.0);
        let kernels = Tensor4::filled(1, 1, 5, 5, 0.5);
        let _ = eng.conv2d_large(&input, &kernels, &ConvSpec::unit());
        assert_eq!(eng.chip.plcu.nm, 9, "nm must be restored");
    }
}

#[cfg(test)]
mod allocation_tests {
    use super::*;
    use albireo_tensor::conv::conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interleaved_allocation_reduces_crosstalk_error() {
        let chip = ChipConfig::albireo_9();
        let mut rng = StdRng::seed_from_u64(301);
        let input = Tensor3::random_uniform(3, 10, 10, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &kernels, &spec);
        let fs = input.max_abs() * kernels.max_abs() * 27.0;
        let run = |allocation: ChannelAllocation| {
            let cfg = AnalogSimConfig {
                enable_noise: false,
                adc_bits: 16,
                allocation,
                ..AnalogSimConfig::default()
            };
            let mut e = AnalogEngine::new(&chip, cfg);
            e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
        };
        let contiguous = run(ChannelAllocation::Contiguous);
        let interleaved = run(ChannelAllocation::RowInterleaved);
        assert!(
            interleaved < contiguous / 3.0,
            "interleaving should cut crosstalk >3x: {contiguous} -> {interleaved}"
        );
    }

    #[test]
    fn allocation_is_irrelevant_without_crosstalk() {
        let chip = ChipConfig::albireo_9();
        let mut rng = StdRng::seed_from_u64(302);
        let input = Tensor3::random_uniform(2, 6, 6, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(1, 2, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let mut a = AnalogEngine::new(
            &chip,
            AnalogSimConfig {
                allocation: ChannelAllocation::Contiguous,
                ..AnalogSimConfig::ideal()
            },
        );
        let mut b = AnalogEngine::new(
            &chip,
            AnalogSimConfig {
                allocation: ChannelAllocation::RowInterleaved,
                ..AnalogSimConfig::ideal()
            },
        );
        assert_eq!(
            a.conv2d(&input, &kernels, &spec),
            b.conv2d(&input, &kernels, &spec)
        );
    }
}
