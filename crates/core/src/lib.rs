//! The Albireo architecture model — the paper's primary contribution.
//!
//! Albireo is built from three nested units (paper §III):
//!
//! * **PLCU** (photonic locally-connected unit): an `Nm × Nd` grid of `Nm`
//!   weight MZMs and `2·Nm·Nd` switching MRRs computing `Nd` concurrent
//!   dot products over one kernel channel by exploiting the multicast
//!   pattern of overlapping receptive fields (Fig. 5).
//! * **PLCG** (photonic locally-connected group): `Nu` PLCUs processing
//!   `Nu` input channels in parallel, fed by an AWG demultiplexer and star
//!   couplers, with an electronic aggregation unit (`Nd` TIAs/ADCs/adders)
//!   performing depth-first partial-sum accumulation (Figs. 6b, 7).
//! * **Chip**: `Ng` PLCGs receiving the same broadcast input volume and
//!   applying `Ng` different kernels in parallel (Fig. 6a), plus a global
//!   SRAM buffer, per-group kernel caches, a laser/modulator bank and the
//!   DAC/ADC conversion interface.
//!
//! The crate provides:
//!
//! * [`accel`] — the unified [`Accelerator`] cost-model
//!   trait every accelerator (Albireo and the baselines in
//!   `albireo-baselines`) implements, plus the canonical
//!   [`NetworkCost`] vocabulary.
//! * [`config`] — architecture parameters and the Table I device-power
//!   estimates (conservative / moderate / aggressive).
//! * [`inventory`] — device-count derivation (306 DACs, 45 TIAs, 63 lasers,
//!   2430 switching MRRs for Albireo-9, matching the paper's §V numbers).
//! * [`power`] — the Table III power breakdown.
//! * [`area`] — the Fig. 9 area breakdown (≈ 124.6 mm² total).
//! * [`sched`] — the Algorithm 2 dataflow model producing per-layer cycle
//!   counts for standard, grouped, depthwise, pointwise, and FC layers.
//! * [`energy`] — per-layer and per-network latency / energy / EDP and the
//!   Table IV throughput metrics.
//! * [`engine`] — [`engine::evaluate_grid`], which fans the paper's
//!   (chip × estimate × network) grid across threads deterministically
//!   (each grid point's evaluation runs serially).
//! * [`analog`] — a functional analog simulation of the photonic signal
//!   chain (MZM multiply, MRR switching with crosstalk, balanced detection
//!   with noise, ADC quantization), validated against the digital golden
//!   model in `albireo-tensor`.
//! * [`report`] — plain-text table formatting shared by the CLI and the bench harness.
//!
//! # Example
//!
//! ```
//! use albireo_core::config::{ChipConfig, TechnologyEstimate};
//! use albireo_core::energy::NetworkEvaluation;
//! use albireo_nn::zoo;
//!
//! let chip = ChipConfig::albireo_9();
//! let eval = NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &zoo::alexnet());
//! println!("AlexNet on Albireo-C: {:.3} ms, {:.2} mJ", eval.latency_s * 1e3, eval.energy_j * 1e3);
//! ```

pub mod ablation;
pub mod accel;
pub mod analog;
pub mod area;
pub mod config;
pub mod dataflow_alt;
pub mod energy;
pub mod engine;
pub mod inventory;
pub mod memory;
pub mod power;
pub mod power_delivery;
pub mod report;
pub mod scaling;
pub mod sched;
pub mod timing;
pub mod trace;

pub use accel::{Accelerator, AlbireoAccelerator, LayerCost, NetworkCost};
pub use config::{ChipConfig, PlcuConfig, TechnologyEstimate};
pub use energy::NetworkEvaluation;
pub use inventory::DeviceInventory;
