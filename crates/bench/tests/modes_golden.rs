//! Golden-value regression for the alternative operating modes: the
//! committed `results/golden_modes_metrics.csv` pins the direct Albireo
//! dataflow next to the Winograd F(2×2,3×3) and incoherent-GEMM modes —
//! all costed through the shared [`Accelerator`] trait — byte for byte.
//! Any change to a mode's analytic model (or to the trait plumbing the
//! serving simulator and planner share) fails here before it silently
//! shifts fleet decisions. Regenerate with:
//!
//! ```text
//! cargo run --release -p albireo-cli -- experiment csv
//! ```

use albireo_bench::golden_modes_metrics_csv;
use std::collections::HashMap;
use std::path::PathBuf;

fn golden_csv() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("golden_modes_metrics.csv");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Parses the committed golden rows into (network, accelerator) -> row
/// fields, so the headline-claim assertions read the same artifact the
/// byte-exactness test pins.
fn rows_by_key(csv: &str) -> HashMap<(String, String), Vec<String>> {
    csv.lines()
        .skip(1)
        .map(|line| {
            let fields: Vec<String> = line.split(',').map(str::to_string).collect();
            ((fields[0].clone(), fields[1].clone()), fields)
        })
        .collect()
}

#[test]
fn golden_modes_metrics_reproduce_byte_exactly() {
    assert_eq!(
        golden_modes_metrics_csv(),
        golden_csv(),
        "operating-mode costs diverged from results/golden_modes_metrics.csv; \
         if the change is intentional, regenerate with \
         `cargo run --release -p albireo-cli -- experiment csv`"
    );
}

#[test]
fn winograd_reduces_macs_and_latency_on_vgg_class_nets() {
    let rows = rows_by_key(&golden_csv());
    for network in ["VGG16", "AlexNet", "ResNet18"] {
        let direct = &rows[&(network.to_string(), "albireo_9".to_string())];
        let wino = &rows[&(network.to_string(), "winograd_9".to_string())];
        let (d_macs, w_macs): (f64, f64) = (direct[3].parse().unwrap(), wino[3].parse().unwrap());
        let (d_lat, w_lat): (f64, f64) = (direct[4].parse().unwrap(), wino[4].parse().unwrap());
        assert!(
            w_macs < d_macs,
            "{network}: Winograd should cut MAC count ({w_macs} vs {d_macs})"
        );
        assert!(
            w_lat < d_lat,
            "{network}: Winograd should cut latency ({w_lat} vs {d_lat})"
        );
    }
    // VGG16 is dominated by stride-1 3×3 convs: the transform-domain
    // schedule must shift the frontier, not shave an epsilon.
    let direct = &rows[&("VGG16".to_string(), "albireo_9".to_string())];
    let wino = &rows[&("VGG16".to_string(), "winograd_9".to_string())];
    let ratio: f64 = wino[4].parse::<f64>().unwrap() / direct[4].parse::<f64>().unwrap();
    assert!(
        ratio < 0.6,
        "VGG16 Winograd latency ratio {ratio:.3} >= 0.6"
    );
}

#[test]
fn winograd_leaves_mobilenet_untouched() {
    // MobileNet has no stride-1 3×3 standard conv, so every layer takes
    // the direct fallback: cycles, MACs, and latency are identical.
    let rows = rows_by_key(&golden_csv());
    let direct = &rows[&("MobileNet".to_string(), "albireo_9".to_string())];
    let wino = &rows[&("MobileNet".to_string(), "winograd_9".to_string())];
    assert_eq!(direct[2], wino[2], "cycles differ");
    assert_eq!(direct[3], wino[3], "MACs differ");
    assert_eq!(direct[4], wino[4], "latency differs");
}

#[test]
fn gemm_rows_exist_only_for_dense_networks() {
    let rows = rows_by_key(&golden_csv());
    for dense in ["MLP-Mixer", "Transformer-Enc"] {
        assert!(
            rows.contains_key(&(dense.to_string(), "gemm_9".to_string())),
            "missing gemm_9 row for {dense}"
        );
    }
    for cnn in ["AlexNet", "VGG16", "ResNet18", "MobileNet"] {
        assert!(
            !rows.contains_key(&(cnn.to_string(), "gemm_9".to_string())),
            "gemm_9 must not cost spatial CNN {cnn}"
        );
    }
}

#[test]
fn gemm_beats_direct_on_dense_workloads() {
    let rows = rows_by_key(&golden_csv());
    for dense in ["MLP-Mixer", "Transformer-Enc"] {
        let direct = &rows[&(dense.to_string(), "albireo_9".to_string())];
        let gemm = &rows[&(dense.to_string(), "gemm_9".to_string())];
        let (d_lat, g_lat): (f64, f64) = (direct[4].parse().unwrap(), gemm[4].parse().unwrap());
        assert!(
            g_lat < d_lat,
            "{dense}: GEMM mode should beat the direct schedule ({g_lat} vs {d_lat})"
        );
    }
}
