//! Parameter-sweep helpers: speedup as a function of one design knob.
//!
//! The paper samples two points per knob (Fig. 10: 100/190 ns; Fig. 12:
//! 1/5 and 1/17 capacity); these helpers trace the whole curve, which is
//! what an architect provisioning a real MHD wants — in particular the
//! *break-even pool latency*, beyond which StarNUMA stops paying off.

use starnuma_obs::ObsSink;
use starnuma_sim::RunConfig;
use starnuma_trace::Workload;
use starnuma_types::Nanos;

use crate::experiment::{run_best, speedup, Experiment, SystemKind};
use crate::scale::ScaleConfig;

/// One sweep sample.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepPoint {
    /// The knob value (ns of one-way CXL latency, or pool capacity
    /// fraction, depending on the sweep).
    pub x: f64,
    /// Speedup over the §IV-C baseline at that value.
    pub speedup: f64,
}

/// Sweeps the one-way CXL latency (ns) and returns the speedup curve.
///
/// The default design point is 50 ns one-way (100 ns roundtrip penalty,
/// 180 ns end-to-end); 140 ns one-way makes the pool exactly as slow as a
/// 2-hop access.
pub fn sweep_cxl_latency(
    workload: Workload,
    scale: &ScaleConfig,
    one_way_ns: &[f64],
) -> Vec<SweepPoint> {
    run_sweep(workload, scale, one_way_ns, |ns| {
        latency_point_config(workload, scale, ns)
    })
}

/// The [`RunConfig`] for one latency-sweep point: the StarNUMA system at
/// `scale` with only the one-way CXL latency overridden. Everything else —
/// including the §V-G scale preset (SC3 doubles the machine) — is kept.
fn latency_point_config(workload: Workload, scale: &ScaleConfig, one_way_ns: f64) -> RunConfig {
    let mut cfg = Experiment::new(workload, SystemKind::StarNuma, scale.clone()).run_config();
    cfg.params = cfg.params.with_cxl_one_way(Nanos::new(one_way_ns));
    cfg
}

/// Sweeps the pool capacity (as a fraction of the footprint).
pub fn sweep_pool_capacity(
    workload: Workload,
    scale: &ScaleConfig,
    fractions: &[f64],
) -> Vec<SweepPoint> {
    run_sweep(workload, scale, fractions, |frac| {
        let mut cfg = Experiment::new(workload, SystemKind::StarNuma, scale.clone()).run_config();
        cfg.pool_capacity_frac = frac;
        cfg
    })
}

/// Runs the baseline and the `point(x)` config of every `x` as one
/// [`run_best`] batch and normalizes each point's IPC to the baseline's.
/// Results are in input order and bit-identical to a sequential sweep.
fn run_sweep(
    workload: Workload,
    scale: &ScaleConfig,
    xs: &[f64],
    point: impl Fn(f64) -> RunConfig,
) -> Vec<SweepPoint> {
    let base = Experiment::new(workload, SystemKind::Baseline, scale.clone());
    let requests = std::iter::once(base.candidates())
        .chain(xs.iter().map(|&x| vec![point(x)]))
        .map(|configs| (workload, configs))
        .collect();
    let runs = run_best(requests, &ObsSink::disabled());
    xs.iter()
        .zip(&runs[1..])
        .map(|(&x, (r, _))| SweepPoint {
            x,
            speedup: speedup(r, &runs[0].0),
        })
        .collect()
}

/// Linear-interpolated `x` where a descending sweep crosses `speedup = 1.0`,
/// if it does.
pub fn break_even(points: &[SweepPoint]) -> Option<f64> {
    for pair in points.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if (a.speedup - 1.0) * (b.speedup - 1.0) <= 0.0 && a.speedup != b.speedup {
            let t = (1.0 - a.speedup) / (b.speedup - a.speedup);
            return Some(a.x + t * (b.x - a.x));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn break_even_interpolates() {
        let pts = [
            SweepPoint {
                x: 50.0,
                speedup: 1.5,
            },
            SweepPoint {
                x: 150.0,
                speedup: 1.1,
            },
            SweepPoint {
                x: 250.0,
                speedup: 0.9,
            },
        ];
        let be = break_even(&pts).expect("crosses 1.0");
        assert!((be - 200.0).abs() < 1e-9);
    }

    #[test]
    fn break_even_none_when_always_winning() {
        let pts = [
            SweepPoint {
                x: 1.0,
                speedup: 1.5,
            },
            SweepPoint {
                x: 2.0,
                speedup: 1.2,
            },
        ];
        assert!(break_even(&pts).is_none());
    }

    #[test]
    fn latency_sweep_honors_scale_preset() {
        use starnuma_topology::ScalePreset;
        // Regression: the sweep used to rebuild SystemParams from scratch,
        // silently dropping the SC3 machine-doubling preset.
        let sc1 = ScaleConfig::quick();
        let sc3 = ScaleConfig::quick().with_preset(ScalePreset::Sc3);
        let cfg1 = latency_point_config(Workload::Bfs, &sc1, 70.0);
        let cfg3 = latency_point_config(Workload::Bfs, &sc3, 70.0);
        assert_eq!(
            cfg3.params.cores_per_socket,
            2 * cfg1.params.cores_per_socket,
            "SC3 must double the machine in latency-sweep configs"
        );
        assert!(cfg3.params.cxl_bw.raw() > cfg1.params.cxl_bw.raw());
        // And the knob itself is still applied on both.
        assert_eq!(cfg1.params.cxl_one_way.raw(), 70.0);
        assert_eq!(cfg3.params.cxl_one_way.raw(), 70.0);
    }

    #[test]
    fn capacity_sweep_runs_quick() {
        let scale = ScaleConfig {
            phases: 1,
            instructions_per_phase: 8_000,
            warmup_instructions: 0,
            ..ScaleConfig::quick()
        };
        let pts = sweep_pool_capacity(Workload::Bfs, &scale, &[0.05, 0.2]);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.speedup > 0.0));
    }
}
