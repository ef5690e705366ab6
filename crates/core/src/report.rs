//! Machine-readable experiment reports.
//!
//! [`RunResult`]s and sweep curves as JSON values (the workspace's one
//! JSON module, [`starnuma_types::json`]), so harness output can be
//! consumed by plotting scripts or CI checks.

use starnuma_sim::RunResult;
use starnuma_topology::AccessClass;
use starnuma_trace::Workload;
use starnuma_types::json::{obj, Value};

use crate::experiment::SystemKind;
use crate::sweep::SweepPoint;

/// Renders one run result as a JSON object.
pub fn run_result_json(workload: Workload, system: SystemKind, r: &RunResult) -> Value {
    let classes = AccessClass::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| {
            obj([
                ("class", c.label().into()),
                ("fraction", r.class_fracs[i].into()),
                ("mean_latency_ns", r.class_mean_ns[i].into()),
            ])
        })
        .collect();
    let d = &r.directory;
    obj([
        ("workload", workload.name().into()),
        ("system", system.label().into()),
        ("ipc", r.ipc.into()),
        ("amat_ns", r.amat_ns.into()),
        ("unloaded_amat_ns", r.unloaded_amat_ns.into()),
        ("contention_ns", r.contention_ns.into()),
        ("mpki", r.mpki.into()),
        ("pages_migrated", (r.pages_migrated as f64).into()),
        ("pages_to_pool", (r.pages_to_pool as f64).into()),
        ("pool_migration_fraction", r.pool_migration_frac().into()),
        ("access_breakdown", Value::Arr(classes)),
        (
            "directory",
            obj([
                ("transactions", (d.transactions as f64).into()),
                ("pool_transactions", (d.pool_transactions as f64).into()),
                ("bt_socket", (d.bt_socket as f64).into()),
                ("bt_pool", (d.bt_pool as f64).into()),
                ("invalidations", (d.invalidations as f64).into()),
            ]),
        ),
        ("phases", (r.phases.len() as f64).into()),
    ])
}

/// Renders a sweep curve as a JSON object: `{"knob": ..., "points":
/// [{"x": ..., "speedup": ...}, ...]}`. `knob` names the swept parameter
/// (e.g. `cxl_one_way_ns`, `pool_capacity_frac`).
pub fn sweep_points_json(knob: &str, points: &[SweepPoint]) -> Value {
    let points = points
        .iter()
        .map(|p| obj([("x", p.x.into()), ("speedup", p.speedup.into())]))
        .collect();
    obj([("knob", knob.into()), ("points", Value::Arr(points))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, ScaleConfig};

    #[test]
    fn sweep_points_serialize() {
        let pts = [
            SweepPoint {
                x: 50.0,
                speedup: 1.5,
            },
            SweepPoint {
                x: 140.0,
                speedup: 1.0,
            },
        ];
        assert_eq!(
            sweep_points_json("cxl_one_way_ns", &pts).render(),
            "{\"knob\":\"cxl_one_way_ns\",\"points\":[{\"x\":50,\"speedup\":1.5},{\"x\":140,\"speedup\":1}]}"
        );
    }

    #[test]
    fn run_result_round_trips_structure() {
        let r = Experiment::new(Workload::Poa, SystemKind::StarNuma, ScaleConfig::quick()).run();
        let json = run_result_json(Workload::Poa, SystemKind::StarNuma, &r).render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workload\":\"POA\""));
        assert!(json.contains("\"access_breakdown\":["));
        assert!(json.contains("\"pool_migration_fraction\":0"));
        let parsed = Value::parse(&json).expect("valid JSON");
        assert_eq!(parsed.render(), json);
        let classes = parsed.get("access_breakdown").and_then(Value::as_arr);
        assert_eq!(classes.map(<[_]>::len), Some(AccessClass::ALL.len()));
    }
}
