//! Property tests for the one-shot scheduler across random design points
//! and layer shapes.

use proptest::prelude::*;
use vaesa_accel::{DesignSpace, LayerShape};
use vaesa_cosa::{CachedScheduler, LayerCost, ScheduleError, Scheduler};
use vaesa_timeloop::Mapping;

fn arb_indices() -> impl Strategy<Value = [usize; 6]> {
    (
        0usize..5,
        0usize..64,
        0usize..128,
        0usize..32768,
        0usize..2048,
        0usize..131072,
    )
        .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f])
}

fn arb_layer() -> impl Strategy<Value = LayerShape> {
    (
        1u64..=5,
        1u64..=5,
        1u64..=32,
        1u64..=32,
        1u64..=256,
        1u64..=256,
    )
        .prop_map(|(r, s, p, q, c, k)| LayerShape::new("prop", r, s, p, q, c, k, 1, 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The scheduler is a pure function of its inputs.
    #[test]
    fn schedule_is_deterministic(indices in arb_indices(), layer in arb_layer()) {
        let space = DesignSpace::paper();
        let arch = space.describe(&space.config_from_indices(indices).expect("bounds"));
        let s = Scheduler::default();
        let a = s.schedule(&arch, &layer);
        let b = s.schedule(&arch, &layer);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.mapping, y.mapping);
                prop_assert_eq!(x.evaluation.edp(), y.evaluation.edp());
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "validity flip-flopped"),
        }
    }

    /// The cache is transparent: a miss and a hit both return the uncached
    /// result's latency and energy bit for bit, errors included.
    #[test]
    fn cache_is_transparent(indices in arb_indices(), layer in arb_layer()) {
        let space = DesignSpace::paper();
        let arch = space.describe(&space.config_from_indices(indices).expect("bounds"));
        let plain = Scheduler::default();
        let cached = CachedScheduler::default();
        let bits = |r: Result<LayerCost, ScheduleError>| {
            r.map(|c| (c.latency_cycles.to_bits(), c.energy_pj.to_bits()))
        };
        let want = bits(plain.schedule(&arch, &layer).map(|s| s.cost()));
        prop_assert_eq!(&bits(cached.schedule(&arch, &layer)), &want); // miss
        prop_assert_eq!(&bits(cached.schedule(&arch, &layer)), &want); // hit
        prop_assert_eq!(cached.cache_len(), 1);
    }

    /// Spatial utilization never exceeds what the layer itself can supply:
    /// no point spreading 3 input channels over 64 lanes.
    #[test]
    fn spatial_factors_bounded_by_problem(indices in arb_indices(), layer in arb_layer()) {
        let space = DesignSpace::paper();
        let arch = space.describe(&space.config_from_indices(indices).expect("bounds"));
        if let Ok(s) = Scheduler::default().schedule(&arch, &layer) {
            prop_assert!(s.mapping.spatial_c <= layer.c.max(1));
            prop_assert!(s.mapping.spatial_k <= layer.k.max(1));
        }
    }

    /// EDP of the scheduled mapping is never above the unit mapping's and
    /// the workload aggregation is consistent with per-layer sums.
    #[test]
    fn workload_totals_are_consistent(indices in arb_indices()) {
        let space = DesignSpace::paper();
        let arch = space.describe(&space.config_from_indices(indices).expect("bounds"));
        let s = Scheduler::default();
        let layers = [
            LayerShape::new("a", 3, 3, 8, 8, 16, 16, 1, 1),
            LayerShape::fully_connected("b", 128, 64),
        ];
        if let Ok(w) = s.schedule_workload(&arch, &layers) {
            let lat: f64 = w.layers.iter().map(|l| l.latency_cycles).sum();
            let en: f64 = w.layers.iter().map(|l| l.energy_pj).sum();
            prop_assert!((w.total_latency_cycles - lat).abs() <= 1e-9 * lat);
            prop_assert!((w.total_energy_pj - en).abs() <= 1e-9 * en);
            for l in &w.layers {
                let unit = s.model().evaluate(&arch, &layers[0], &Mapping::unit());
                if let Ok(u) = unit {
                    // Any scheduled layer beats (or ties) a unit mapping of
                    // the matching layer; compare only the first for which
                    // we computed the unit cost.
                    if std::ptr::eq(l, &w.layers[0]) {
                        prop_assert!(l.edp() <= u.edp() * (1.0 + 1e-12));
                    }
                }
            }
        }
    }
}
