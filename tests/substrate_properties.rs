//! Property-based tests over the substrate crates: the design space, the
//! scheduler, and the cost model must uphold their invariants for *any*
//! design point, not just the handful exercised by unit tests.

use proptest::prelude::*;
use vaesa_repro::accel::{workloads, ArchDescription, DesignSpace, LayerShape};
use vaesa_repro::cosa::Scheduler;
use vaesa_repro::timeloop::{CostModel, Mapping};

fn arb_config_indices() -> impl Strategy<Value = [usize; 6]> {
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
        1u64..=7,
        1u64..=7,
        1u64..=64,
        1u64..=64,
        1u64..=512,
        1u64..=512,
        1u64..=2,
        1u64..=2,
    )
        .prop_map(|(r, s, p, q, c, k, sw, sh)| LayerShape::new("prop", r, s, p, q, c, k, sw, sh))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every index combination within Table II bounds is a valid config,
    /// and feature round-trips (raw and log) recover it exactly.
    #[test]
    fn design_space_roundtrips(indices in arb_config_indices()) {
        let space = DesignSpace::paper();
        let config = space.config_from_indices(indices).expect("in bounds");
        let raw = space.raw_features(&config);
        prop_assert_eq!(space.config_from_raw_nearest(&raw), config);
        let logs = space.log_features(&config);
        prop_assert_eq!(space.config_from_log_nearest(&logs), config);
        // Raw features are positive and within Table II maxima.
        prop_assert!(raw.iter().all(|&v| v > 0.0));
        prop_assert!(raw[0] <= 64.0 && raw[1] <= 4096.0);
    }

    /// The cost model never returns non-positive latency/energy for a valid
    /// mapping, and the unit mapping is valid whenever buffers can hold a
    /// single element footprint.
    #[test]
    fn cost_model_outputs_are_positive(indices in arb_config_indices(), layer in arb_layer()) {
        let space = DesignSpace::paper();
        let config = space.config_from_indices(indices).expect("in bounds");
        let arch = space.describe(&config);
        let model = CostModel::default();
        if let Ok(eval) = model.evaluate(&arch, &layer, &Mapping::unit()) {
            prop_assert!(eval.latency_cycles > 0.0);
            prop_assert!(eval.energy_pj > 0.0);
            prop_assert!(eval.edp() > 0.0);
            prop_assert!(eval.area_mm2 > 0.0);
            prop_assert!(eval.latency_cycles >= eval.compute_cycles);
            // MACs are mapping-independent and match the layer.
            prop_assert_eq!(eval.counts.macs, layer.macs() as f64);
        }
    }

    /// Whenever the scheduler produces a mapping, that mapping (a) passes
    /// the cost model's own validity checks and (b) never loses to the unit
    /// mapping — the scheduler is quality-improving by construction.
    #[test]
    fn scheduler_mappings_are_valid_and_no_worse(
        indices in arb_config_indices(),
        layer in arb_layer(),
    ) {
        let space = DesignSpace::paper();
        let config = space.config_from_indices(indices).expect("in bounds");
        let arch = space.describe(&config);
        let scheduler = Scheduler::default();
        match scheduler.schedule(&arch, &layer) {
            Ok(s) => {
                let re = scheduler.model().evaluate(&arch, &layer, &s.mapping)
                    .expect("scheduled mapping must be valid");
                prop_assert!((re.edp() - s.evaluation.edp()).abs() <= 1e-9 * re.edp());
                if let Ok(unit) = scheduler.model().evaluate(&arch, &layer, &Mapping::unit()) {
                    prop_assert!(s.evaluation.edp() <= unit.edp() * (1.0 + 1e-12));
                }
                // Spatial factors respect the hardware.
                prop_assert!(s.mapping.spatial_k <= arch.pe_count);
                prop_assert!(s.mapping.spatial_c <= arch.macs_per_pe);
            }
            Err(_) => {
                // If scheduling failed, the unit mapping must also be
                // infeasible (the scheduler starts from it).
                prop_assert!(scheduler
                    .model()
                    .evaluate(&arch, &layer, &Mapping::unit())
                    .is_err());
            }
        }
    }

    /// Workload EDP equals (sum of latencies) x (sum of energies).
    #[test]
    fn workload_edp_is_product_of_sums(indices in arb_config_indices()) {
        let space = DesignSpace::paper();
        let config = space.config_from_indices(indices).expect("in bounds");
        let arch = space.describe(&config);
        let scheduler = Scheduler::default();
        let layers = &workloads::alexnet()[..3];
        if let Ok(w) = scheduler.schedule_workload(&arch, layers) {
            let lat: f64 = w.layers.iter().map(|l| l.latency_cycles).sum();
            let en: f64 = w.layers.iter().map(|l| l.energy_pj).sum();
            prop_assert!((w.edp() - lat * en).abs() <= 1e-9 * w.edp());
        }
    }
}

#[test]
fn bigger_buffers_never_invalidate_a_schedulable_point() {
    // Monotonicity spot-check: growing every buffer keeps validity.
    let scheduler = Scheduler::default();
    let layer = workloads::resnet50()[6].clone();
    let small = ArchDescription {
        pe_count: 8,
        macs_per_pe: 128,
        accum_buf_bytes: 2048,
        weight_buf_bytes: 16384,
        input_buf_bytes: 8192,
        global_buf_bytes: 32768,
    };
    if scheduler.schedule(&small, &layer).is_ok() {
        let big = ArchDescription {
            accum_buf_bytes: small.accum_buf_bytes * 4,
            weight_buf_bytes: small.weight_buf_bytes * 4,
            input_buf_bytes: small.input_buf_bytes * 4,
            global_buf_bytes: small.global_buf_bytes * 4,
            ..small
        };
        assert!(scheduler.schedule(&big, &layer).is_ok());
    }
}
