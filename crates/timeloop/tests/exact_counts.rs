//! Exact-arithmetic validation of the data-movement analysis against
//! hand-computed counts on a tiny layer, plus energy-accounting identities.
//!
//! These tests pin the model's semantics: any change to the traffic
//! formulas must update these numbers consciously.

use vaesa_accel::{ArchDescription, LayerShape};
use vaesa_timeloop::{AccessCounts, CostModel, EnergyModel, Mapping};

/// 1x1 conv, 2x2 output, 2 in-channels, 2 out-channels, stride 1:
/// 16 MACs, 4 weights, 8 inputs, 8 outputs.
fn tiny_layer() -> LayerShape {
    LayerShape::new("tiny", 1, 1, 2, 2, 2, 2, 1, 1)
}

fn roomy_arch() -> ArchDescription {
    ArchDescription {
        pe_count: 4,
        macs_per_pe: 4,
        accum_buf_bytes: 1024,
        weight_buf_bytes: 1024,
        input_buf_bytes: 1024,
        global_buf_bytes: 4096,
    }
}

#[test]
fn unit_mapping_counts_match_hand_computation() {
    let counts = AccessCounts::analyze(&tiny_layer(), &Mapping::unit());

    assert_eq!(counts.macs, 16.0);
    // All tiles are 1, so every DRAM-level tile count is 2:
    // weights refetched per spatial output tile (2*2), inputs per K tile,
    // outputs written once plus 4-byte partial spills for n_c2 - 1 = 1 split.
    assert_eq!(counts.dram_weight_bytes, 4.0 * 4.0);
    assert_eq!(counts.dram_input_bytes, 8.0 * 2.0);
    assert_eq!(counts.dram_output_bytes, 8.0 + 8.0 * 4.0 * 2.0);
    // GB: input fills (= DRAM input) + reads per K pass above PE (2 passes);
    // outputs read-modify-written per C pass above PE (2 passes).
    assert_eq!(counts.gb_input_bytes, 16.0 + 8.0 * 2.0);
    assert_eq!(counts.gb_output_bytes, 8.0 * 4.0 * 2.0 * 2.0);
    // PE buffers: one read per MAC (no register reuse at tile 1) + fills.
    assert_eq!(counts.weight_buf_access_bytes, 16.0 + 16.0);
    assert_eq!(counts.input_buf_access_bytes, 16.0 + 16.0);
    // Accumulator: read-modify-write of a 4-byte partial per MAC.
    assert_eq!(counts.accum_buf_access_bytes, 2.0 * 16.0 * 4.0);
    // Residency: single elements everywhere; GB holds 1 input byte + one
    // 4-byte partial.
    assert_eq!(counts.weight_buf_required, 1);
    assert_eq!(counts.input_buf_required, 1);
    assert_eq!(counts.accum_buf_required, 4);
    assert_eq!(counts.global_buf_required, 5);
}

#[test]
fn spatial_mapping_counts_match_hand_computation() {
    let mapping = Mapping {
        spatial_k: 2,
        spatial_c: 2,
        ..Mapping::unit()
    };
    let counts = AccessCounts::analyze(&tiny_layer(), &mapping);

    // Full C and K are now covered spatially: no reduction splits, no K
    // refetch of inputs.
    assert_eq!(counts.dram_weight_bytes, 4.0 * 4.0); // still per-output-tile
    assert_eq!(counts.dram_input_bytes, 8.0);
    assert_eq!(counts.dram_output_bytes, 8.0); // single final write
    assert_eq!(counts.gb_input_bytes, 8.0 + 8.0);
    assert_eq!(counts.gb_output_bytes, 8.0 * 4.0 * 2.0);
    // Dot-product reduction across 2 lanes halves accumulator traffic.
    assert_eq!(counts.accum_buf_access_bytes, 2.0 * 8.0 * 4.0);
}

#[test]
fn latency_components_match_hand_computation() {
    let model = CostModel::default();
    let eval = model
        .evaluate(&roomy_arch(), &tiny_layer(), &Mapping::unit())
        .expect("valid");
    assert_eq!(eval.compute_cycles, 16.0);
    let dram_bytes = 16.0 + 16.0 + 72.0; // weights + inputs + (write & spills)
    assert_eq!(
        eval.dram_cycles,
        dram_bytes / EnergyModel::nm40().dram_bytes_per_cycle
    );
    assert_eq!(eval.latency_cycles, 16.0); // compute-bound at this size
}

#[test]
fn energy_uses_per_level_prices_exactly() {
    let model = CostModel::default();
    let arch = roomy_arch();
    let eval = model
        .evaluate(&arch, &tiny_layer(), &Mapping::unit())
        .expect("valid");
    let e = EnergyModel::nm40();
    let c = &eval.counts;

    assert_eq!(eval.energy.mac_pj, 16.0 * e.mac_pj);
    assert_eq!(eval.energy.dram_pj, c.dram_bytes() * e.dram_pj_per_byte);
    assert_eq!(
        eval.energy.global_buf_pj,
        c.gb_bytes() * e.sram_pj_per_byte(arch.global_buf_bytes)
    );
    assert_eq!(
        eval.energy.weight_buf_pj,
        c.wbuf_bytes() * e.sram_pj_per_byte(arch.weight_buf_bytes)
    );
    assert_eq!(
        eval.energy.input_buf_pj,
        c.ibuf_bytes() * e.sram_pj_per_byte(arch.input_buf_bytes)
    );
    assert_eq!(
        eval.energy.accum_buf_pj,
        c.abuf_bytes() * e.sram_pj_per_byte(arch.accum_buf_bytes)
    );
}

#[test]
fn strided_layer_inflates_input_footprint_only() {
    // Same output geometry, stride 2: the input halo grows, weights and
    // outputs do not.
    let unstrided = LayerShape::new("s1", 3, 3, 8, 8, 4, 4, 1, 1);
    let strided = LayerShape::new("s2", 3, 3, 8, 8, 4, 4, 2, 2);
    let m = Mapping {
        p0: 8,
        q0: 8,
        ..Mapping::unit()
    };
    let a = AccessCounts::analyze(&unstrided, &m);
    let b = AccessCounts::analyze(&strided, &m);
    assert_eq!(a.macs, b.macs);
    assert_eq!(a.weight_buf_required, b.weight_buf_required);
    assert_eq!(a.accum_buf_required, b.accum_buf_required);
    assert!(b.input_buf_required > a.input_buf_required);
    assert!(b.dram_input_bytes > a.dram_input_bytes);
}

#[test]
fn growing_spatial_c_reduces_accumulator_traffic_proportionally() {
    let layer = LayerShape::new("c", 3, 3, 8, 8, 64, 8, 1, 1);
    let traffic = |sc: u64| {
        let m = Mapping {
            spatial_c: sc,
            ..Mapping::unit()
        };
        AccessCounts::analyze(&layer, &m).accum_buf_access_bytes
    };
    assert_eq!(traffic(1) / traffic(4), 4.0);
    assert_eq!(traffic(4) / traffic(16), 4.0);
}

#[test]
fn bigger_gb_tiles_cut_weight_refetch_exactly() {
    let layer = LayerShape::new("w", 1, 1, 16, 16, 8, 8, 1, 1);
    let weight_bytes = |p1: u64, q1: u64| {
        let m = Mapping {
            p1,
            q1,
            ..Mapping::unit()
        };
        AccessCounts::analyze(&layer, &m).dram_weight_bytes
    };
    // Doubling the P tile halves the number of spatial passes: 16 -> 8.
    assert_eq!(weight_bytes(1, 1) / weight_bytes(2, 1), 2.0);
    assert_eq!(weight_bytes(1, 1) / weight_bytes(4, 4), 16.0);
}
