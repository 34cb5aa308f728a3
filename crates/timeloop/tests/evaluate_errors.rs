//! Pins every error `CostModel::evaluate` can return, field by field: one
//! case per `MappingError` variant and spatial or tile dimension, and one
//! per overflowing buffer level. Validation may take a faster path than
//! `Mapping::validate`, but the error it reports must stay exactly this.

use vaesa_accel::{ArchDescription, LayerShape};
use vaesa_timeloop::{CostModel, EvalError, Mapping, MappingError};

/// 3x3 conv, 28x28 output, 64 in- and out-channels, stride 1.
fn conv() -> LayerShape {
    LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1)
}

fn roomy_arch() -> ArchDescription {
    ArchDescription {
        pe_count: 16,
        macs_per_pe: 64,
        accum_buf_bytes: 1 << 20,
        weight_buf_bytes: 1 << 20,
        input_buf_bytes: 1 << 20,
        global_buf_bytes: 1 << 20,
    }
}

/// Residency needs: weight 3·3·8·2 = 144, input 9·9·8 = 648,
/// accum 7·7·2·4 = 392, global 16·16·16 + 14·14·8·4 = 10368 bytes.
fn tiled() -> Mapping {
    Mapping {
        spatial_k: 4,
        spatial_c: 4,
        p0: 7,
        q0: 7,
        c0: 2,
        k0: 2,
        p1: 2,
        q1: 2,
        c1: 2,
        k1: 1,
        ..Mapping::unit()
    }
}

fn eval_err(arch: &ArchDescription, mapping: &Mapping) -> EvalError {
    let err = CostModel::default()
        .evaluate(arch, &conv(), mapping)
        .expect_err("the mapping must be rejected");
    if let EvalError::Mapping(inner) = &err {
        assert_eq!(mapping.validate(arch, &conv()), Err(inner.clone()));
    }
    err
}

#[test]
fn tiled_mapping_fits_the_roomy_arch() {
    let eval = CostModel::default()
        .evaluate(&roomy_arch(), &conv(), &tiled())
        .expect("fits");
    let c = eval.counts;
    assert_eq!(
        (
            c.weight_buf_required,
            c.input_buf_required,
            c.accum_buf_required,
            c.global_buf_required
        ),
        (144, 648, 392, 10368)
    );
}

#[test]
fn zero_factor_names_the_first_zero_field() {
    let mut m = tiled();
    m.c1 = 0;
    m.k1 = 0;
    assert_eq!(
        eval_err(&roomy_arch(), &m),
        EvalError::Mapping(MappingError::ZeroFactor { field: "c1" })
    );
    let mut m = tiled();
    m.spatial_k = 0;
    assert_eq!(
        eval_err(&roomy_arch(), &m),
        EvalError::Mapping(MappingError::ZeroFactor { field: "spatial_k" })
    );
}

#[test]
fn spatial_overflow_reports_request_and_limit() {
    let mut m = tiled();
    m.spatial_k = 32;
    m.spatial_c = 128;
    assert_eq!(
        eval_err(&roomy_arch(), &m),
        EvalError::Mapping(MappingError::SpatialOverflow {
            field: "spatial_k",
            requested: 32,
            available: 16
        })
    );
    let mut m = tiled();
    m.spatial_c = 128;
    assert_eq!(
        eval_err(&roomy_arch(), &m),
        EvalError::Mapping(MappingError::SpatialOverflow {
            field: "spatial_c",
            requested: 128,
            available: 64
        })
    );
}

#[test]
fn tile_exceeding_its_dimension_reports_tile_and_dim() {
    // Limits: 2·next_power_of_two(28) = 64 for p and q, 128 for c and k.
    let cases = [
        ("p", Mapping { p1: 10, ..tiled() }, 70, 28),
        ("q", Mapping { q1: 10, ..tiled() }, 70, 28),
        ("c", Mapping { c1: 17, ..tiled() }, 136, 64),
        ("k", Mapping { k1: 17, ..tiled() }, 136, 64),
    ];
    for (field, m, tile, dim) in cases {
        assert_eq!(
            eval_err(&roomy_arch(), &m),
            EvalError::Mapping(MappingError::TileExceedsDim { field, tile, dim })
        );
    }
    // Exactly at the limit is accepted by validation.
    let at_limit = Mapping {
        p0: 1,
        p1: 64,
        ..tiled()
    };
    assert_eq!(at_limit.validate(&roomy_arch(), &conv()), Ok(()));
}

#[test]
fn each_overflowing_buffer_reports_required_and_available() {
    let shrink = |f: fn(&mut ArchDescription)| {
        let mut a = roomy_arch();
        f(&mut a);
        eval_err(&a, &tiled())
    };
    assert_eq!(
        shrink(|a| a.weight_buf_bytes = 143),
        EvalError::BufferOverflow {
            level: "weight buffer",
            required: 144,
            available: 143
        }
    );
    assert_eq!(
        shrink(|a| a.input_buf_bytes = 647),
        EvalError::BufferOverflow {
            level: "input buffer",
            required: 648,
            available: 647
        }
    );
    assert_eq!(
        shrink(|a| a.accum_buf_bytes = 391),
        EvalError::BufferOverflow {
            level: "accum buffer",
            required: 392,
            available: 391
        }
    );
    assert_eq!(
        shrink(|a| a.global_buf_bytes = 10367),
        EvalError::BufferOverflow {
            level: "global buffer",
            required: 10368,
            available: 10367
        }
    );
    // Levels are checked weight, input, accum, global: the first wins.
    assert_eq!(
        shrink(|a| {
            a.input_buf_bytes = 1;
            a.global_buf_bytes = 1;
        }),
        EvalError::BufferOverflow {
            level: "input buffer",
            required: 648,
            available: 1
        }
    );
}
