use serde::{Deserialize, Serialize};
use std::fmt;
use vaesa_accel::{ArchDescription, LayerShape};

/// Which operand stays resident in the MAC-adjacent registers — the
/// dataflow choice the paper's motivation lists among the key hardware
/// knobs ("ranging from different dataflow choices to different buffer
/// sizes", §I).
///
/// The dataflow determines register-level reuse: which operand is fetched
/// once and reused across the innermost loops, and which must be re-read
/// from its buffer every MAC. Weight-stationary is Simba's (and this
/// reproduction's) default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Dataflow {
    /// Weights pinned in MAC registers, reused across the `p0 × q0` output
    /// tile (Simba, NVDLA).
    #[default]
    WeightStationary,
    /// Partial sums pinned in MAC registers across the whole reduction;
    /// weights re-fetched every MAC (ShiDianNao-style).
    OutputStationary,
    /// Input activations pinned, reused across `R·S·k0` filter taps and
    /// output channels (SCNN-style).
    InputStationary,
}

impl Dataflow {
    /// All three dataflows, for exhaustive search.
    pub const ALL: [Dataflow; 3] = [
        Dataflow::WeightStationary,
        Dataflow::OutputStationary,
        Dataflow::InputStationary,
    ];

    /// Short name for display.
    pub fn name(self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
            Dataflow::InputStationary => "IS",
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a layer's loop nest is tiled across the accelerator's memory
/// hierarchy and spatial resources.
///
/// The loop structure is Simba-like (the [`Dataflow`] field selects which
/// operand is register-resident innermost):
///
/// ```text
/// DRAM:   for k2, c2, q2, p2            (tile counts above the global buffer)
/// GB:     for k1, c1, q1, p1            (tile counts above the PE buffers)
/// space:  par k over spatial_k PEs, par c over spatial_c MAC lanes
/// PE:     for r, s, p0, q0, c0, k0      (innermost temporal tile)
/// ```
///
/// The mapping stores the *innermost tile sizes* (`p0, q0, c0, k0`) and the
/// *global-buffer tile multipliers* (`p1, q1, c1, k1`); the counts at each
/// outer level are derived by ceiling division against the layer dimensions.
/// Filter dimensions R and S are always kept whole at the PE level (kernels
/// are small), mirroring CoSA's fixed placement of R/S innermost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mapping {
    /// Register-level dataflow (defaults to weight-stationary).
    #[serde(default)]
    pub dataflow: Dataflow,
    /// Output channels processed in parallel across PEs.
    pub spatial_k: u64,
    /// Input channels processed in parallel across MAC lanes within a PE.
    pub spatial_c: u64,
    /// PE-level temporal tile of the output width P.
    pub p0: u64,
    /// PE-level temporal tile of the output height Q.
    pub q0: u64,
    /// PE-level temporal tile of the input channels C (per lane group).
    pub c0: u64,
    /// PE-level temporal tile of the output channels K (per PE).
    pub k0: u64,
    /// Global-buffer multiplier on the P tile.
    pub p1: u64,
    /// Global-buffer multiplier on the Q tile.
    pub q1: u64,
    /// Global-buffer multiplier on the C tile.
    pub c1: u64,
    /// Global-buffer multiplier on the K tile.
    pub k1: u64,
}

impl Mapping {
    /// The trivial mapping: everything tiled to 1, no parallelism.
    ///
    /// Always valid on any architecture (it needs only one weight, one
    /// input, and one partial sum resident per level), and maximally slow —
    /// useful as a fallback and in tests.
    pub fn unit() -> Self {
        Mapping {
            dataflow: Dataflow::WeightStationary,
            spatial_k: 1,
            spatial_c: 1,
            p0: 1,
            q0: 1,
            c0: 1,
            k0: 1,
            p1: 1,
            q1: 1,
            c1: 1,
            k1: 1,
        }
    }

    /// Input channels resident per PE (`c0 * spatial_c`).
    pub fn c_per_pe(&self) -> u64 {
        self.c0 * self.spatial_c
    }

    /// Global-buffer tile of P (clamped to the layer dimension by the
    /// evaluator).
    pub fn p_gb(&self) -> u64 {
        self.p0 * self.p1
    }

    /// Global-buffer tile of Q.
    pub fn q_gb(&self) -> u64 {
        self.q0 * self.q1
    }

    /// Global-buffer tile of C (including the spatial lanes).
    pub fn c_gb(&self) -> u64 {
        self.c0 * self.spatial_c * self.c1
    }

    /// Global-buffer tile of K (including the spatial PEs).
    pub fn k_gb(&self) -> u64 {
        self.k0 * self.spatial_k * self.k1
    }

    /// The ten tiling and spatial factors, in declaration order.
    #[inline]
    fn factors(&self) -> [u64; 10] {
        [
            self.spatial_k,
            self.spatial_c,
            self.p0,
            self.q0,
            self.c0,
            self.k0,
            self.p1,
            self.q1,
            self.c1,
            self.k1,
        ]
    }

    /// The global-buffer tiles of P, Q, C and K.
    #[inline]
    fn tiles(&self) -> [u64; 4] {
        [self.p_gb(), self.q_gb(), self.c_gb(), self.k_gb()]
    }

    /// The largest derived tile [`Mapping::validate`] accepts along each
    /// of `layer`'s P, Q, C and K.
    pub(crate) fn tile_limits(layer: &LayerShape) -> [u64; 4] {
        [layer.p, layer.q, layer.c, layer.k].map(Self::tile_limit)
    }

    fn tile_limit(dim: u64) -> u64 {
        dim.next_power_of_two().max(dim) * 2
    }

    /// Checks structural validity against an architecture and layer.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] naming the violated constraint:
    /// spatial factors must fit the hardware, every tile factor must be
    /// positive, and no tile may exceed its layer dimension.
    pub fn validate(&self, arch: &ArchDescription, layer: &LayerShape) -> Result<(), MappingError> {
        self.check_limits(arch, layer, &Self::tile_limits(layer))
    }

    /// [`Mapping::validate`] against `layer`'s precomputed
    /// [`Mapping::tile_limits`]: one all-pass test, with the error built
    /// only when it fails.
    #[inline]
    pub(crate) fn check_limits(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
        limits: &[u64; 4],
    ) -> Result<(), MappingError> {
        let nonzero = self.factors().iter().fold(true, |ok, &v| ok & (v != 0));
        let tiles = self.tiles();
        let fits = (0..4).fold(true, |ok, i| ok & (tiles[i] <= limits[i]));
        if nonzero & fits & (self.spatial_k <= arch.pe_count) & (self.spatial_c <= arch.macs_per_pe)
        {
            Ok(())
        } else {
            self.first_violation(arch, layer, limits)
        }
    }

    /// The first limit `self` violates, checked field by field: zero
    /// factors, then spatial overflow, then oversized tiles.
    #[cold]
    #[inline(never)]
    fn first_violation(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
        limits: &[u64; 4],
    ) -> Result<(), MappingError> {
        const FACTORS: [&str; 10] = [
            "spatial_k",
            "spatial_c",
            "p0",
            "q0",
            "c0",
            "k0",
            "p1",
            "q1",
            "c1",
            "k1",
        ];
        if let Some(i) = self.factors().iter().position(|&v| v == 0) {
            return Err(MappingError::ZeroFactor { field: FACTORS[i] });
        }
        if self.spatial_k > arch.pe_count {
            return Err(MappingError::SpatialOverflow {
                field: "spatial_k",
                requested: self.spatial_k,
                available: arch.pe_count,
            });
        }
        if self.spatial_c > arch.macs_per_pe {
            return Err(MappingError::SpatialOverflow {
                field: "spatial_c",
                requested: self.spatial_c,
                available: arch.macs_per_pe,
            });
        }
        const DIMS: [&str; 4] = ["p", "q", "c", "k"];
        let tiles = self.tiles();
        let dims = [layer.p, layer.q, layer.c, layer.k];
        // Tiles may overshoot a dimension slightly (ceil semantics), but
        // grossly oversized tiles indicate a mis-built mapping.
        match (0..4).find(|&i| tiles[i] > limits[i]) {
            Some(i) => Err(MappingError::TileExceedsDim {
                field: DIMS[i],
                tile: tiles[i],
                dim: dims[i],
            }),
            None => Ok(()),
        }
    }
}

impl Default for Mapping {
    fn default() -> Self {
        Mapping::unit()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} spatial(k={}, c={}) pe(p0={}, q0={}, c0={}, k0={}) gb(p1={}, q1={}, c1={}, k1={})",
            self.dataflow,
            self.spatial_k,
            self.spatial_c,
            self.p0,
            self.q0,
            self.c0,
            self.k0,
            self.p1,
            self.q1,
            self.c1,
            self.k1
        )
    }
}

/// Structural mapping errors detected before cost evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MappingError {
    /// A tiling or spatial factor was zero.
    ZeroFactor {
        /// The zero field's name.
        field: &'static str,
    },
    /// A spatial factor exceeds the available hardware parallelism.
    SpatialOverflow {
        /// The offending field.
        field: &'static str,
        /// Requested parallelism.
        requested: u64,
        /// Hardware limit.
        available: u64,
    },
    /// A derived tile wildly exceeds the layer dimension.
    TileExceedsDim {
        /// Dimension name (p/q/c/k).
        field: &'static str,
        /// Derived tile extent.
        tile: u64,
        /// Layer dimension.
        dim: u64,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::ZeroFactor { field } => write!(f, "mapping factor {field} is zero"),
            MappingError::SpatialOverflow {
                field,
                requested,
                available,
            } => write!(
                f,
                "spatial factor {field}={requested} exceeds hardware limit {available}"
            ),
            MappingError::TileExceedsDim { field, tile, dim } => {
                write!(
                    f,
                    "tile {field}={tile} grossly exceeds layer dimension {dim}"
                )
            }
        }
    }
}

impl std::error::Error for MappingError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchDescription {
        ArchDescription {
            pe_count: 16,
            macs_per_pe: 64,
            accum_buf_bytes: 4096,
            weight_buf_bytes: 65536,
            input_buf_bytes: 16384,
            global_buf_bytes: 131072,
        }
    }

    fn layer() -> LayerShape {
        LayerShape::new("t", 3, 3, 28, 28, 192, 48, 1, 1)
    }

    #[test]
    fn unit_mapping_is_always_valid() {
        assert!(Mapping::unit().validate(&arch(), &layer()).is_ok());
    }

    #[test]
    fn zero_factor_rejected() {
        let mut m = Mapping::unit();
        m.c0 = 0;
        assert!(matches!(
            m.validate(&arch(), &layer()),
            Err(MappingError::ZeroFactor { field: "c0" })
        ));
    }

    #[test]
    fn spatial_overflow_rejected() {
        let mut m = Mapping::unit();
        m.spatial_k = 32; // arch has 16 PEs
        let err = m.validate(&arch(), &layer()).unwrap_err();
        assert!(matches!(err, MappingError::SpatialOverflow { .. }));
        assert!(err.to_string().contains("spatial_k"));

        let mut m = Mapping::unit();
        m.spatial_c = 100; // arch has 64 lanes
        assert!(m.validate(&arch(), &layer()).is_err());
    }

    #[test]
    fn grossly_oversized_tile_rejected() {
        let mut m = Mapping::unit();
        m.p0 = 28;
        m.p1 = 28; // tile 784 vs dim 28
        assert!(matches!(
            m.validate(&arch(), &layer()),
            Err(MappingError::TileExceedsDim { field: "p", .. })
        ));
    }

    #[test]
    fn derived_tiles_multiply_factors() {
        let m = Mapping {
            dataflow: Dataflow::WeightStationary,
            spatial_k: 4,
            spatial_c: 8,
            p0: 7,
            q0: 7,
            c0: 2,
            k0: 3,
            p1: 2,
            q1: 2,
            c1: 6,
            k1: 2,
        };
        assert_eq!(m.p_gb(), 14);
        assert_eq!(m.q_gb(), 14);
        assert_eq!(m.c_gb(), 2 * 8 * 6);
        assert_eq!(m.k_gb(), 3 * 4 * 2);
        assert_eq!(m.c_per_pe(), 16);
    }

    #[test]
    fn display_mentions_all_factors() {
        let txt = Mapping::unit().to_string();
        assert!(txt.contains("spatial"));
        assert!(txt.contains("gb("));
        assert!(txt.contains("WS"));
    }

    #[test]
    fn dataflow_names_and_default() {
        assert_eq!(Dataflow::default(), Dataflow::WeightStationary);
        assert_eq!(Dataflow::ALL.len(), 3);
        assert_eq!(Dataflow::OutputStationary.to_string(), "OS");
    }
}
