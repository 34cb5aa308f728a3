use crate::{Dataflow, EnergyModel, Mapping, MappingError, NocModel};
use serde::{Deserialize, Serialize};
use std::fmt;
use vaesa_accel::{ArchDescription, LayerShape};

/// Bytes per element of each data type in the modeled accelerator:
/// 8-bit weights and activations, 32-bit partial sums (Simba uses 8-bit
/// datapaths with wide accumulation).
const WEIGHT_BYTES: f64 = 1.0;
const INPUT_BYTES: f64 = 1.0;
const OUTPUT_BYTES: f64 = 1.0;
const PARTIAL_BYTES: f64 = 4.0;

/// The analytical cost model: given an architecture, a layer, and a mapping,
/// derives per-level access counts, latency, energy, and area.
///
/// The analysis follows Timeloop's methodology: tile sizes at each memory
/// level determine how often each tensor must be (re)fetched from the level
/// above, access counts are multiplied by capacity-dependent per-access
/// energies, and latency is the maximum of the compute-bound and
/// bandwidth-bound cycle counts.
///
/// # Examples
///
/// ```
/// use vaesa_timeloop::{CostModel, Mapping};
/// use vaesa_accel::{ArchDescription, LayerShape};
///
/// let model = CostModel::default();
/// let arch = ArchDescription {
///     pe_count: 16, macs_per_pe: 64,
///     accum_buf_bytes: 8192, weight_buf_bytes: 65536,
///     input_buf_bytes: 32768, global_buf_bytes: 262144,
/// };
/// let layer = LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1);
/// let eval = model.evaluate(&arch, &layer, &Mapping::unit())?;
/// assert!(eval.latency_cycles > 0.0 && eval.energy_pj > 0.0);
/// # Ok::<(), vaesa_timeloop::EvalError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CostModel {
    /// Technology constants (energies, bandwidths, areas).
    pub energy: EnergyModel,
    /// Optional mesh NoC model (Simba's PEs communicate over a chiplet
    /// mesh); `None` folds array-level movement into buffer accesses as the
    /// base model does.
    pub noc: Option<NocModel>,
}

impl CostModel {
    /// Creates a cost model with the given technology constants and no NoC.
    pub fn new(energy: EnergyModel) -> Self {
        CostModel { energy, noc: None }
    }

    /// Returns this model with an explicit NoC.
    pub fn with_noc(mut self, noc: NocModel) -> Self {
        self.noc = Some(noc);
        self
    }

    /// Evaluates a `(architecture, layer, mapping)` triple.
    ///
    /// To score many mappings of one `(arch, layer)` pair, call
    /// [`CostModel::prepare`] once and evaluate on the result instead.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Mapping`] for structurally invalid mappings and
    /// [`EvalError::BufferOverflow`] when a tile does not fit its buffer.
    pub fn evaluate(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
        mapping: &Mapping,
    ) -> Result<Evaluation, EvalError> {
        // Checking before preparing keeps a rejected mapping as cheap as
        // the check: preparing costs four square roots.
        mapping.validate(arch, layer).map_err(EvalError::Mapping)?;
        self.prepare(arch, layer).evaluate_valid(mapping)
    }

    /// Binds this model to one `(arch, layer)` pair, computing once what
    /// does not depend on the mapping: the SRAM per-byte energies, the
    /// area, the layer's MAC and tensor element counts, and the largest
    /// tile validation accepts per dimension.
    pub fn prepare<'a>(
        &'a self,
        arch: &'a ArchDescription,
        layer: &'a LayerShape,
    ) -> PreparedModel<'a> {
        let e = &self.energy;
        let area_mm2 = arch.pe_count as f64
            * (arch.macs_per_pe as f64 * e.mac_area_mm2()
                + e.sram_area_mm2(arch.weight_buf_bytes)
                + e.sram_area_mm2(arch.input_buf_bytes)
                + e.sram_area_mm2(arch.accum_buf_bytes))
            + e.sram_area_mm2(arch.global_buf_bytes);
        PreparedModel {
            model: self,
            arch,
            layer,
            sram_pj_per_byte: [
                arch.global_buf_bytes,
                arch.weight_buf_bytes,
                arch.input_buf_bytes,
                arch.accum_buf_bytes,
            ]
            .map(|bytes| e.sram_pj_per_byte(bytes)),
            area_mm2,
            elems: LayerElems::of(layer),
            tile_limits: Mapping::tile_limits(layer),
        }
    }
}

/// A [`CostModel`] bound to one `(arch, layer)` pair by
/// [`CostModel::prepare`], for scoring many mappings of that pair.
///
/// Its results are bit-identical to [`CostModel::evaluate`]'s, which is
/// this type's one evaluation body behind a fresh `prepare`.
#[derive(Debug, Clone, Copy)]
pub struct PreparedModel<'a> {
    model: &'a CostModel,
    arch: &'a ArchDescription,
    layer: &'a LayerShape,
    /// Per-byte energy of the global, weight, input and accumulation
    /// buffers, in that order.
    sram_pj_per_byte: [f64; 4],
    area_mm2: f64,
    elems: LayerElems,
    /// [`Mapping::tile_limits`] of the layer.
    tile_limits: [u64; 4],
}

impl PreparedModel<'_> {
    /// Evaluates `mapping` on the bound `(arch, layer)` pair.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CostModel::evaluate`].
    ///
    /// Inlined, like the rest of the evaluation path, so that a caller
    /// reading only some fields (the scheduler's descent reads only
    /// [`Evaluation::edp`]) compiles without the arithmetic of the others.
    #[inline(always)]
    pub fn evaluate(&self, mapping: &Mapping) -> Result<Evaluation, EvalError> {
        mapping
            .check_limits(self.arch, self.layer, &self.tile_limits)
            .map_err(EvalError::Mapping)?;
        self.evaluate_valid(mapping)
    }

    /// The one evaluation body, for a mapping that passed validation.
    /// Buffer residency is checked before any float count is formed, so a
    /// tile that does not fit costs only its integer arithmetic.
    #[inline(always)]
    fn evaluate_valid(&self, m: &Mapping) -> Result<Evaluation, EvalError> {
        let arch = self.arch;
        let tiles = Tiles::of(self.layer, m);
        tiles.check_buffers(arch)?;
        let counts = AccessCounts::analyze_elems(&self.elems, self.layer, m, &tiles);

        let e = &self.model.energy;
        let [gb_pj, wbuf_pj, ibuf_pj, abuf_pj] = self.sram_pj_per_byte;
        let mut energy = EnergyBreakdown {
            noc_pj: 0.0,
            mac_pj: counts.macs * e.mac_pj,
            dram_pj: counts.dram_bytes() * e.dram_pj_per_byte,
            global_buf_pj: counts.gb_bytes() * gb_pj,
            weight_buf_pj: counts.wbuf_bytes() * wbuf_pj,
            input_buf_pj: counts.ibuf_bytes() * ibuf_pj,
            accum_buf_pj: counts.abuf_bytes() * abuf_pj,
        };

        let compute_cycles = counts.macs / (m.spatial_k * m.spatial_c) as f64;
        let utilization =
            (m.spatial_k * m.spatial_c) as f64 / (arch.pe_count * arch.macs_per_pe) as f64;
        let dram_cycles = counts.dram_bytes() / e.dram_bytes_per_cycle;
        let gb_cycles = counts.gb_bytes() / e.gb_bytes_per_cycle;
        let (noc_pj, noc_cycles) = match &self.model.noc {
            None => (0.0, 0.0),
            Some(noc) => {
                let byte_hops = noc.byte_hops(
                    counts.gb_input_bytes,
                    counts.dram_weight_bytes,
                    counts.gb_output_bytes,
                    m.spatial_k,
                    arch.pe_count,
                );
                (
                    noc.energy_pj(byte_hops),
                    noc.cycles(byte_hops, arch.pe_count),
                )
            }
        };
        let latency_cycles = compute_cycles
            .max(dram_cycles)
            .max(gb_cycles)
            .max(noc_cycles);

        energy.noc_pj = noc_pj;

        Ok(Evaluation {
            latency_cycles,
            energy_pj: energy.total(),
            area_mm2: self.area_mm2,
            compute_cycles,
            dram_cycles,
            gb_cycles,
            utilization,
            counts,
            energy,
        })
    }
}

/// A layer's mapping-independent MAC and tensor element counts.
#[derive(Debug, Clone, Copy)]
struct LayerElems {
    macs: f64,
    weight: f64,
    input: f64,
    output: f64,
}

impl LayerElems {
    fn of(layer: &LayerShape) -> Self {
        let (r, s, p, q, c, k) = (layer.r, layer.s, layer.p, layer.q, layer.c, layer.k);
        LayerElems {
            macs: (r * s * p * q) as f64 * (c as f64) * (k as f64),
            weight: (r * s) as f64 * c as f64 * k as f64,
            input: layer.input_elems() as f64,
            output: layer.output_elems() as f64,
        }
    }
}

/// Per-level data-movement counts derived from the mapping.
///
/// All counts are in *bytes moved* unless the field name says otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Total multiply-accumulate operations.
    pub macs: f64,
    /// Weight bytes fetched from DRAM (refetched once per spatial output
    /// tile pass, since the on-chip buffers cannot in general hold all
    /// weights while the output space is traversed).
    pub dram_weight_bytes: f64,
    /// Input-activation bytes fetched from DRAM (refetched once per
    /// output-channel tile pass at the global-buffer level).
    pub dram_input_bytes: f64,
    /// Output bytes moved to/from DRAM: one final quantized write plus
    /// partial-sum spills when the reduction is split across global-buffer
    /// tiles.
    pub dram_output_bytes: f64,
    /// Global-buffer bytes accessed for input activations (fills + reads to
    /// the PE array).
    pub gb_input_bytes: f64,
    /// Global-buffer bytes accessed for output partial sums.
    pub gb_output_bytes: f64,
    /// Weight-buffer bytes accessed (fills + per-MAC register refills).
    pub weight_buf_access_bytes: f64,
    /// Input-buffer bytes accessed.
    pub input_buf_access_bytes: f64,
    /// Accumulation-buffer bytes accessed (read-modify-write per vector-MAC
    /// reduction).
    pub accum_buf_access_bytes: f64,
    /// Required residency per buffer, for capacity checks (bytes).
    pub weight_buf_required: u64,
    /// Required input-buffer residency (bytes).
    pub input_buf_required: u64,
    /// Required accumulation-buffer residency (bytes).
    pub accum_buf_required: u64,
    /// Required global-buffer residency (bytes).
    pub global_buf_required: u64,
}

/// `ceil(a / b)` for `b >= 1` (0 counts as 1). A power-of-two divisor,
/// as tiles almost always are, is a shift plus a remainder bit; otherwise
/// it divides in `u32` when both operands fit, which is exact and cheaper
/// than a 64-bit divide.
#[inline]
fn ceil_div(a: u64, b: u64) -> u64 {
    let b = b.max(1);
    if b.is_power_of_two() {
        return (a >> b.trailing_zeros()) + u64::from(a & (b - 1) != 0);
    }
    match (u32::try_from(a), u32::try_from(b)) {
        (Ok(a), Ok(b)) => u64::from(a.div_ceil(b)),
        _ => a.div_ceil(b),
    }
}

/// A mapping's tiles clamped to the layer dimensions (ceil semantics
/// allow factors to overshoot slightly), with the buffer residency they
/// need.
#[derive(Debug, Clone, Copy)]
struct Tiles {
    p0: u64,
    q0: u64,
    k0: u64,
    c_pe: u64,
    p_g: u64,
    q_g: u64,
    c_g: u64,
    k_g: u64,
    /// Residency of the weight, input, accumulation and global buffers,
    /// in that order (bytes).
    required: [u64; 4],
}

impl Tiles {
    #[inline(always)]
    fn of(layer: &LayerShape, m: &Mapping) -> Self {
        let (r, s) = (layer.r, layer.s);
        let p0 = m.p0.min(layer.p);
        let q0 = m.q0.min(layer.q);
        let k0 = m.k0.min(layer.k);
        let c_pe = m.c_per_pe().min(layer.c);
        let p_g = m.p_gb().min(layer.p);
        let q_g = m.q_gb().min(layer.q);
        let c_g = m.c_gb().min(layer.c);
        let k_g = m.k_gb().min(layer.k);

        let w0 = (p0 - 1) * layer.stride_w + r;
        let h0 = (q0 - 1) * layer.stride_h + s;
        let w_g = (p_g - 1) * layer.stride_w + r;
        let h_g = (q_g - 1) * layer.stride_h + s;
        Tiles {
            p0,
            q0,
            k0,
            c_pe,
            p_g,
            q_g,
            c_g,
            k_g,
            required: [
                r * s * c_pe * k0,
                w0 * h0 * c_pe,
                p0 * q0 * k0 * PARTIAL_BYTES as u64,
                w_g * h_g * c_g + p_g * q_g * k_g * PARTIAL_BYTES as u64,
            ],
        }
    }

    /// The first buffer, in weight, input, accumulation, global order,
    /// whose residency exceeds its capacity.
    #[inline]
    fn check_buffers(&self, arch: &ArchDescription) -> Result<(), EvalError> {
        const LEVELS: [&str; 4] = [
            "weight buffer",
            "input buffer",
            "accum buffer",
            "global buffer",
        ];
        let available = [
            arch.weight_buf_bytes,
            arch.input_buf_bytes,
            arch.accum_buf_bytes,
            arch.global_buf_bytes,
        ];
        match (0..4).find(|&i| self.required[i] > available[i]) {
            Some(i) => Err(EvalError::BufferOverflow {
                level: LEVELS[i],
                required: self.required[i],
                available: available[i],
            }),
            None => Ok(()),
        }
    }
}

impl AccessCounts {
    /// Runs the tile-reuse analysis for a validated mapping. Capacity is
    /// not checked here: [`CostModel::evaluate`] checks it against the
    /// `*_required` fields.
    pub fn analyze(layer: &LayerShape, m: &Mapping) -> Self {
        Self::analyze_elems(&LayerElems::of(layer), layer, m, &Tiles::of(layer, m))
    }

    #[inline(always)]
    fn analyze_elems(elems: &LayerElems, layer: &LayerShape, m: &Mapping, tiles: &Tiles) -> Self {
        let (r, s) = (layer.r, layer.s);
        let (p, q, c, k) = (layer.p, layer.q, layer.c, layer.k);
        let Tiles {
            p0,
            q0,
            k0,
            c_pe,
            p_g,
            q_g,
            c_g,
            k_g,
            required:
                [weight_buf_required, input_buf_required, accum_buf_required, global_buf_required],
        } = *tiles;

        // Tile counts at the DRAM level (iterations over global-buffer tiles).
        let n_p2 = ceil_div(p, p_g);
        let n_q2 = ceil_div(q, q_g);
        let n_c2 = ceil_div(c, c_g);
        let n_k2 = ceil_div(k, k_g);

        // Tile counts above the PE level (global-buffer + DRAM iterations).
        let n_c_pe = ceil_div(c, c_pe);
        let n_k_pe = ceil_div(k, k0 * m.spatial_k);

        let LayerElems {
            macs,
            weight: weight_elems,
            input: input_elems,
            output: output_elems,
        } = *elems;

        // DRAM traffic.
        let dram_weight_bytes = weight_elems * WEIGHT_BYTES * (n_p2 * n_q2) as f64;
        let dram_input_bytes = input_elems * INPUT_BYTES * n_k2 as f64;
        let dram_output_bytes =
            output_elems * OUTPUT_BYTES + output_elems * PARTIAL_BYTES * 2.0 * (n_c2 - 1) as f64;

        // Global-buffer traffic. Inputs are written once per DRAM fetch and
        // read once per K pass above the PE level; outputs are read-modify-
        // written once per C pass above the PE level. Weights bypass the
        // global buffer and stream directly into the PE weight buffers
        // (Simba's weight path).
        let gb_input_bytes = dram_input_bytes + input_elems * INPUT_BYTES * n_k_pe as f64;
        let gb_output_bytes = output_elems * PARTIAL_BYTES * 2.0 * n_c_pe as f64;

        // PE-buffer traffic. Register-level reuse depends on the dataflow:
        // the stationary operand is fetched once per register tile while the
        // others stream from their buffers.
        //
        // - WS (Simba): a weight loaded into a MAC register is reused across
        //   the inner p0*q0 output positions; inputs are re-read per k0
        //   output-channel group; each vector-MAC cycle read-modify-writes a
        //   4-byte partial shared by spatial_c lanes.
        // - OS: partial sums stay in registers for the whole per-tile
        //   reduction (accumulator traffic collapses to one spill/restore
        //   per outer C pass), but weights lose their register reuse.
        // - IS: an input value is pinned and reused across the R*S filter
        //   taps and k0 output channels it feeds; weights stream per MAC.
        let (wbuf_reads, ibuf_reads, accum_buf_access_bytes) = match m.dataflow {
            Dataflow::WeightStationary => (
                macs / (p0 * q0) as f64,
                macs / k0 as f64,
                2.0 * (macs / m.spatial_c as f64) * PARTIAL_BYTES,
            ),
            Dataflow::OutputStationary => (
                macs,
                macs / k0 as f64,
                2.0 * output_elems * n_c_pe as f64 * PARTIAL_BYTES,
            ),
            Dataflow::InputStationary => (
                macs,
                macs / (r * s * k0) as f64,
                2.0 * (macs / m.spatial_c as f64) * PARTIAL_BYTES,
            ),
        };
        let wbuf_fills = dram_weight_bytes; // weights stream through the buffer
        let weight_buf_access_bytes = wbuf_reads * WEIGHT_BYTES + wbuf_fills;

        let ibuf_fills = input_elems * INPUT_BYTES * n_k_pe as f64;
        let input_buf_access_bytes = ibuf_reads * INPUT_BYTES + ibuf_fills;

        AccessCounts {
            macs,
            dram_weight_bytes,
            dram_input_bytes,
            dram_output_bytes,
            gb_input_bytes,
            gb_output_bytes,
            weight_buf_access_bytes,
            input_buf_access_bytes,
            accum_buf_access_bytes,
            weight_buf_required,
            input_buf_required,
            accum_buf_required,
            global_buf_required,
        }
    }

    /// Total DRAM bytes moved.
    pub fn dram_bytes(&self) -> f64 {
        self.dram_weight_bytes + self.dram_input_bytes + self.dram_output_bytes
    }

    /// Total global-buffer bytes accessed.
    pub fn gb_bytes(&self) -> f64 {
        self.gb_input_bytes + self.gb_output_bytes
    }

    /// Total weight-buffer bytes accessed.
    pub fn wbuf_bytes(&self) -> f64 {
        self.weight_buf_access_bytes
    }

    /// Total input-buffer bytes accessed.
    pub fn ibuf_bytes(&self) -> f64 {
        self.input_buf_access_bytes
    }

    /// Total accumulation-buffer bytes accessed.
    pub fn abuf_bytes(&self) -> f64 {
        self.accum_buf_access_bytes
    }
}

/// Per-component energy in pJ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// MAC datapath energy.
    pub mac_pj: f64,
    /// DRAM access energy.
    pub dram_pj: f64,
    /// Global-buffer access energy.
    pub global_buf_pj: f64,
    /// Weight-buffer access energy.
    pub weight_buf_pj: f64,
    /// Input-buffer access energy.
    pub input_buf_pj: f64,
    /// Accumulation-buffer access energy.
    pub accum_buf_pj: f64,
    /// Mesh NoC energy (0 when the model has no NoC).
    pub noc_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total(&self) -> f64 {
        self.mac_pj
            + self.dram_pj
            + self.global_buf_pj
            + self.weight_buf_pj
            + self.input_buf_pj
            + self.accum_buf_pj
            + self.noc_pj
    }
}

/// The result of evaluating `(architecture, layer, mapping)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Execution latency in cycles (max of compute- and bandwidth-bound).
    pub latency_cycles: f64,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Compute-bound cycle count.
    pub compute_cycles: f64,
    /// DRAM-bandwidth-bound cycle count.
    pub dram_cycles: f64,
    /// Global-buffer-bandwidth-bound cycle count.
    pub gb_cycles: f64,
    /// Fraction of the machine's MAC lanes used by the spatial mapping
    /// (`spatial_k * spatial_c / (pe_count * macs_per_pe)`).
    pub utilization: f64,
    /// Data-movement detail.
    pub counts: AccessCounts,
    /// Energy detail.
    pub energy: EnergyBreakdown,
}

impl Evaluation {
    /// Energy-delay product in cycles·pJ — the paper's optimization target.
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_pj
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency={:.3e} cyc, energy={:.3e} pJ, edp={:.3e}, area={:.2} mm2",
            self.latency_cycles,
            self.energy_pj,
            self.edp(),
            self.area_mm2
        )
    }
}

/// Errors produced by [`CostModel::evaluate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalError {
    /// The mapping is structurally invalid.
    Mapping(MappingError),
    /// A tile exceeds its buffer's capacity.
    BufferOverflow {
        /// The overflowing buffer.
        level: &'static str,
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Mapping(e) => write!(f, "invalid mapping: {e}"),
            EvalError::BufferOverflow {
                level,
                required,
                available,
            } => write!(
                f,
                "{level} overflow: tile needs {required} bytes, only {available} available"
            ),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Mapping(e) => Some(e),
            EvalError::BufferOverflow { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchDescription {
        ArchDescription {
            pe_count: 16,
            macs_per_pe: 64,
            accum_buf_bytes: 16 * 1024,
            weight_buf_bytes: 256 * 1024,
            input_buf_bytes: 64 * 1024,
            global_buf_bytes: 256 * 1024,
        }
    }

    fn layer() -> LayerShape {
        LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1)
    }

    fn good_mapping() -> Mapping {
        Mapping {
            dataflow: Dataflow::WeightStationary,
            spatial_k: 16,
            spatial_c: 16,
            p0: 7,
            q0: 7,
            c0: 2,
            k0: 4,
            p1: 2,
            q1: 2,
            c1: 2,
            k1: 1,
        }
    }

    #[test]
    fn ceil_div_matches_div_ceil() {
        let big = u64::from(u32::MAX);
        let dividends = [
            0,
            1,
            2,
            3,
            7,
            8,
            9,
            63,
            64,
            65,
            1000,
            big - 1,
            big,
            big + 1,
            big + 2,
            1 << 33,
            (1 << 40) + 5,
            u64::MAX - 1,
            u64::MAX,
        ];
        // Every power of two, its neighbours, and a few other divisors
        // below and above `u32::MAX`; 0 counts as 1.
        let divisors = (0..64)
            .flat_map(|e| {
                let b = 1u64 << e;
                [b - 1, b, b + 1]
            })
            .chain([0, 3, 5, 6, 7, 12, 96, 100, 1000, big, u64::MAX]);
        for b in divisors {
            for a in dividends {
                assert_eq!(ceil_div(a, b), a.div_ceil(b.max(1)), "ceil_div({a}, {b})");
            }
        }
    }

    #[test]
    fn unit_mapping_evaluates() {
        let eval = CostModel::default()
            .evaluate(&arch(), &layer(), &Mapping::unit())
            .unwrap();
        assert!(eval.latency_cycles >= eval.counts.macs); // no parallelism
        assert!(eval.energy_pj > 0.0);
        assert!(eval.edp() > 0.0);
        assert!(eval.area_mm2 > 0.0);
    }

    #[test]
    fn parallel_mapping_is_faster_and_cheaper_than_unit() {
        let model = CostModel::default();
        let slow = model.evaluate(&arch(), &layer(), &Mapping::unit()).unwrap();
        let fast = model.evaluate(&arch(), &layer(), &good_mapping()).unwrap();
        assert!(fast.latency_cycles < slow.latency_cycles / 10.0);
        assert!(fast.energy_pj < slow.energy_pj);
    }

    #[test]
    fn mac_count_is_mapping_independent() {
        let model = CostModel::default();
        let a = model.evaluate(&arch(), &layer(), &Mapping::unit()).unwrap();
        let b = model.evaluate(&arch(), &layer(), &good_mapping()).unwrap();
        assert_eq!(a.counts.macs, b.counts.macs);
        assert_eq!(a.counts.macs, layer().macs() as f64);
    }

    #[test]
    fn compute_cycles_match_parallelism() {
        let model = CostModel::default();
        let m = good_mapping();
        let eval = model.evaluate(&arch(), &layer(), &m).unwrap();
        let expected = layer().macs() as f64 / (m.spatial_k * m.spatial_c) as f64;
        assert!((eval.compute_cycles - expected).abs() < 1e-6);
    }

    #[test]
    fn dram_weight_traffic_shrinks_with_bigger_output_tiles() {
        let model = CostModel::default();
        let mut small = good_mapping();
        small.p1 = 1;
        small.q1 = 1; // smaller GB tile -> more spatial passes
        let mut large = good_mapping();
        large.p1 = 4;
        large.q1 = 4;
        let es = model.evaluate(&arch(), &layer(), &small).unwrap();
        let el = model.evaluate(&arch(), &layer(), &large).unwrap();
        assert!(el.counts.dram_weight_bytes < es.counts.dram_weight_bytes);
    }

    #[test]
    fn splitting_reduction_spills_partials_to_dram() {
        let model = CostModel::default();
        // c_gb smaller than C forces partial-sum DRAM spills.
        let mut m = Mapping::unit();
        m.c0 = 8; // c_gb = 8 < 64 => n_c2 = 8
        let eval = model.evaluate(&arch(), &layer(), &m).unwrap();
        let out_bytes = layer().output_elems() as f64;
        assert!(
            eval.counts.dram_output_bytes > out_bytes,
            "no spill modeled"
        );

        // Full-reduction mapping writes outputs exactly once.
        let mut full = Mapping::unit();
        full.c0 = 64;
        let ev2 = model.evaluate(&arch(), &layer(), &full);
        if let Ok(e) = ev2 {
            assert_eq!(e.counts.dram_output_bytes, out_bytes);
        }
    }

    #[test]
    fn buffer_overflow_reported_per_level() {
        let model = CostModel::default();
        let tiny = ArchDescription {
            pe_count: 16,
            macs_per_pe: 64,
            accum_buf_bytes: 4, // can hold one partial sum only
            weight_buf_bytes: 256 * 1024,
            input_buf_bytes: 64 * 1024,
            global_buf_bytes: 256 * 1024,
        };
        let mut m = Mapping::unit();
        m.p0 = 7;
        m.q0 = 7; // accum needs 7*7*4 bytes
        let err = model.evaluate(&tiny, &layer(), &m).unwrap_err();
        assert!(matches!(
            err,
            EvalError::BufferOverflow {
                level: "accum buffer",
                ..
            }
        ));
        assert!(err.to_string().contains("accum"));
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let eval = CostModel::default()
            .evaluate(&arch(), &layer(), &good_mapping())
            .unwrap();
        assert!((eval.energy.total() - eval.energy_pj).abs() < 1e-9);
    }

    #[test]
    fn fc_layer_evaluates() {
        let fc = LayerShape::fully_connected("fc", 4096, 1000);
        let m = Mapping {
            spatial_k: 16,
            spatial_c: 64,
            c0: 4,
            k0: 8,
            c1: 4,
            k1: 2,
            ..Mapping::unit()
        };
        let eval = CostModel::default().evaluate(&arch(), &fc, &m).unwrap();
        assert_eq!(eval.counts.macs, (4096 * 1000) as f64);
        // FC layers are memory-bound: DRAM cycles should dominate compute.
        assert!(eval.dram_cycles > eval.compute_cycles);
    }

    #[test]
    fn utilization_reflects_spatial_mapping() {
        let model = CostModel::default();
        let unit = model.evaluate(&arch(), &layer(), &Mapping::unit()).unwrap();
        assert!((unit.utilization - 1.0 / (16.0 * 64.0)).abs() < 1e-12);
        let full = model.evaluate(&arch(), &layer(), &good_mapping()).unwrap();
        assert!((full.utilization - (16.0 * 16.0) / (16.0 * 64.0)).abs() < 1e-12);
        assert!(full.utilization <= 1.0);
    }

    #[test]
    fn latency_is_max_of_bounds() {
        let eval = CostModel::default()
            .evaluate(&arch(), &layer(), &good_mapping())
            .unwrap();
        let expected = eval
            .compute_cycles
            .max(eval.dram_cycles)
            .max(eval.gb_cycles);
        assert_eq!(eval.latency_cycles, expected);
    }

    #[test]
    fn dataflows_trade_register_reuse_as_modeled() {
        let model = CostModel::default();
        let base = good_mapping();
        let eval_with = |df: Dataflow| {
            let m = Mapping {
                dataflow: df,
                ..base
            };
            model.evaluate(&arch(), &layer(), &m).unwrap()
        };
        let ws = eval_with(Dataflow::WeightStationary);
        let os = eval_with(Dataflow::OutputStationary);
        let is = eval_with(Dataflow::InputStationary);
        // Structural (tile-driven) traffic is dataflow-independent.
        assert_eq!(ws.counts.dram_weight_bytes, os.counts.dram_weight_bytes);
        assert_eq!(ws.counts.gb_input_bytes, is.counts.gb_input_bytes);
        // OS collapses accumulator traffic but loses weight-register reuse.
        assert!(os.counts.accum_buf_access_bytes < ws.counts.accum_buf_access_bytes);
        assert!(os.counts.weight_buf_access_bytes > ws.counts.weight_buf_access_bytes);
        // IS reads inputs least often.
        assert!(is.counts.input_buf_access_bytes < ws.counts.input_buf_access_bytes);
    }

    #[test]
    fn noc_adds_energy_and_can_bound_latency() {
        let base = CostModel::default();
        let with_noc = CostModel::default().with_noc(NocModel::nm40());
        let m = good_mapping();
        let e0 = base.evaluate(&arch(), &layer(), &m).unwrap();
        let e1 = with_noc.evaluate(&arch(), &layer(), &m).unwrap();
        assert_eq!(e0.energy.noc_pj, 0.0);
        assert!(e1.energy.noc_pj > 0.0);
        assert!(e1.energy_pj > e0.energy_pj);
        assert!(e1.latency_cycles >= e0.latency_cycles);
        // The non-NoC components are identical.
        assert_eq!(e0.energy.dram_pj, e1.energy.dram_pj);
        assert_eq!(e0.counts, e1.counts);
    }

    #[test]
    fn display_shows_key_numbers() {
        let eval = CostModel::default()
            .evaluate(&arch(), &layer(), &good_mapping())
            .unwrap();
        let txt = eval.to_string();
        assert!(txt.contains("latency"));
        assert!(txt.contains("edp"));
    }
}
