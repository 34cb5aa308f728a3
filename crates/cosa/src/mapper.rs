//! Random sampling of the mapping space.
//!
//! CoSA's headline claim (and the reason the paper uses it) is that a
//! constrained-optimization scheduler finds a good mapping *in one shot*,
//! where Timeloop's mapper randomly samples the mapping space and keeps the
//! best of thousands of candidates. [`random_mapping`] draws one such
//! sample; the `ablation_scheduler` experiment compares the one-shot
//! scheduler against the best of many of them.

use rand::Rng;
use rand::RngCore;
use vaesa_accel::{ArchDescription, LayerShape};
use vaesa_timeloop::Mapping;

/// Draws a random mapping with power-of-two factors within the hardware and
/// layer bounds.
pub fn random_mapping(arch: &ArchDescription, layer: &LayerShape, rng: &mut impl Rng) -> Mapping {
    let pow2_upto = |cap: u64, rng: &mut dyn RngCore| -> u64 {
        let max_exp = 63 - cap.max(1).leading_zeros();
        1u64 << (rng.next_u32() % (max_exp + 1))
    };
    Mapping {
        dataflow: vaesa_timeloop::Dataflow::WeightStationary,
        spatial_k: pow2_upto(arch.pe_count.min(layer.k), rng),
        spatial_c: pow2_upto(arch.macs_per_pe.min(layer.c), rng),
        p0: pow2_upto(layer.p, rng),
        q0: pow2_upto(layer.q, rng),
        c0: pow2_upto(layer.c, rng),
        k0: pow2_upto(layer.k, rng),
        p1: pow2_upto(layer.p, rng),
        q1: pow2_upto(layer.q, rng),
        c1: pow2_upto(layer.c, rng),
        k1: pow2_upto(layer.k, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_mappings_are_in_bounds() {
        let arch = ArchDescription {
            pe_count: 16,
            macs_per_pe: 64,
            accum_buf_bytes: 16 * 1024,
            weight_buf_bytes: 256 * 1024,
            input_buf_bytes: 64 * 1024,
            global_buf_bytes: 256 * 1024,
        };
        let conv = LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..100 {
            let m = random_mapping(&arch, &conv, &mut rng);
            assert!(m.spatial_k <= 16);
            assert!(m.spatial_c <= 64);
            assert!(m.p0 <= 28 && m.q0 <= 28);
            assert!(m.c0 <= 64 && m.k0 <= 64);
        }
    }
}
