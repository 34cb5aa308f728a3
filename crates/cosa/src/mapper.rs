//! Iterative mapping search, in the spirit of Timeloop's native mapper.
//!
//! CoSA's headline claim (and the reason the paper uses it) is that a
//! constrained-optimization scheduler finds a good mapping *in one shot*,
//! where Timeloop's mapper randomly samples the mapping space and keeps the
//! best of thousands of candidates. This module provides that iterative
//! baseline: random mapping sampling plus an optional hill-climbing
//! refinement, under an explicit evaluation budget.
//!
//! Used by the `ablation_scheduler` experiment to quantify how much mapping
//! quality the one-shot greedy scheduler actually delivers per evaluation.

use crate::{no_valid_mapping, ScheduleError, Scheduled};
use rand::Rng;
use rand::RngCore;
use vaesa_accel::{ArchDescription, LayerShape};
use vaesa_timeloop::{CostModel, Mapping};

/// Configuration for [`IterativeMapper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapperConfig {
    /// Total cost-model evaluations allowed per `(arch, layer)` pair.
    pub budget: usize,
    /// Fraction of the budget spent on pure random sampling before
    /// hill-climbing starts (numerator of `random_fraction_percent / 100`).
    pub random_fraction_percent: u8,
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            budget: 512,
            random_fraction_percent: 50,
        }
    }
}

/// A Timeloop-style iterative mapper: random sampling of the mapping space
/// followed by stochastic hill climbing around the incumbent.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use vaesa_accel::{ArchDescription, LayerShape};
/// use vaesa_cosa::{IterativeMapper, MapperConfig};
///
/// let arch = ArchDescription {
///     pe_count: 16, macs_per_pe: 64,
///     accum_buf_bytes: 8192, weight_buf_bytes: 65536,
///     input_buf_bytes: 32768, global_buf_bytes: 262144,
/// };
/// let layer = LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1);
/// let mapper = IterativeMapper::default();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let found = mapper.search(&arch, &layer, &mut rng)?;
/// assert!(found.evaluation.edp() > 0.0);
/// # Ok::<(), vaesa_cosa::ScheduleError>(())
/// ```
#[derive(Debug, Default)]
pub struct IterativeMapper {
    model: CostModel,
    config: MapperConfig,
}

impl IterativeMapper {
    /// Creates a mapper over the given cost model and budget.
    pub fn new(model: CostModel, config: MapperConfig) -> Self {
        assert!(config.budget >= 1, "mapper budget must be positive");
        assert!(
            config.random_fraction_percent <= 100,
            "random fraction is a percentage"
        );
        IterativeMapper { model, config }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Searches the mapping space for one `(arch, layer)` pair.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoValidMapping`] when no sampled mapping
    /// (nor the unit fallback) satisfies the buffer constraints.
    pub fn search(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
        rng: &mut dyn RngCore,
    ) -> Result<Scheduled, ScheduleError> {
        let model = self.model.prepare(arch, layer);
        let mut best: Option<Scheduled> = None;
        let consider = |mapping: Mapping, best: &mut Option<Scheduled>| {
            if let Ok(evaluation) = model.evaluate(&mapping) {
                if best
                    .as_ref()
                    .is_none_or(|b| evaluation.edp() < b.evaluation.edp())
                {
                    *best = Some(Scheduled {
                        mapping,
                        evaluation,
                    });
                }
            }
        };

        // The unit mapping is the always-feasible anchor (when anything is).
        consider(Mapping::unit(), &mut best);

        let mut rng = rng;
        let random_budget = self.config.budget * self.config.random_fraction_percent as usize / 100;
        for _ in 0..random_budget {
            consider(random_mapping(arch, layer, &mut rng), &mut best);
        }

        // Hill climbing: mutate one factor of the incumbent at a time.
        let climb_budget = self.config.budget.saturating_sub(random_budget);
        for _ in 0..climb_budget {
            let Some(incumbent) = best.as_ref() else {
                break;
            };
            let candidate = mutate_mapping(&incumbent.mapping, arch, layer, &mut rng);
            consider(candidate, &mut best);
        }

        best.ok_or_else(|| no_valid_mapping(layer))
    }
}

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

/// Doubles or halves one randomly chosen factor of `mapping`, staying
/// within bounds.
fn mutate_mapping(
    mapping: &Mapping,
    arch: &ArchDescription,
    layer: &LayerShape,
    rng: &mut impl Rng,
) -> Mapping {
    let mut m = *mapping;
    let which = rng.gen_range(0..10u8);
    let up = rng.gen_bool(0.5);
    let (value, cap): (&mut u64, u64) = match which {
        0 => (&mut m.spatial_k, arch.pe_count.min(layer.k)),
        1 => (&mut m.spatial_c, arch.macs_per_pe.min(layer.c)),
        2 => (&mut m.p0, layer.p),
        3 => (&mut m.q0, layer.q),
        4 => (&mut m.c0, layer.c),
        5 => (&mut m.k0, layer.k),
        6 => (&mut m.p1, layer.p),
        7 => (&mut m.q1, layer.q),
        8 => (&mut m.c1, layer.c),
        _ => (&mut m.k1, layer.k),
    };
    if up {
        *value = (*value * 2).min(cap.max(1));
    } else {
        *value = (*value / 2).max(1);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    fn conv() -> LayerShape {
        LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1)
    }

    #[test]
    fn finds_a_valid_mapping_far_better_than_unit() {
        let mapper = IterativeMapper::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let found = mapper.search(&arch(), &conv(), &mut rng).unwrap();
        let unit = mapper
            .model()
            .evaluate(&arch(), &conv(), &Mapping::unit())
            .unwrap();
        assert!(found.evaluation.edp() < unit.edp() / 10.0);
    }

    #[test]
    fn one_shot_scheduler_matches_or_beats_a_512_eval_mapper() {
        // The CoSA thesis: one-shot optimization rivals budget-limited
        // iterative search. Our greedy scheduler uses <~400 evaluations
        // internally; give the mapper 512 and compare.
        let scheduler = Scheduler::default();
        let mapper = IterativeMapper::default();
        let mut wins = 0;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for trial in 0..5 {
            let mut a = arch();
            a.macs_per_pe = 64 << trial.min(3); // vary the machine a little
            let greedy = scheduler.schedule(&a, &conv()).unwrap();
            let iterative = mapper.search(&a, &conv(), &mut rng).unwrap();
            if greedy.evaluation.edp() <= iterative.evaluation.edp() * 1.05 {
                wins += 1;
            }
        }
        assert!(
            wins >= 4,
            "one-shot matched the mapper only {wins}/5 trials"
        );
    }

    #[test]
    fn more_budget_never_hurts() {
        let small = IterativeMapper::new(
            CostModel::default(),
            MapperConfig {
                budget: 16,
                random_fraction_percent: 50,
            },
        );
        let large = IterativeMapper::new(
            CostModel::default(),
            MapperConfig {
                budget: 1024,
                random_fraction_percent: 50,
            },
        );
        // Identical RNG stream prefix isn't guaranteed, so compare across
        // seeds statistically.
        let mut large_wins = 0;
        for seed in 0..5 {
            let s = small
                .search(&arch(), &conv(), &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
            let l = large
                .search(&arch(), &conv(), &mut ChaCha8Rng::seed_from_u64(seed))
                .unwrap();
            if l.evaluation.edp() <= s.evaluation.edp() {
                large_wins += 1;
            }
        }
        assert!(large_wins >= 4, "bigger budget won only {large_wins}/5");
    }

    #[test]
    fn impossible_arch_is_rejected() {
        let mut tiny = arch();
        tiny.global_buf_bytes = 4;
        let alex1 = LayerShape::new("conv1", 11, 11, 55, 55, 3, 64, 4, 4);
        let mapper = IterativeMapper::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(mapper.search(&tiny, &alex1, &mut rng).is_err());
    }

    #[test]
    fn random_mappings_are_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..100 {
            let m = random_mapping(&arch(), &conv(), &mut rng);
            assert!(m.spatial_k <= 16);
            assert!(m.spatial_c <= 64);
            assert!(m.p0 <= 28 && m.q0 <= 28);
            assert!(m.c0 <= 64 && m.k0 <= 64);
        }
    }
}
