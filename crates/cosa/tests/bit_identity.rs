//! Pins the scheduler's output bit for bit.
//!
//! The digest covers every field of every [`Scheduled`] result (each `f64`
//! through `to_bits`) and the text of every error, over a seeded set of
//! Table II architectures crossed with every training, network and
//! gradient-descent test layer, plus `CostModel::evaluate` on random
//! mappings there (many of which fail validation or overflow a buffer, so
//! the error paths are pinned too). Any change to the cost model's arithmetic,
//! its validation, or the scheduler's descent order moves the digest, even
//! one that leaves every mapping the same.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_accel::{workloads, ArchDescription, DesignSpace, LayerShape, Network};
use vaesa_cosa::{random_mapping, ScheduleError, Scheduled, Scheduler};
use vaesa_timeloop::{
    AccessCounts, CostModel, Dataflow, EnergyBreakdown, Evaluation, Mapping, NocModel,
};

/// FNV-1a over little-endian words: stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }

    fn mapping(&mut self, m: &Mapping) {
        let Mapping {
            dataflow,
            spatial_k,
            spatial_c,
            p0,
            q0,
            c0,
            k0,
            p1,
            q1,
            c1,
            k1,
        } = *m;
        let df = Dataflow::ALL.iter().position(|&d| d == dataflow);
        self.word(df.expect("every dataflow is in ALL") as u64);
        for v in [spatial_k, spatial_c, p0, q0, c0, k0, p1, q1, c1, k1] {
            self.word(v);
        }
    }

    fn evaluation(&mut self, e: &Evaluation) {
        let Evaluation {
            latency_cycles,
            energy_pj,
            area_mm2,
            compute_cycles,
            dram_cycles,
            gb_cycles,
            utilization,
            counts,
            energy,
        } = *e;
        let AccessCounts {
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
        } = counts;
        let EnergyBreakdown {
            mac_pj,
            dram_pj,
            global_buf_pj,
            weight_buf_pj,
            input_buf_pj,
            accum_buf_pj,
            noc_pj,
        } = energy;
        for v in [
            latency_cycles,
            energy_pj,
            area_mm2,
            compute_cycles,
            dram_cycles,
            gb_cycles,
            utilization,
            macs,
            dram_weight_bytes,
            dram_input_bytes,
            dram_output_bytes,
            gb_input_bytes,
            gb_output_bytes,
            weight_buf_access_bytes,
            input_buf_access_bytes,
            accum_buf_access_bytes,
            mac_pj,
            dram_pj,
            global_buf_pj,
            weight_buf_pj,
            input_buf_pj,
            accum_buf_pj,
            noc_pj,
        ] {
            self.float(v);
        }
        for v in [
            weight_buf_required,
            input_buf_required,
            accum_buf_required,
            global_buf_required,
        ] {
            self.word(v);
        }
    }

    fn result(&mut self, r: &Result<Scheduled, ScheduleError>) {
        match r {
            Ok(s) => {
                self.word(1);
                self.mapping(&s.mapping);
                self.evaluation(&s.evaluation);
            }
            Err(e) => {
                self.word(0);
                self.text(&e.to_string());
            }
        }
    }
}

fn archs() -> Vec<ArchDescription> {
    let space = DesignSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(0x0b17);
    (0..12)
        .map(|_| space.describe(&space.random(&mut rng)))
        .collect()
}

fn layers() -> Vec<LayerShape> {
    let mut layers = workloads::training_layers();
    layers.extend(Network::ALL.into_iter().flat_map(Network::layers));
    layers.extend(workloads::gd_test_layers());
    layers
}

/// Hashes `run` over every `(arch, layer)` pair; also returns how many
/// pairs scheduled, so a digest over nothing but errors cannot pass.
fn digest(
    run: impl Fn(&ArchDescription, &LayerShape) -> Result<Scheduled, ScheduleError>,
) -> (u64, usize) {
    let mut d = Digest::new();
    let mut ok = 0;
    for arch in archs() {
        for layer in layers() {
            let r = run(&arch, &layer);
            ok += usize::from(r.is_ok());
            d.result(&r);
        }
    }
    (d.0, ok)
}

#[test]
fn schedule_is_bit_identical_to_the_pinned_digest() {
    let scheduler = Scheduler::default();
    let (hash, ok) = digest(|a, l| scheduler.schedule(a, l));
    assert!(ok > 1000, "only {ok} pairs scheduled");
    assert_eq!(hash, 0xffd3_b632_2b61_72d7, "schedule digest {hash:#018x}");
}

#[test]
fn dataflow_schedule_with_noc_is_bit_identical_to_the_pinned_digest() {
    let scheduler = Scheduler::new(CostModel::default().with_noc(NocModel::nm40()));
    let (hash, ok) = digest(|a, l| scheduler.schedule_with_dataflows(a, l));
    assert!(ok > 1000, "only {ok} pairs scheduled");
    assert_eq!(
        hash, 0xd6f1_ad50_6393_ff64,
        "schedule_with_dataflows digest {hash:#018x}"
    );
}

#[test]
fn evaluate_on_random_mappings_is_bit_identical_to_the_pinned_digest() {
    let model = CostModel::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0x3a7e);
    let mut d = Digest::new();
    let (mut ok, mut failed) = (0, 0);
    for arch in archs() {
        for layer in layers() {
            for _ in 0..8 {
                let m = random_mapping(&arch, &layer, &mut rng);
                d.mapping(&m);
                match model.evaluate(&arch, &layer, &m) {
                    Ok(e) => {
                        ok += 1;
                        d.word(1);
                        d.evaluation(&e);
                    }
                    Err(e) => {
                        failed += 1;
                        d.word(0);
                        d.text(&format!("{e:?}"));
                    }
                }
            }
        }
    }
    assert!(
        ok > 1000 && failed > 1000,
        "{ok} evaluated, {failed} rejected"
    );
    assert_eq!(d.0, 0x058c_8a21_4801_1a54, "evaluate digest {:#018x}", d.0);
}
