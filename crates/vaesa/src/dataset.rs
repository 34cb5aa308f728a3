use crate::Normalizer;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vaesa_accel::{ArchConfig, DesignSpace, LayerShape};
use vaesa_cosa::CachedScheduler;
use vaesa_nn::Tensor;

/// One labeled training sample: a hardware design, a DNN layer, and the
/// scheduler + cost model's latency and energy for that pair (raw units).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The design point.
    pub config: ArchConfig,
    /// Raw hardware feature values (Table II order).
    pub hw_raw: [f64; 6],
    /// Raw layer feature values (Table IV column order).
    pub layer_raw: [f64; 8],
    /// Latency in cycles.
    pub latency: f64,
    /// Energy in pJ.
    pub energy: f64,
}

impl Record {
    /// Energy-delay product of this sample.
    pub fn edp(&self) -> f64 {
        self.latency * self.energy
    }
}

/// A normalized training dataset for the VAE + predictor pipeline
/// (§III-B3): hardware features, layer features, and log-normalized
/// latency/energy labels, plus the fitted normalizers needed to map between
/// raw and model space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Raw per-sample records, aligned with the tensor rows.
    pub records: Vec<Record>,
    /// `N x 6` normalized hardware features.
    pub hw: Tensor,
    /// `N x 8` normalized layer features.
    pub layers: Tensor,
    /// `N x 1` normalized log-latency labels.
    pub latency: Tensor,
    /// `N x 1` normalized log-energy labels.
    pub energy: Tensor,
    /// Normalizer for hardware features.
    pub hw_norm: Normalizer,
    /// Normalizer for layer features.
    pub layer_norm: Normalizer,
    /// Normalizer for latency labels.
    pub latency_norm: Normalizer,
    /// Normalizer for energy labels.
    pub energy_norm: Normalizer,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Index of the sample with the lowest EDP.
    pub fn best_index(&self) -> usize {
        self.argmin_by_edp(false)
    }

    /// Index of the sample with the highest EDP.
    pub fn worst_index(&self) -> usize {
        self.argmin_by_edp(true)
    }

    fn argmin_by_edp(&self, invert: bool) -> usize {
        assert!(!self.is_empty(), "dataset is empty");
        let mut best = 0;
        for (i, r) in self.records.iter().enumerate() {
            let better = if invert {
                r.edp() > self.records[best].edp()
            } else {
                r.edp() < self.records[best].edp()
            };
            if better {
                best = i;
            }
        }
        best
    }

    /// Returns a new dataset with `new_records` appended, **keeping the
    /// existing normalizers** so a model trained on this dataset remains
    /// valid for fine-tuning (§III-B3: "as we explore more hardware designs
    /// during DSE, we can expand the dataset and retrain or fine tune").
    ///
    /// New values outside the original min/max extrapolate beyond `[0, 1]`,
    /// which the (linear-head) predictors handle gracefully. To instead
    /// refit normalizers, concatenate the records and call
    /// [`Dataset::from_records`] (a full retrain is then required).
    ///
    /// # Panics
    ///
    /// Panics if `new_records` is empty.
    pub fn extended(&self, new_records: Vec<Record>) -> Dataset {
        assert!(!new_records.is_empty(), "no records to extend with");
        let mut records = self.records.clone();
        let hw_rows: Vec<Vec<f64>> = new_records.iter().map(|r| r.hw_raw.to_vec()).collect();
        let layer_rows: Vec<Vec<f64>> = new_records.iter().map(|r| r.layer_raw.to_vec()).collect();
        let lat_rows: Vec<Vec<f64>> = new_records.iter().map(|r| vec![r.latency]).collect();
        let en_rows: Vec<Vec<f64>> = new_records.iter().map(|r| vec![r.energy]).collect();
        records.extend(new_records);
        use vaesa_nn::Tensor;
        Dataset {
            hw: Tensor::vstack(&[self.hw.clone(), self.hw_norm.transform_tensor(&hw_rows)]),
            layers: Tensor::vstack(&[
                self.layers.clone(),
                self.layer_norm.transform_tensor(&layer_rows),
            ]),
            latency: Tensor::vstack(&[
                self.latency.clone(),
                self.latency_norm.transform_tensor(&lat_rows),
            ]),
            energy: Tensor::vstack(&[
                self.energy.clone(),
                self.energy_norm.transform_tensor(&en_rows),
            ]),
            records,
            hw_norm: self.hw_norm.clone(),
            layer_norm: self.layer_norm.clone(),
            latency_norm: self.latency_norm.clone(),
            energy_norm: self.energy_norm.clone(),
        }
    }

    /// Builds a normalized dataset from raw records.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn from_records(records: Vec<Record>) -> Self {
        assert!(
            !records.is_empty(),
            "cannot build a dataset from no records"
        );
        let hw_rows: Vec<Vec<f64>> = records.iter().map(|r| r.hw_raw.to_vec()).collect();
        let layer_rows: Vec<Vec<f64>> = records.iter().map(|r| r.layer_raw.to_vec()).collect();
        let lat_rows: Vec<Vec<f64>> = records.iter().map(|r| vec![r.latency]).collect();
        let en_rows: Vec<Vec<f64>> = records.iter().map(|r| vec![r.energy]).collect();

        let hw_norm = Normalizer::fit(&hw_rows);
        let layer_norm = Normalizer::fit(&layer_rows);
        let latency_norm = Normalizer::fit(&lat_rows);
        let energy_norm = Normalizer::fit(&en_rows);

        Dataset {
            hw: hw_norm.transform_tensor(&hw_rows),
            layers: layer_norm.transform_tensor(&layer_rows),
            latency: latency_norm.transform_tensor(&lat_rows),
            energy: energy_norm.transform_tensor(&en_rows),
            records,
            hw_norm,
            layer_norm,
            latency_norm,
            energy_norm,
        }
    }
}

/// Builds [`Dataset`]s by sampling the design space and labeling each
/// `(architecture, layer)` pair through the scheduler + cost model, exactly
/// as §III-B3 gathers its 500 K samples with grid and random search.
///
/// Only *valid* design points (those the scheduler can map) are added, so
/// the VAE learns the distribution of realistic designs.
#[derive(Debug)]
pub struct DatasetBuilder<'a> {
    space: &'a DesignSpace,
    layers: Vec<LayerShape>,
    random_configs: usize,
    grid_per_axis: usize,
}

impl<'a> DatasetBuilder<'a> {
    /// Creates a builder over a design space and a layer pool.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(space: &'a DesignSpace, layers: Vec<LayerShape>) -> Self {
        assert!(!layers.is_empty(), "dataset needs at least one layer");
        DatasetBuilder {
            space,
            layers,
            random_configs: 256,
            grid_per_axis: 2,
        }
    }

    /// Sets the number of random design points (default 256).
    pub fn random_configs(mut self, n: usize) -> Self {
        self.random_configs = n;
        self
    }

    /// Sets the grid density per parameter for the grid-seeded portion
    /// (default 2; 0 disables the grid).
    pub fn grid_per_axis(mut self, n: usize) -> Self {
        self.grid_per_axis = n;
        self
    }

    /// Samples, schedules, and labels; returns the normalized dataset.
    ///
    /// Design points that fail to schedule on *any* layer contribute only
    /// their valid `(arch, layer)` pairs, matching the paper's
    /// "only add valid design points" rule.
    ///
    /// # Panics
    ///
    /// Panics if no valid sample at all could be generated (e.g. an empty
    /// budget).
    pub fn build(&self, scheduler: &CachedScheduler, rng: &mut impl Rng) -> Dataset {
        self.build_parallel(scheduler, rng, vaesa_par::num_threads())
    }

    /// Like [`DatasetBuilder::build`], labeling design points on `threads`
    /// worker threads. The result is byte-identical to the sequential build
    /// (same RNG stream for sampling, records concatenated in config
    /// order); only wall-clock time changes. Useful for `--full`-scale
    /// datasets with hundreds of thousands of schedules.
    ///
    /// RNG sampling happens *before* the fan-out, and the index-preserving
    /// [`vaesa_par::par_map_threads`] keeps per-config record groups in
    /// config order, so the concatenation is independent of thread count.
    /// Per-config work claiming balances the uneven scheduler cost (cache
    /// hits vs. full mapspace searches) across workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn build_parallel(
        &self,
        scheduler: &CachedScheduler,
        rng: &mut impl Rng,
        threads: usize,
    ) -> Dataset {
        assert!(threads >= 1, "need at least one thread");
        let configs = self.sample_configs(rng);
        let per_config: Vec<Vec<Record>> =
            vaesa_par::par_map_threads(&configs, threads, |config| {
                let mut out = Vec::new();
                self.label_config(config, scheduler, &mut out);
                out
            });
        Dataset::from_records(per_config.into_iter().flatten().collect())
    }

    fn sample_configs(&self, rng: &mut impl Rng) -> Vec<ArchConfig> {
        let mut configs: Vec<ArchConfig> = Vec::new();
        if self.grid_per_axis >= 1 {
            configs.extend(self.space.grid(self.grid_per_axis));
        }
        for _ in 0..self.random_configs {
            configs.push(self.space.random(rng));
        }
        configs
    }

    fn label_config(
        &self,
        config: &ArchConfig,
        scheduler: &CachedScheduler,
        records: &mut Vec<Record>,
    ) {
        let arch = self.space.describe(config);
        for layer in &self.layers {
            if let Ok(s) = scheduler.schedule(&arch, layer) {
                records.push(Record {
                    config: *config,
                    hw_raw: self.space.raw_features(config),
                    layer_raw: layer.features(),
                    latency: s.latency_cycles,
                    energy: s.energy_pj,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vaesa_accel::workloads;

    fn tiny_dataset() -> Dataset {
        let space = DesignSpace::coarse(4);
        let layers = vec![
            workloads::alexnet()[2].clone(),
            workloads::resnet50()[1].clone(),
        ];
        let scheduler = CachedScheduler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        DatasetBuilder::new(&space, layers)
            .random_configs(30)
            .grid_per_axis(0)
            .build(&scheduler, &mut rng)
    }

    #[test]
    fn builder_produces_normalized_tensors() {
        let ds = tiny_dataset();
        assert!(ds.len() >= 30, "only {} samples", ds.len());
        assert_eq!(ds.hw.shape(), (ds.len(), 6));
        assert_eq!(ds.layers.shape(), (ds.len(), 8));
        assert_eq!(ds.latency.shape(), (ds.len(), 1));
        assert_eq!(ds.energy.shape(), (ds.len(), 1));
        // Everything normalized into [0, 1].
        for t in [&ds.hw, &ds.layers, &ds.latency, &ds.energy] {
            assert!(t
                .as_slice()
                .iter()
                .all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        }
    }

    #[test]
    fn records_align_with_tensors() {
        let ds = tiny_dataset();
        let row0 = ds.hw_norm.transform_row(&ds.records[0].hw_raw);
        for (c, &v) in row0.iter().enumerate() {
            assert!((ds.hw.get(0, c) - v).abs() < 1e-12);
        }
        let lat0 = ds.latency_norm.transform_row(&[ds.records[0].latency]);
        assert!((ds.latency.get(0, 0) - lat0[0]).abs() < 1e-12);
    }

    #[test]
    fn best_and_worst_indices_bracket_edp() {
        let ds = tiny_dataset();
        let best = ds.best_index();
        let worst = ds.worst_index();
        let best_edp = ds.records[best].edp();
        let worst_edp = ds.records[worst].edp();
        assert!(best_edp <= worst_edp);
        for r in &ds.records {
            assert!(r.edp() >= best_edp);
            assert!(r.edp() <= worst_edp);
        }
    }

    #[test]
    fn grid_seeding_adds_points() {
        let space = DesignSpace::coarse(4);
        let layers = vec![workloads::alexnet()[2].clone()];
        let scheduler = CachedScheduler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ds = DatasetBuilder::new(&space, layers)
            .random_configs(0)
            .grid_per_axis(2)
            .build(&scheduler, &mut rng);
        // 2^6 grid points, most schedulable on a midsize conv layer.
        assert!(ds.len() >= 32, "only {}", ds.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let space = DesignSpace::coarse(4);
        let layers = vec![
            workloads::alexnet()[2].clone(),
            workloads::resnet50()[1].clone(),
        ];
        let builder = DatasetBuilder::new(&space, layers)
            .random_configs(24)
            .grid_per_axis(0);
        let scheduler = CachedScheduler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let seq = builder.build(&scheduler, &mut rng);
        for threads in [1usize, 3, 8] {
            let scheduler = CachedScheduler::default();
            let mut rng = ChaCha8Rng::seed_from_u64(55);
            let par = builder.build_parallel(&scheduler, &mut rng, threads);
            assert_eq!(seq.records, par.records, "threads = {threads}");
            assert!(par.hw.approx_eq(&seq.hw, 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let space = DesignSpace::coarse(4);
        let layers = vec![workloads::alexnet()[2].clone()];
        let builder = DatasetBuilder::new(&space, layers);
        let scheduler = CachedScheduler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = builder.build_parallel(&scheduler, &mut rng, 0);
    }

    #[test]
    #[should_panic(expected = "no records")]
    fn empty_records_panics() {
        let _ = Dataset::from_records(Vec::new());
    }

    #[test]
    fn extended_keeps_normalizers_and_appends() {
        let ds = tiny_dataset();
        let n0 = ds.len();
        let extra: Vec<Record> = ds.records[..5].to_vec();
        let bigger = ds.extended(extra);
        assert_eq!(bigger.len(), n0 + 5);
        assert_eq!(bigger.hw.rows(), n0 + 5);
        // Normalizers unchanged.
        assert_eq!(bigger.hw_norm, ds.hw_norm);
        assert_eq!(bigger.latency_norm, ds.latency_norm);
        // The appended rows normalize identically to their originals.
        for i in 0..5 {
            for c in 0..6 {
                assert_eq!(bigger.hw.get(n0 + i, c), ds.hw.get(i, c));
            }
            assert_eq!(bigger.latency.get(n0 + i, 0), ds.latency.get(i, 0));
        }
    }

    #[test]
    #[should_panic(expected = "no records to extend")]
    fn extended_rejects_empty() {
        let ds = tiny_dataset();
        let _ = ds.extended(Vec::new());
    }
}
