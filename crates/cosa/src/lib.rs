#![deny(missing_docs)]
//! One-shot scheduler producing high-quality mappings for spatial
//! accelerators, in the spirit of CoSA (Huang et al., ISCA 2021).
//!
//! CoSA's contract in the VAESA pipeline is: given a problem and an
//! architecture, return a high-performance mapping *in one shot* — no
//! iterative mapping search. The original solves a mixed-integer program
//! with Gurobi; this reproduction solves the same objective (maximize PE and
//! MAC utilization, minimize data transfer, respect buffer capacities) with
//! a deterministic greedy descent over the tiling factors, scored by the
//! analytical cost model itself. The substitution is documented in
//! `DESIGN.md`; the contract — deterministic, constraint-respecting,
//! quality-optimizing, one mapping per `(arch, layer)` — is identical.
//!
//! # Examples
//!
//! ```
//! use vaesa_cosa::Scheduler;
//! use vaesa_accel::{ArchDescription, LayerShape};
//!
//! let scheduler = Scheduler::default();
//! let arch = ArchDescription {
//!     pe_count: 16, macs_per_pe: 64,
//!     accum_buf_bytes: 8192, weight_buf_bytes: 65536,
//!     input_buf_bytes: 32768, global_buf_bytes: 262144,
//! };
//! let layer = LayerShape::new("conv", 3, 3, 28, 28, 64, 64, 1, 1);
//! let scheduled = scheduler.schedule(&arch, &layer)?;
//! assert!(scheduled.evaluation.edp() > 0.0);
//! # Ok::<(), vaesa_cosa::ScheduleError>(())
//! ```

mod mapper;
mod persist;

pub use mapper::random_mapping;
pub use persist::EvalCacheLog;

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use vaesa_accel::{ArchDescription, LayerShape};
use vaesa_timeloop::{CostModel, Evaluation, Mapping, PreparedModel};

/// A mapping chosen by the scheduler together with its evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scheduled {
    /// The chosen loop-nest mapping.
    pub mapping: Mapping,
    /// The cost model's evaluation of that mapping.
    pub evaluation: Evaluation,
}

impl Scheduled {
    /// The two numbers this result contributes to a workload score.
    pub fn cost(&self) -> LayerCost {
        LayerCost {
            latency_cycles: self.evaluation.latency_cycles,
            energy_pj: self.evaluation.energy_pj,
        }
    }
}

/// What a scheduled layer contributes to a workload score: its latency and
/// energy, the only outputs of Timeloop the paper consumes. This is all a
/// [`CachedScheduler`] keeps per entry; [`Scheduler::schedule`] still
/// returns the full mapping for callers that want it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Execution latency in cycles.
    pub latency_cycles: f64,
    /// Energy in pJ.
    pub energy_pj: f64,
}

impl LayerCost {
    /// Energy-delay product, bit-identical to [`Evaluation::edp`] of the
    /// evaluation it came from.
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_pj
    }
}

/// Whole-workload cost: per-layer costs plus workload totals.
///
/// The paper evaluates a DNN by summing per-layer latency and energy and
/// optimizing the product (EDP) of the sums.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEval {
    /// Per-layer costs, in input order.
    pub layers: Vec<LayerCost>,
    /// Sum of per-layer latencies, in cycles.
    pub total_latency_cycles: f64,
    /// Sum of per-layer energies, in pJ.
    pub total_energy_pj: f64,
}

impl WorkloadEval {
    /// Workload energy-delay product: total latency × total energy.
    pub fn edp(&self) -> f64 {
        self.total_latency_cycles * self.total_energy_pj
    }
}

/// Errors returned by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// No mapping satisfies the buffer constraints for this `(arch, layer)`
    /// pair — the design point is invalid for the workload (the paper's
    /// dataset construction drops such points).
    NoValidMapping {
        /// The layer that could not be scheduled.
        layer: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoValidMapping { layer } => {
                write!(f, "no valid mapping exists for layer {layer}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

fn no_valid_mapping(layer: &LayerShape) -> ScheduleError {
    ScheduleError::NoValidMapping {
        layer: layer.name().to_string(),
    }
}

/// Collects per-layer costs, summing latency and energy in layer order and
/// stopping at the first layer with no valid mapping.
fn workload_eval(
    costs: impl ExactSizeIterator<Item = Result<LayerCost, ScheduleError>>,
) -> Result<WorkloadEval, ScheduleError> {
    let mut out = Vec::with_capacity(costs.len());
    let mut total_latency = 0.0;
    let mut total_energy = 0.0;
    for cost in costs {
        let c = cost?;
        total_latency += c.latency_cycles;
        total_energy += c.energy_pj;
        out.push(c);
    }
    Ok(WorkloadEval {
        layers: out,
        total_latency_cycles: total_latency,
        total_energy_pj: total_energy,
    })
}

/// The one-shot scheduler.
///
/// Deterministic: the same `(arch, layer)` always yields the same mapping.
#[derive(Debug, Default)]
pub struct Scheduler {
    model: CostModel,
}

/// The tiling factors the greedy descent may grow, in a fixed order that
/// makes the search deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Factor {
    SpatialK,
    SpatialC,
    P0,
    Q0,
    C0,
    K0,
    P1,
    Q1,
    C1,
    K1,
}

const FACTORS: [Factor; 10] = [
    Factor::SpatialK,
    Factor::SpatialC,
    Factor::P0,
    Factor::Q0,
    Factor::C0,
    Factor::K0,
    Factor::P1,
    Factor::Q1,
    Factor::C1,
    Factor::K1,
];

impl Scheduler {
    /// Creates a scheduler over the given cost model.
    pub fn new(model: CostModel) -> Self {
        Scheduler { model }
    }

    /// The cost model used for scoring.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Produces the mapping for one layer on one architecture.
    ///
    /// Starting from the always-feasible unit mapping, the scheduler
    /// repeatedly doubles whichever tiling or spatial factor most improves
    /// EDP, stopping when no single doubling helps. Factors are capped at
    /// their layer dimensions and every candidate is checked against the
    /// buffer capacities by the cost model.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoValidMapping`] when even the unit mapping
    /// violates a buffer constraint (e.g. a global buffer too small to hold
    /// one filter footprint).
    pub fn schedule(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
    ) -> Result<Scheduled, ScheduleError> {
        Self::descend(
            &self.model.prepare(arch, layer),
            arch,
            layer,
            Mapping::unit(),
        )
        .ok_or_else(|| no_valid_mapping(layer))
    }

    /// Like [`Scheduler::schedule`], but additionally searches over the
    /// register-level [`vaesa_timeloop::Dataflow`] choices: one greedy
    /// descent per dataflow, keeping the best result. Costs ~3x the
    /// evaluations of [`Scheduler::schedule`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoValidMapping`] when even the unit mapping
    /// violates a buffer constraint.
    pub fn schedule_with_dataflows(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
    ) -> Result<Scheduled, ScheduleError> {
        let model = self.model.prepare(arch, layer);
        let mut best: Option<Scheduled> = None;
        for dataflow in vaesa_timeloop::Dataflow::ALL {
            let start = Mapping {
                dataflow,
                ..Mapping::unit()
            };
            if let Some(s) = Self::descend(&model, arch, layer, start) {
                if best
                    .as_ref()
                    .is_none_or(|b| s.evaluation.edp() < b.evaluation.edp())
                {
                    best = Some(s);
                }
            }
        }
        best.ok_or_else(|| no_valid_mapping(layer))
    }

    /// The greedy descent from `start`, or `None` when `start` itself does
    /// not evaluate. Candidates are ranked by EDP alone; only the winning
    /// mapping's full evaluation is kept.
    fn descend(
        model: &PreparedModel<'_>,
        arch: &ArchDescription,
        layer: &LayerShape,
        start: Mapping,
    ) -> Option<Scheduled> {
        let edp = |m: &Mapping| model.evaluate(m).ok().map(|e| e.edp());
        let mut current = start;
        let mut best = edp(&current)?;

        loop {
            let mut best_candidate: Option<(Mapping, f64)> = None;
            for factor in FACTORS {
                let Some(candidate) = Self::grow(&current, factor, arch, layer) else {
                    continue;
                };
                if let Some(e) = edp(&candidate) {
                    if e < best_candidate.map_or(best, |(_, bar)| bar) {
                        best_candidate = Some((candidate, e));
                    }
                }
            }
            match best_candidate {
                Some((m, e)) if e < best => {
                    current = m;
                    best = e;
                }
                _ => break,
            }
        }

        let evaluation = model
            .evaluate(&current)
            .expect("the descent keeps only mappings that evaluated");
        Some(Scheduled {
            mapping: current,
            evaluation,
        })
    }

    /// Schedules every layer of a workload and sums latency and energy.
    ///
    /// # Errors
    ///
    /// Fails if any layer has no valid mapping; the paper treats such design
    /// points as invalid for the whole workload.
    pub fn schedule_workload(
        &self,
        arch: &ArchDescription,
        layers: &[LayerShape],
    ) -> Result<WorkloadEval, ScheduleError> {
        workload_eval(
            layers
                .iter()
                .map(|layer| self.schedule(arch, layer).map(|s| s.cost())),
        )
    }

    /// Returns `mapping` with `factor` doubled (capped at its dimension), or
    /// `None` if the factor is saturated or the grown tile would grossly
    /// exceed a layer dimension.
    fn grow(
        mapping: &Mapping,
        factor: Factor,
        arch: &ArchDescription,
        layer: &LayerShape,
    ) -> Option<Mapping> {
        let mut m = *mapping;
        let (value, cap): (&mut u64, u64) = match factor {
            Factor::SpatialK => (&mut m.spatial_k, arch.pe_count.min(layer.k)),
            Factor::SpatialC => (&mut m.spatial_c, arch.macs_per_pe.min(layer.c)),
            Factor::P0 => (&mut m.p0, layer.p),
            Factor::Q0 => (&mut m.q0, layer.q),
            Factor::C0 => (&mut m.c0, layer.c),
            Factor::K0 => (&mut m.k0, layer.k),
            Factor::P1 => (&mut m.p1, layer.p),
            Factor::Q1 => (&mut m.q1, layer.q),
            Factor::C1 => (&mut m.c1, layer.c),
            Factor::K1 => (&mut m.k1, layer.k),
        };
        if *value >= cap {
            return None;
        }
        *value = (*value * 2).min(cap);
        // Composite tiles may overshoot their dimension slightly (ceil
        // semantics) but not grossly.
        let ok = m.p_gb() <= 2 * layer.p
            && m.q_gb() <= 2 * layer.q
            && m.c_gb() <= 2 * layer.c
            && m.k_gb() <= 2 * layer.k;
        ok.then_some(m)
    }
}

/// The identity a scheduling result is cached (and persisted) under.
pub type CacheKey = (ArchDescription, LayerShape);

/// A [`CacheKey`] inside the memo table: the layer is replaced by its id in
/// the table's [`LayerInterner`], so a key is plain data.
type MemoKey = (ArchDescription, u32);

/// Where a memoized entry stands relative to the persistent log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backing {
    /// In-memory only (no persistence attached to this cache).
    None,
    /// Appended to the log by this process (on the miss that created it).
    Logged,
    /// Loaded from the log at startup — written by a previous process.
    Warm,
}

/// One memoized scheduling result plus its second-chance reference bit.
#[derive(Debug)]
struct CacheEntry {
    /// The cost, or `None` for a cached "no valid mapping".
    cost: Option<LayerCost>,
    referenced: bool,
    backing: Backing,
}

// One table slot is 88 bytes on 64-bit targets; keep entries from growing
// back towards a full `Scheduled`.
const _: () = assert!(std::mem::size_of::<(MemoKey, CacheEntry)>() <= 96);

/// Maps each distinct layer (name included) to a small id and back. Layer
/// sets are small — tens of layers per network — so ids are never freed.
#[derive(Debug, Default)]
struct LayerInterner {
    ids: HashMap<LayerShape, u32>,
    layers: Vec<LayerShape>,
}

impl LayerInterner {
    fn intern(&mut self, layer: &LayerShape) -> u32 {
        if let Some(&id) = self.ids.get(layer) {
            return id;
        }
        let id = u32::try_from(self.layers.len()).expect("fewer than 2^32 distinct layers");
        self.ids.insert(layer.clone(), id);
        self.layers.push(layer.clone());
        id
    }

    fn layer(&self, id: u32) -> &LayerShape {
        &self.layers[id as usize]
    }
}

/// The mutable cache interior: the memo map, the eviction clock queue (keys
/// in insertion/recycle order), the layer interner, and the keys being
/// scheduled right now. All live under one mutex so they can never
/// disagree.
#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<MemoKey, CacheEntry>,
    queue: VecDeque<MemoKey>,
    layers: LayerInterner,
    /// Keys a caller is scheduling outside the lock, each with whether
    /// another caller waits for it.
    in_flight: HashMap<MemoKey, bool>,
}

/// A scheduler with a bounded memoization cache keyed by `(arch, layer)`.
///
/// Design-space exploration evaluates the same layer on thousands of
/// architectures and frequently revisits architectures (e.g. when BO
/// re-samples a rounded design point); the cache makes repeats free.
/// Thread-safe via an internal mutex; each key is scheduled once, however
/// many callers miss it at the same time.
///
/// Entries hold only the [`LayerCost`] callers read back; use
/// [`Scheduler::schedule`] for the mapping itself.
///
/// The cache holds at most [`CachedScheduler::DEFAULT_CAPACITY`] entries
/// (configurable via [`CachedScheduler::with_capacity`]) and evicts with a
/// second-chance (clock) policy: entries re-hit since they last reached the
/// front of the queue get recycled to the back once before they can be
/// evicted, so hot `(arch, layer)` pairs survive long sweeps of one-off
/// candidates.
#[derive(Debug)]
pub struct CachedScheduler {
    inner: Scheduler,
    capacity: usize,
    state: Mutex<CacheState>,
    /// Signalled when an in-flight key with waiters lands or is abandoned.
    landed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    persist: Option<EvalCacheLog>,
    persistent_hits: AtomicU64,
    persistent_warm_hits: AtomicU64,
    flush_on_evict: AtomicU64,
}

/// Clears a key's in-flight mark if scheduling it unwinds, so callers
/// waiting on the key recompute it instead of waiting forever.
struct InFlight<'a> {
    cache: &'a CachedScheduler,
    key: MemoKey,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut state = self
            .cache
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.in_flight.remove(&self.key) == Some(true) {
            self.cache.landed.notify_all();
        }
    }
}

impl Default for CachedScheduler {
    fn default() -> Self {
        CachedScheduler::new(Scheduler::default())
    }
}

/// A point-in-time snapshot of a [`CachedScheduler`]'s effectiveness,
/// reported by the experiment binaries at the end of each DSE flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the scheduler.
    pub misses: u64,
    /// Distinct `(arch, layer)` pairs cached.
    pub entries: usize,
    /// Entries dropped by the second-chance eviction policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when none occurred).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries, {} evictions)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions
        )
    }
}

/// A point-in-time snapshot of the persistent evaluation-cache layer, for
/// caches built with [`CachedScheduler::with_persistence`].
///
/// Kept separate from [`CacheStats`] (which describes the in-memory memo
/// table regardless of persistence) so the two layers can be reported and
/// asserted independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistStats {
    /// Entries loaded from the log at startup.
    pub loaded: u64,
    /// Torn or malformed log lines dropped (and healed) at startup.
    pub recovered: u64,
    /// Records appended to the log by this process.
    pub appends: u64,
    /// Cache hits on log-backed entries (loaded at startup *or* appended
    /// during this process's lifetime).
    pub hits: u64,
    /// Cache hits on entries written by a *previous* process — the subset
    /// of `hits` that proves the cache survived process death.
    pub warm_hits: u64,
    /// Dirty (not-yet-fsynced) entries flushed to the log at the moment
    /// second-chance eviction would otherwise have discarded them.
    pub flush_on_evict: u64,
}

impl std::fmt::Display for PersistStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} loaded, {} appended, {} persistent hits ({} warm, {} flushed on evict, {} lines recovered)",
            self.loaded, self.appends, self.hits, self.warm_hits, self.flush_on_evict, self.recovered
        )
    }
}

impl CachedScheduler {
    /// Default cache bound: large enough that every `--fast` pipeline and
    /// perfbench workload runs without evicting, small enough to cap memory
    /// on long campaigns (at 88 bytes a slot, a full table is under 100 MB).
    /// Default-scale Fig. 11 overflows it (268,224 misses, 6,080
    /// evictions) and still keeps the 66 hits of its re-score step.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// Wraps a scheduler with an empty cache of
    /// [`CachedScheduler::DEFAULT_CAPACITY`] entries.
    pub fn new(inner: Scheduler) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Wraps a scheduler with an empty cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that can hold nothing would
    /// turn every lookup into a recompute while still paying the lock).
    pub fn with_capacity(inner: Scheduler, capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        CachedScheduler {
            inner,
            capacity,
            state: Mutex::new(CacheState::default()),
            landed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist: None,
            persistent_hits: AtomicU64::new(0),
            persistent_warm_hits: AtomicU64::new(0),
            flush_on_evict: AtomicU64::new(0),
        }
    }

    /// Wraps a scheduler with a cache backed by the persistent evaluation
    /// log at `dir` (created if absent). Entries recorded by previous
    /// processes are pre-loaded into the memo table (at most `capacity` of
    /// them), and every miss computed by this cache is appended to the log,
    /// so evaluation work accumulates across process lifetimes.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors opening or compacting the log directory;
    /// damaged log *content* is recovered, not fatal (see
    /// [`EvalCacheLog::open`]).
    pub fn with_persistence(
        inner: Scheduler,
        capacity: usize,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        let mut cache = Self::with_capacity(inner, capacity);
        let (log, entries) = EvalCacheLog::open(dir)?;
        {
            let state = cache.state.get_mut().expect("cache lock");
            // Each full logged result shrinks to its cost as it loads.
            for ((arch, layer), result) in entries.into_iter().take(capacity) {
                let key = (arch, state.layers.intern(&layer));
                state.queue.push_back(key);
                state.map.insert(
                    key,
                    CacheEntry {
                        cost: result.ok().map(|s| s.cost()),
                        referenced: false,
                        backing: Backing::Warm,
                    },
                );
            }
        }
        cache.persist = Some(log);
        Ok(cache)
    }

    /// Builds the scheduler the environment asks for: persistent (rooted at
    /// `$VAESA_EVAL_CACHE`) when the variable is set and non-empty,
    /// otherwise a plain in-memory cache. An unusable cache directory is
    /// reported to stderr and degrades to in-memory rather than failing the
    /// run — the cache is an accelerator, never a correctness dependency.
    pub fn from_env() -> Self {
        match std::env::var("VAESA_EVAL_CACHE") {
            Ok(dir) if !dir.is_empty() => {
                match Self::with_persistence(Scheduler::default(), Self::DEFAULT_CAPACITY, &dir) {
                    Ok(cache) => cache,
                    Err(e) => {
                        eprintln!(
                            "vaesa-cosa: VAESA_EVAL_CACHE={dir} is unusable ({e}); \
                             continuing without persistence"
                        );
                        Self::default()
                    }
                }
            }
            _ => Self::default(),
        }
    }

    /// The maximum number of entries the cache will hold.
    pub fn cache_capacity(&self) -> usize {
        self.capacity
    }

    /// The persistent log directory, when persistence is attached.
    pub fn persistence_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|log| log.dir())
    }

    /// Cached version of [`Scheduler::schedule`], returning the layer's
    /// [`LayerCost`]. A lookup allocates nothing unless it meets a layer
    /// for the first time, misses with persistence attached (the log
    /// records the full result), or returns an error.
    ///
    /// When several callers miss the same key at once, one schedules it and
    /// the others wait for its entry and count as hits.
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::schedule`] (errors are cached too).
    pub fn schedule(
        &self,
        arch: &ArchDescription,
        layer: &LayerShape,
    ) -> Result<LayerCost, ScheduleError> {
        let mut state = self.state.lock().expect("cache lock");
        let key = (*arch, state.layers.intern(layer));
        loop {
            if let Some(entry) = state.map.get_mut(&key) {
                entry.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                match entry.backing {
                    Backing::None => {}
                    Backing::Logged => {
                        self.persistent_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    Backing::Warm => {
                        self.persistent_hits.fetch_add(1, Ordering::Relaxed);
                        self.persistent_warm_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return entry.cost.ok_or_else(|| no_valid_mapping(layer));
            }
            match state.in_flight.get_mut(&key) {
                Some(waited) => {
                    *waited = true;
                    state = self.landed.wait(state).expect("cache lock");
                }
                None => break,
            }
        }
        state.in_flight.insert(key, false);
        drop(state);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let flight = InFlight { cache: self, key };
        // Compute outside the lock so misses on distinct keys schedule in
        // parallel.
        let result = self.inner.schedule(arch, layer);
        let mut state = self.state.lock().expect("cache lock");
        let backing = match &self.persist {
            Some(log) => {
                log.append(&(*arch, layer.clone()), &result);
                Backing::Logged
            }
            None => Backing::None,
        };
        while state.map.len() >= self.capacity {
            let victim = state.queue.pop_front().expect("queue tracks map");
            let recycled = {
                let entry = state.map.get_mut(&victim).expect("queued keys are mapped");
                let hit_since = entry.referenced;
                entry.referenced = false;
                hit_since
            };
            if recycled {
                state.queue.push_back(victim);
            } else {
                // A dirty victim (appended to the log but not yet fsynced)
                // must reach disk before the memo table forgets it, or a
                // crash after eviction would lose the result.
                if let Some(log) = &self.persist {
                    let logged = state.map.get(&victim).expect("queued keys are mapped");
                    if logged.backing == Backing::Logged
                        && log.flush_key(&(victim.0, state.layers.layer(victim.1).clone()))
                    {
                        self.flush_on_evict.fetch_add(1, Ordering::Relaxed);
                    }
                }
                state.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cost = result.map(|s| s.cost());
        state.queue.push_back(key);
        let previous = state.map.insert(
            key,
            CacheEntry {
                cost: cost.as_ref().ok().copied(),
                referenced: false,
                backing,
            },
        );
        debug_assert!(previous.is_none(), "only the in-flight caller inserts");
        drop(state);
        // Clears the in-flight mark and wakes any waiter, which now hits.
        drop(flight);
        cost
    }

    /// Cached version of [`Scheduler::schedule_workload`].
    ///
    /// # Errors
    ///
    /// Fails if any layer has no valid mapping.
    pub fn schedule_workload(
        &self,
        arch: &ArchDescription,
        layers: &[LayerShape],
    ) -> Result<WorkloadEval, ScheduleError> {
        workload_eval(layers.iter().map(|layer| self.schedule(arch, layer)))
    }

    /// Number of distinct `(arch, layer)` pairs cached.
    pub fn cache_len(&self) -> usize {
        self.state.lock().expect("cache lock").map.len()
    }

    /// Hit/miss/eviction counters and cache size since construction.
    ///
    /// Counters use relaxed atomics: exact under any serial flow, and a
    /// consistent-enough summary under concurrent lookups.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.cache_len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Counters for the persistent layer, or `None` for in-memory caches.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persist.as_ref().map(|log| PersistStats {
            loaded: log.loaded_entries(),
            recovered: log.recovered_lines(),
            appends: log.appends(),
            hits: self.persistent_hits.load(Ordering::Relaxed),
            warm_hits: self.persistent_warm_hits.load(Ordering::Relaxed),
            flush_on_evict: self.flush_on_evict.load(Ordering::Relaxed),
        })
    }

    /// Forces every buffered log record to disk (write + fsync). A no-op
    /// for in-memory caches. Call at the end of a run; the log's `Drop`
    /// also flushes, so this exists for explicit error handling.
    ///
    /// # Errors
    ///
    /// Returns the first shard's I/O error; remaining shards still flush.
    pub fn flush_persistent(&self) -> io::Result<()> {
        match &self.persist {
            Some(log) => log.flush(),
            None => Ok(()),
        }
    }

    /// Publishes a [`CachedScheduler::cache_stats`] snapshot as gauges
    /// `{prefix}.hits`, `{prefix}.misses`, `{prefix}.entries`,
    /// `{prefix}.evictions`, and `{prefix}.hit_rate` on `registry`.
    ///
    /// Intended to be called once at the end of a run (the experiment
    /// harness uses prefix `scheduler`); nothing in the lookup path touches
    /// the registry. Each key is scheduled once, so whenever nothing is
    /// evicted the counts are exact at any thread count: misses equal the
    /// distinct keys looked up and hits the remaining lookups. Which entries
    /// an eviction removes depends on lookup order, so runs that evict may
    /// still count differently across thread counts, and the determinism
    /// gate excludes `scheduler.`-prefixed metrics.
    pub fn publish_stats(&self, registry: &vaesa_obs::Registry, prefix: &str) {
        let stats = self.cache_stats();
        registry
            .gauge(&format!("{prefix}.hits"))
            .set(stats.hits as f64);
        registry
            .gauge(&format!("{prefix}.misses"))
            .set(stats.misses as f64);
        registry
            .gauge(&format!("{prefix}.entries"))
            .set(stats.entries as f64);
        registry
            .gauge(&format!("{prefix}.evictions"))
            .set(stats.evictions as f64);
        registry
            .gauge(&format!("{prefix}.hit_rate"))
            .set(stats.hit_rate());
        if let Some(p) = self.persist_stats() {
            registry
                .gauge(&format!("{prefix}.persistent.loaded"))
                .set(p.loaded as f64);
            registry
                .gauge(&format!("{prefix}.persistent.recovered"))
                .set(p.recovered as f64);
            registry
                .gauge(&format!("{prefix}.persistent.appends"))
                .set(p.appends as f64);
            registry
                .gauge(&format!("{prefix}.persistent.hits"))
                .set(p.hits as f64);
            registry
                .gauge(&format!("{prefix}.persistent.warm_hits"))
                .set(p.warm_hits as f64);
            registry
                .gauge(&format!("{prefix}.persistent.flush_on_evict"))
                .set(p.flush_on_evict as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaesa_accel::{workloads, DesignSpace};

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
    fn schedule_beats_unit_mapping_substantially() {
        let s = Scheduler::default();
        let unit = s
            .model()
            .evaluate(&arch(), &conv(), &Mapping::unit())
            .unwrap();
        let sched = s.schedule(&arch(), &conv()).unwrap();
        assert!(
            sched.evaluation.edp() < unit.edp() / 100.0,
            "scheduler only improved EDP from {:.3e} to {:.3e}",
            unit.edp(),
            sched.evaluation.edp()
        );
    }

    #[test]
    fn schedule_is_deterministic() {
        let s = Scheduler::default();
        let a = s.schedule(&arch(), &conv()).unwrap();
        let b = s.schedule(&arch(), &conv()).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.evaluation.edp(), b.evaluation.edp());
    }

    #[test]
    fn schedule_exploits_parallel_hardware() {
        let s = Scheduler::default();
        let sched = s.schedule(&arch(), &conv()).unwrap();
        // With 64 output channels and 16 PEs, the scheduler should use
        // substantial spatial parallelism.
        assert!(sched.mapping.spatial_k >= 8, "mapping: {}", sched.mapping);
        assert!(sched.mapping.spatial_c >= 8, "mapping: {}", sched.mapping);
    }

    #[test]
    fn bigger_machine_never_schedules_much_worse() {
        let s = Scheduler::default();
        let small = arch();
        let mut big = arch();
        big.pe_count = 64;
        big.macs_per_pe = 256;
        let es = s.schedule(&small, &conv()).unwrap().evaluation;
        let eb = s.schedule(&big, &conv()).unwrap().evaluation;
        assert!(eb.latency_cycles <= es.latency_cycles * 1.01);
    }

    #[test]
    fn all_training_layers_schedule_on_a_midrange_arch() {
        let s = Scheduler::default();
        for layer in workloads::training_layers() {
            let r = s.schedule(&arch(), &layer);
            assert!(r.is_ok(), "layer {} failed: {:?}", layer.name(), r.err());
        }
    }

    #[test]
    fn tiny_global_buffer_is_invalid_for_big_kernels() {
        let s = Scheduler::default();
        let mut a = arch();
        a.global_buf_bytes = 16; // cannot hold an 11x11 filter footprint
        let alex1 = LayerShape::new("conv1", 11, 11, 55, 55, 3, 64, 4, 4);
        let err = s.schedule(&a, &alex1).unwrap_err();
        assert!(matches!(err, ScheduleError::NoValidMapping { .. }));
        assert!(err.to_string().contains("conv1"));
    }

    #[test]
    fn workload_eval_sums_layers() {
        let s = Scheduler::default();
        let layers = vec![conv(), LayerShape::fully_connected("fc", 512, 256)];
        let w = s.schedule_workload(&arch(), &layers).unwrap();
        assert_eq!(w.layers.len(), 2);
        let lat: f64 = w.layers.iter().map(|l| l.latency_cycles).sum();
        let en: f64 = w.layers.iter().map(|l| l.energy_pj).sum();
        assert!((w.total_latency_cycles - lat).abs() < 1e-9);
        assert!((w.total_energy_pj - en).abs() < 1e-9);
        assert!((w.edp() - lat * en).abs() < 1e-3 * w.edp());
    }

    fn bits(cost: &LayerCost) -> (u64, u64) {
        (cost.latency_cycles.to_bits(), cost.energy_pj.to_bits())
    }

    #[test]
    fn cached_scheduler_matches_uncached_and_caches() {
        let plain = Scheduler::default();
        let cached = CachedScheduler::default();
        let want = plain.schedule(&arch(), &conv()).unwrap().cost();
        let got1 = cached.schedule(&arch(), &conv()).unwrap();
        let got2 = cached.schedule(&arch(), &conv()).unwrap();
        assert_eq!(bits(&want), bits(&got1));
        assert_eq!(bits(&got1), bits(&got2));
        assert_eq!(cached.cache_len(), 1);
    }

    #[test]
    fn cached_errors_carry_the_callers_layer_name() {
        let mut a = arch();
        a.global_buf_bytes = 16;
        let alex1 = LayerShape::new("conv1", 11, 11, 55, 55, 3, 64, 4, 4);
        let cached = CachedScheduler::default();
        let want = Scheduler::default().schedule(&a, &alex1).unwrap_err();
        assert_eq!(cached.schedule(&a, &alex1).unwrap_err(), want); // miss
        assert_eq!(cached.schedule(&a, &alex1).unwrap_err(), want); // hit
        assert_eq!(cached.cache_stats().hits, 1);
    }

    #[test]
    fn layers_differing_only_in_name_are_distinct_keys() {
        let cached = CachedScheduler::default();
        let a = LayerShape::fully_connected("a", 128, 64);
        let b = LayerShape::fully_connected("b", 128, 64);
        let (ca, cb) = (
            cached.schedule(&arch(), &a).unwrap(),
            cached.schedule(&arch(), &b).unwrap(),
        );
        assert_eq!(bits(&ca), bits(&cb));
        assert_eq!((cached.cache_stats().misses, cached.cache_len()), (2, 2));
    }

    /// Two callers that miss one key at the same moment schedule it once:
    /// the second waits for the first's entry and counts as a hit. Eight
    /// keys, so that the two lookups overlap on some of them.
    #[test]
    fn concurrent_misses_on_one_key_schedule_it_once() {
        use std::sync::Barrier;
        let cached = CachedScheduler::default();
        for k in 1..=8 {
            let layer = LayerShape::new("conv", 3, 3, 28, 28, 64, 16 * k, 1, 1);
            let barrier = Barrier::new(2);
            let costs: Vec<LayerCost> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            cached.schedule(&arch(), &layer).unwrap()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert_eq!(bits(&costs[0]), bits(&costs[1]));
        }
        let stats = cached.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (8, 8, 8));
    }

    /// Marks `conv()` on `arch()` in flight as if another caller were
    /// scheduling it, looks the key up on a second thread, and once that
    /// thread is parked on the key (or has returned without waiting) runs
    /// `finish`, which must release it. Returns the lookup's result.
    fn with_parked_waiter(cached: &CachedScheduler, finish: impl FnOnce(MemoKey)) -> LayerCost {
        let key = {
            let mut state = cached.state.lock().unwrap();
            let key = (arch(), state.layers.intern(&conv()));
            state.in_flight.insert(key, false);
            key
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| cached.schedule(&arch(), &conv()).unwrap());
            while !waiter.is_finished()
                && cached.state.lock().unwrap().in_flight.get(&key) != Some(&true)
            {
                std::thread::yield_now();
            }
            finish(key);
            waiter.join().unwrap()
        })
    }

    /// A caller parked on an in-flight key reads the entry it lands and
    /// counts as a hit.
    #[test]
    fn a_waiter_hits_when_the_in_flight_key_lands() {
        let cached = CachedScheduler::default();
        let want = Scheduler::default()
            .schedule(&arch(), &conv())
            .unwrap()
            .cost();
        let got = with_parked_waiter(&cached, |key| {
            let flight = InFlight {
                cache: &cached,
                key,
            };
            let mut state = cached.state.lock().unwrap();
            state.queue.push_back(key);
            state.map.insert(
                key,
                CacheEntry {
                    cost: Some(want),
                    referenced: false,
                    backing: Backing::None,
                },
            );
            drop(state);
            drop(flight);
        });
        assert_eq!(bits(&got), bits(&want));
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    /// A caller parked on a key whose scheduling unwinds is woken and
    /// schedules the key itself.
    #[test]
    fn an_unwinding_miss_releases_its_waiters() {
        let cached = CachedScheduler::default();
        let got = with_parked_waiter(&cached, |key| {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _flight = InFlight {
                    cache: &cached,
                    key,
                };
                panic!("scheduling failed");
            }));
            assert!(unwound.is_err());
        });
        let want = Scheduler::default()
            .schedule(&arch(), &conv())
            .unwrap()
            .cost();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(cached.cache_stats().misses, 1);
        assert!(cached.state.lock().unwrap().in_flight.is_empty());
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let cached = CachedScheduler::default();
        assert_eq!(cached.cache_stats().hit_rate(), 0.0);
        let fc = LayerShape::fully_connected("fc", 128, 64);
        cached.schedule(&arch(), &conv()).unwrap(); // miss
        cached.schedule(&arch(), &conv()).unwrap(); // hit
        cached.schedule(&arch(), &fc).unwrap(); // miss
        cached.schedule(&arch(), &conv()).unwrap(); // hit
        let stats = cached.cache_stats();
        assert_eq!(
            stats,
            CacheStats {
                hits: 2,
                misses: 2,
                entries: 2,
                evictions: 0
            }
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        let shown = stats.to_string();
        assert!(
            shown.contains("2 hits") && shown.contains("50.0%") && shown.contains("0 evictions"),
            "{shown}"
        );
    }

    /// The published gauges are exactly the [`CacheStats`] counters — the
    /// observability layer must never drift from the scheduler's own
    /// accounting.
    #[test]
    fn published_gauges_equal_cache_stats_counters() {
        let cached = CachedScheduler::default();
        let fc = LayerShape::fully_connected("fc", 128, 64);
        cached.schedule(&arch(), &conv()).unwrap(); // miss
        cached.schedule(&arch(), &conv()).unwrap(); // hit
        cached.schedule(&arch(), &fc).unwrap(); // miss

        let registry = vaesa_obs::Registry::new();
        cached.publish_stats(&registry, "scheduler");
        let stats = cached.cache_stats();
        let gauge = |name: &str| registry.gauge(name).get();
        assert_eq!(gauge("scheduler.hits"), stats.hits as f64);
        assert_eq!(gauge("scheduler.misses"), stats.misses as f64);
        assert_eq!(gauge("scheduler.entries"), stats.entries as f64);
        assert_eq!(gauge("scheduler.evictions"), stats.evictions as f64);
        assert_eq!(gauge("scheduler.hit_rate"), stats.hit_rate());
        assert!(gauge("scheduler.hit_rate") > 0.0);
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity() {
        let cached = CachedScheduler::with_capacity(Scheduler::default(), 3);
        assert_eq!(cached.cache_capacity(), 3);
        for i in 1..=8 {
            let fc = LayerShape::fully_connected("fc", 64 * i, 64);
            cached.schedule(&arch(), &fc).unwrap();
            assert!(cached.cache_len() <= 3, "cache grew past its bound");
        }
        let stats = cached.cache_stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 5);
    }

    #[test]
    fn second_chance_keeps_rehit_entries_over_cold_ones() {
        let cached = CachedScheduler::with_capacity(Scheduler::default(), 2);
        let hot = LayerShape::fully_connected("hot", 128, 64);
        let cold = LayerShape::fully_connected("cold", 256, 64);
        let new = LayerShape::fully_connected("new", 512, 64);
        cached.schedule(&arch(), &hot).unwrap(); // miss, insert
        cached.schedule(&arch(), &cold).unwrap(); // miss, insert
        cached.schedule(&arch(), &hot).unwrap(); // hit: marks `hot` referenced
                                                 // Inserting a third entry must evict `cold`: `hot` is at the front
                                                 // of the clock queue but referenced, so it gets its second chance.
        cached.schedule(&arch(), &new).unwrap(); // miss, evicts `cold`
        let before = cached.cache_stats();
        cached.schedule(&arch(), &hot).unwrap(); // still cached: a hit
        assert_eq!(cached.cache_stats().hits, before.hits + 1);
        cached.schedule(&arch(), &cold).unwrap(); // evicted: a miss
        assert_eq!(cached.cache_stats().misses, before.misses + 1);
    }

    #[test]
    fn evicted_entries_recompute_identically() {
        let capacity_one = CachedScheduler::with_capacity(Scheduler::default(), 1);
        let a = conv();
        let b = LayerShape::fully_connected("fc", 128, 64);
        let first = capacity_one.schedule(&arch(), &a).unwrap();
        capacity_one.schedule(&arch(), &b).unwrap(); // evicts `a`
        let again = capacity_one.schedule(&arch(), &a).unwrap(); // recompute
        assert_eq!(bits(&first), bits(&again));
        assert_eq!(capacity_one.cache_stats().evictions, 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_cache_is_rejected() {
        let _ = CachedScheduler::with_capacity(Scheduler::default(), 0);
    }

    fn cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vaesa-cosa-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistent_cache_survives_process_death() {
        let dir = cache_dir("survive");
        {
            let cached = CachedScheduler::with_persistence(Scheduler::default(), 64, &dir).unwrap();
            cached.schedule(&arch(), &conv()).unwrap(); // miss → logged
            cached.schedule(&arch(), &conv()).unwrap(); // hit on a logged entry
            let p = cached.persist_stats().unwrap();
            assert_eq!((p.loaded, p.appends, p.hits, p.warm_hits), (0, 1, 1, 0));
            cached.flush_persistent().unwrap();
        }
        // "A new process": same cache dir, fresh scheduler.
        let cached = CachedScheduler::with_persistence(Scheduler::default(), 64, &dir).unwrap();
        assert_eq!(cached.persist_stats().unwrap().loaded, 1);
        assert_eq!(cached.cache_len(), 1);
        cached.schedule(&arch(), &conv()).unwrap();
        let stats = cached.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 0),
            "a warm entry must serve without re-running the scheduler"
        );
        let p = cached.persist_stats().unwrap();
        assert_eq!((p.hits, p.warm_hits), (1, 1));
        drop(cached);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirty_eviction_flushes_to_the_log_first() {
        let dir = cache_dir("evictflush");
        let a = conv();
        let b = LayerShape::fully_connected("fc", 128, 64);
        {
            let cached = CachedScheduler::with_persistence(Scheduler::default(), 1, &dir).unwrap();
            cached.schedule(&arch(), &a).unwrap(); // logged, still buffered
            cached.schedule(&arch(), &b).unwrap(); // evicts `a` → flush first
            let p = cached.persist_stats().unwrap();
            assert_eq!(p.flush_on_evict, 1);
            assert_eq!(cached.cache_stats().evictions, 1);
        }
        // `a` reached disk at eviction time, `b` at drop: both load back.
        let cached = CachedScheduler::with_persistence(Scheduler::default(), 8, &dir).unwrap();
        assert_eq!(cached.persist_stats().unwrap().loaded, 2);
        let before = cached.cache_stats().misses;
        cached.schedule(&arch(), &a).unwrap();
        assert_eq!(
            cached.cache_stats().misses,
            before,
            "evicted entry came back warm"
        );
        drop(cached);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log holds full `Scheduled` results (mapping and evaluation). The
    /// fixture's result record was logged by `vaesa-cli eval` when the memo
    /// still kept whole results, and its "no valid mapping" record is in
    /// the same format. Both load warm as costs and hit with the bits a
    /// fresh schedule gives.
    #[test]
    fn a_log_of_full_results_loads_warm_as_costs() {
        let dir = cache_dir("fullrecords");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("shard-00.jsonl"),
            include_str!("../tests/data/full_scheduled.jsonl"),
        )
        .unwrap();
        let cached = CachedScheduler::with_persistence(Scheduler::default(), 64, &dir).unwrap();
        assert_eq!(cached.cache_len(), 2);

        let plain = Scheduler::default();
        let mut a = ArchDescription {
            pe_count: 64,
            macs_per_pe: 768,
            accum_buf_bytes: 11520,
            weight_buf_bytes: 93696,
            input_buf_bytes: 91264,
            global_buf_bytes: 129814,
        };
        let conv5 = LayerShape::new("conv5", 3, 3, 13, 13, 256, 256, 1, 1);
        let want = plain.schedule(&a, &conv5).unwrap().cost();
        assert_eq!(bits(&cached.schedule(&a, &conv5).unwrap()), bits(&want));
        a.global_buf_bytes = 16;
        let conv1 = LayerShape::new("conv1", 11, 11, 55, 55, 3, 64, 4, 4);
        assert_eq!(
            cached.schedule(&a, &conv1).unwrap_err(),
            plain.schedule(&a, &conv1).unwrap_err()
        );

        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 0));
        assert_eq!(cached.persist_stats().unwrap().warm_hits, 2);
        drop(cached);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_gauges_publish_under_the_prefix() {
        let dir = cache_dir("gauges");
        let cached = CachedScheduler::with_persistence(Scheduler::default(), 64, &dir).unwrap();
        cached.schedule(&arch(), &conv()).unwrap();
        cached.schedule(&arch(), &conv()).unwrap();
        let registry = vaesa_obs::Registry::new();
        cached.publish_stats(&registry, "scheduler");
        let gauge = |name: &str| registry.gauge(name).get();
        assert_eq!(gauge("scheduler.persistent.hits"), 1.0);
        assert_eq!(gauge("scheduler.persistent.appends"), 1.0);
        assert_eq!(gauge("scheduler.persistent.warm_hits"), 0.0);
        assert_eq!(gauge("scheduler.persistent.flush_on_evict"), 0.0);
        drop(cached);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_env_defaults_to_in_memory() {
        // Without VAESA_EVAL_CACHE in this test process, from_env must
        // build a plain cache with no persistence attached.
        if std::env::var("VAESA_EVAL_CACHE").is_err() {
            let cached = CachedScheduler::from_env();
            assert!(cached.persist_stats().is_none());
            assert!(cached.persistence_dir().is_none());
        }
    }

    #[test]
    fn dataflow_search_never_loses_to_weight_stationary() {
        let s = Scheduler::default();
        for layer in [
            conv(),
            LayerShape::fully_connected("fc", 512, 256),
            LayerShape::new("dw", 3, 3, 28, 28, 1, 128, 1, 1),
        ] {
            let ws = s.schedule(&arch(), &layer).unwrap();
            let any = s.schedule_with_dataflows(&arch(), &layer).unwrap();
            assert!(
                any.evaluation.edp() <= ws.evaluation.edp() * (1.0 + 1e-12),
                "dataflow search regressed on {}",
                layer.name()
            );
        }
    }

    #[test]
    fn random_paper_space_points_mostly_schedule() {
        use rand::SeedableRng;
        let space = DesignSpace::paper();
        let s = Scheduler::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let layer = conv();
        let mut ok = 0;
        for _ in 0..50 {
            let c = space.random(&mut rng);
            if s.schedule(&space.describe(&c), &layer).is_ok() {
                ok += 1;
            }
        }
        // The vast majority of the paper's space is valid for a midsize conv.
        assert!(ok >= 40, "only {ok}/50 random points were schedulable");
    }

    #[test]
    fn workload_edp_varies_across_design_points() {
        use rand::SeedableRng;
        // The search problem is only meaningful if EDP differs across archs.
        let space = DesignSpace::paper();
        let s = Scheduler::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let layers = workloads::alexnet();
        let mut edps = Vec::new();
        for _ in 0..20 {
            let c = space.random(&mut rng);
            if let Ok(w) = s.schedule_workload(&space.describe(&c), &layers) {
                edps.push(w.edp());
            }
        }
        assert!(edps.len() >= 10);
        let min = edps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = edps.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "EDP range too flat: {min:.3e}..{max:.3e}");
    }
}
