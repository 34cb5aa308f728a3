//! Request coalescing: an admission queue that merges the items of
//! concurrent callers into one batched invocation of the underlying
//! compute path.
//!
//! The batched paths this daemon serves (`GpRegressor::predict_batch`, the
//! decoder forward pass, `score_batch`) amortize their fixed costs across
//! rows, so N concurrent one-row HTTP requests should cost one batch of N,
//! not N batches of one. [`Batcher::submit`] implements the classic
//! leader/follower scheme: the first caller into an accumulation window
//! becomes the leader, waits [`Batcher::window`] for followers to append
//! their rows, runs the compute closure once over the union, and hands each
//! caller back exactly the slice of results corresponding to its rows.
//!
//! Ordering within a batch follows submission order, and the compute
//! closure is required to be row-independent (row `i` of the output depends
//! only on row `i` of the input) — which every batched path in this
//! workspace guarantees — so coalescing is invisible to callers except in
//! latency and throughput.
//!
//! A panic inside the compute closure is contained: the leader publishes
//! the failure for its generation, and every rider of that batch (leader
//! included) gets an `Err` instead of waiting forever.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vaesa_obs::Histogram;

struct BatchState<T, R> {
    /// Rows accumulated for the batch currently forming.
    pending: Vec<T>,
    /// Callers that contributed to the forming batch (leader included).
    submitters: usize,
    /// Request ids of tagged contributors to the forming batch.
    tags: Vec<String>,
    /// Enqueue instants of the forming batch's contributors (one per
    /// submit call), drained at batch close to record queue-wait.
    enqueued: Vec<Instant>,
    /// Whether the forming batch already has a leader waiting the window.
    has_leader: bool,
    /// Id of the batch currently forming; completed ids index `results`.
    generation: u64,
    /// Completed batches awaiting pickup: generation → (results or the
    /// compute failure, readers still to collect). Entries are removed
    /// when the last reader leaves.
    results: HashMap<u64, (BatchOutcome<R>, usize)>,
    /// Total batches executed (for the coalescing stats).
    batches: u64,
    /// Total submit calls (for the coalescing stats).
    submits: u64,
}

impl<T, R> Default for BatchState<T, R> {
    fn default() -> Self {
        BatchState {
            pending: Vec::new(),
            submitters: 0,
            tags: Vec::new(),
            enqueued: Vec::new(),
            has_leader: false,
            generation: 0,
            results: HashMap::new(),
            batches: 0,
            submits: 0,
        }
    }
}

/// One executed batch: every row's result, or why the compute failed.
type BatchOutcome<R> = Result<Vec<R>, String>;

/// What a caller learns about the batch its submission rode in: identity
/// and size for the access log, plus (leader only) the tagged membership
/// recorded on the leader's span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchInfo {
    /// The batch generation: stable id shared by every rider.
    pub batch_id: u64,
    /// Total rows in the executed batch.
    pub size: usize,
    /// Whether this caller led the batch (ran the compute closure).
    pub leader: bool,
    /// Request ids of every tagged contributor (leader only; followers
    /// get an empty list — membership lives on the leader's record).
    pub members: Vec<String>,
}

/// Point-in-time coalescing counters: how many submit calls were served by
/// how many underlying batch executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherStats {
    /// Calls to [`Batcher::submit`].
    pub submits: u64,
    /// Batch executions of the compute closure.
    pub batches: u64,
}

/// Coalesces concurrent submissions into single batched invocations of a
/// row-independent compute function. See the module docs.
pub struct Batcher<T, R> {
    state: Mutex<BatchState<T, R>>,
    wakeup: Condvar,
    window: Duration,
    /// Per-batch instruments (queue-wait latency, batch size), present
    /// only for named batchers — anonymous ones record nothing.
    instruments: Option<BatcherInstruments>,
    #[allow(clippy::type_complexity)]
    compute: Box<dyn Fn(Vec<T>) -> Vec<R> + Send + Sync>,
}

#[derive(Debug)]
struct BatcherInstruments {
    /// `serve.coalesce.<name>.queue_wait_ns`: time each submission spent
    /// in the accumulation window before its batch closed.
    queue_wait: Arc<Histogram>,
    /// `serve.coalesce.<name>.batch_size`: rows per executed batch.
    batch_size: Arc<Histogram>,
}

impl<T, R> std::fmt::Debug for Batcher<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("window", &self.window)
            .finish()
    }
}

impl<T: Send, R: Send + Clone> Batcher<T, R> {
    /// Creates a batcher that waits `window` for followers before running
    /// `compute`. `compute` must return exactly one result per input row,
    /// with row `i` of the output a function of row `i` of the input only.
    pub fn new(
        window: Duration,
        compute: impl Fn(Vec<T>) -> Vec<R> + Send + Sync + 'static,
    ) -> Self {
        Batcher {
            state: Mutex::new(BatchState::default()),
            wakeup: Condvar::new(),
            window,
            instruments: None,
            compute: Box::new(compute),
        }
    }

    /// Like [`Batcher::new`], but records per-batch instruments into the
    /// global registry: `serve.coalesce.<name>.queue_wait_ns` and
    /// `serve.coalesce.<name>.batch_size` histograms.
    pub fn named(
        window: Duration,
        name: &str,
        compute: impl Fn(Vec<T>) -> Vec<R> + Send + Sync + 'static,
    ) -> Self {
        let mut batcher = Self::new(window, compute);
        batcher.instruments = Some(BatcherInstruments {
            queue_wait: vaesa_obs::histogram(&format!("serve.coalesce.{name}.queue_wait_ns")),
            batch_size: vaesa_obs::histogram(&format!("serve.coalesce.{name}.batch_size")),
        });
        batcher
    }

    /// Submits `items` and blocks until their results are available,
    /// returning exactly `items.len()` results in submission order. The
    /// caller may end up leading a batch (running the compute closure for
    /// everyone) or following one (sleeping until the leader finishes).
    ///
    /// # Errors
    ///
    /// Returns the panic message if the compute closure panicked (or broke
    /// the one-result-per-row contract) on the batch these rows rode in.
    pub fn submit(&self, items: Vec<T>) -> Result<Vec<R>, String> {
        self.submit_tagged(items, None).map(|(results, _)| results)
    }

    /// [`Batcher::submit`] with request attribution: `tag` (usually a
    /// request id) is recorded as batch membership, and the returned
    /// [`BatchInfo`] identifies the batch the rows rode in.
    ///
    /// # Errors
    ///
    /// Same contract as [`Batcher::submit`].
    pub fn submit_tagged(
        &self,
        items: Vec<T>,
        tag: Option<&str>,
    ) -> Result<(Vec<R>, BatchInfo), String> {
        let n = items.len();
        if n == 0 {
            return Ok((
                Vec::new(),
                BatchInfo {
                    batch_id: 0,
                    size: 0,
                    leader: false,
                    members: Vec::new(),
                },
            ));
        }
        let mut state = self.state.lock().expect("batcher lock");
        state.submits += 1;
        let my_generation = state.generation;
        let offset = state.pending.len();
        state.pending.extend(items);
        state.submitters += 1;
        if let Some(tag) = tag {
            state.tags.push(tag.to_string());
        }
        if self.instruments.is_some() {
            state.enqueued.push(Instant::now());
        }

        if !state.has_leader {
            state.has_leader = true;
            // Leader: give followers the window to pile in, then close the
            // batch. Spurious wakeups re-check the deadline.
            let deadline = Instant::now() + self.window;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, _) = self
                    .wakeup
                    .wait_timeout(state, deadline - now)
                    .expect("batcher lock");
                state = next;
            }
            let batch = std::mem::take(&mut state.pending);
            let members = std::mem::take(&mut state.tags);
            let enqueued = std::mem::take(&mut state.enqueued);
            let readers = state.submitters;
            state.submitters = 0;
            state.has_leader = false;
            state.generation += 1;
            state.batches += 1;
            drop(state);

            // Batch closed: record how long each rider queued, and how
            // large the executed batch was.
            if let Some(instruments) = &self.instruments {
                let close = Instant::now();
                for t in &enqueued {
                    instruments
                        .queue_wait
                        .record_duration(close.duration_since(*t));
                }
                instruments.batch_size.record(batch.len() as u64);
            }

            let size = batch.len();
            // The lock is not held here, so a panic would leave the
            // followers waiting on a generation nobody publishes: catch it
            // and publish the failure instead.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| self.compute_checked(batch)))
                .map_err(|payload| {
                    let message = vaesa_obs::panic_message(&*payload);
                    format!("batch compute panicked: {message}")
                });
            let mine = slice(&outcome, offset, n);
            let mut state = self.state.lock().expect("batcher lock");
            if readers > 1 {
                state.results.insert(my_generation, (outcome, readers - 1));
            }
            drop(state);
            self.wakeup.notify_all();
            Ok((
                mine?,
                BatchInfo {
                    batch_id: my_generation,
                    size,
                    leader: true,
                    members,
                },
            ))
        } else {
            // Follower: wait for our generation's outcome to be published.
            while !state.results.contains_key(&my_generation) {
                state = self.wakeup.wait(state).expect("batcher lock");
            }
            let (outcome, readers) = state
                .results
                .get_mut(&my_generation)
                .expect("checked in loop");
            let mine = slice(outcome, offset, n);
            let size = outcome.as_ref().map_or(0, Vec::len);
            *readers -= 1;
            if *readers == 0 {
                state.results.remove(&my_generation);
            }
            Ok((
                mine?,
                BatchInfo {
                    batch_id: my_generation,
                    size,
                    leader: false,
                    members: Vec::new(),
                },
            ))
        }
    }

    /// Coalescing counters since construction.
    pub fn stats(&self) -> BatcherStats {
        let state = self.state.lock().expect("batcher lock");
        BatcherStats {
            submits: state.submits,
            batches: state.batches,
        }
    }
}

/// One caller's rows of a batch outcome.
fn slice<R: Clone>(outcome: &BatchOutcome<R>, offset: usize, n: usize) -> Result<Vec<R>, String> {
    match outcome {
        Ok(results) => Ok(results[offset..offset + n].to_vec()),
        Err(message) => Err(message.clone()),
    }
}

impl<T: Send, R: Send + Clone> Batcher<T, R> {
    /// Runs the compute closure, asserting the one-result-per-row contract.
    fn compute_checked(&self, batch: Vec<T>) -> Vec<R> {
        let expected = batch.len();
        let results = (self.compute)(batch);
        assert_eq!(
            results.len(),
            expected,
            "batch compute must return one result per input row"
        );
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn sequential_submissions_each_form_their_own_batch() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let batcher = Batcher::new(Duration::from_millis(1), move |xs: Vec<i64>| {
            c.fetch_add(1, Ordering::SeqCst);
            xs.iter().map(|x| x * 10).collect()
        });
        assert_eq!(batcher.submit(vec![1, 2]).unwrap(), vec![10, 20]);
        assert_eq!(batcher.submit(vec![3]).unwrap(), vec![30]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(
            batcher.stats(),
            BatcherStats {
                submits: 2,
                batches: 2
            }
        );
    }

    #[test]
    fn empty_submissions_cost_nothing() {
        let batcher = Batcher::new(Duration::from_millis(1), |xs: Vec<i64>| xs);
        assert!(batcher.submit(Vec::new()).unwrap().is_empty());
        assert_eq!(batcher.stats().batches, 0);
    }

    #[test]
    fn concurrent_submissions_coalesce_and_route_results_correctly() {
        // A generous window plus a barrier makes all threads join the same
        // accumulation window deterministically enough to assert real
        // coalescing (strictly fewer batches than submitters).
        let threads = 8usize;
        let batcher = Arc::new(Batcher::new(
            Duration::from_millis(200),
            |xs: Vec<(usize, i64)>| xs.iter().map(|&(t, x)| (t, x * 2)).collect(),
        ));
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let batcher = Arc::clone(&batcher);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let items: Vec<(usize, i64)> =
                        (0..3).map(|i| (t, (t * 3 + i) as i64)).collect();
                    let out = batcher.submit(items.clone()).unwrap();
                    assert_eq!(out.len(), items.len());
                    for ((t_in, x), (t_out, y)) in items.iter().zip(&out) {
                        assert_eq!(t_in, t_out, "result routed to the wrong caller");
                        assert_eq!(*y, x * 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = batcher.stats();
        assert_eq!(stats.submits, threads as u64);
        assert!(
            stats.batches < threads as u64,
            "{} submitters ran {} batches — nothing coalesced",
            stats.submits,
            stats.batches
        );
    }

    #[test]
    fn tagged_submissions_report_batch_identity_and_membership() {
        let batcher = Batcher::new(Duration::from_millis(1), |xs: Vec<i64>| xs);
        let (out, info) = batcher.submit_tagged(vec![1, 2], Some("r1-0")).unwrap();
        assert_eq!(out, vec![1, 2]);
        assert!(info.leader, "a lone submitter leads its own batch");
        assert_eq!(info.batch_id, 0);
        assert_eq!(info.size, 2);
        assert_eq!(info.members, vec!["r1-0".to_string()]);
        // The next batch gets the next generation id.
        let (_, info2) = batcher.submit_tagged(vec![3], Some("r1-1")).unwrap();
        assert_eq!(info2.batch_id, 1);
        // Empty submissions ride no batch at all.
        let (out, info3) = batcher.submit_tagged(Vec::new(), Some("r1-2")).unwrap();
        assert!(out.is_empty());
        assert_eq!(info3.size, 0);
    }

    #[test]
    fn coalesced_tagged_submissions_share_a_batch_and_the_leader_sees_members() {
        let threads = 4usize;
        let batcher = Arc::new(Batcher::named(
            Duration::from_millis(200),
            "test_tagged",
            |xs: Vec<i64>| xs,
        ));
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let batcher = Arc::clone(&batcher);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let tag = format!("r-{t}");
                    batcher.submit_tagged(vec![t as i64], Some(&tag)).unwrap()
                })
            })
            .collect();
        let infos: Vec<BatchInfo> = handles.into_iter().map(|h| h.join().unwrap().1).collect();
        let leaders: Vec<&BatchInfo> = infos.iter().filter(|i| i.leader).collect();
        assert!(!leaders.is_empty());
        // Every member tag recorded on some leader, exactly once overall.
        let mut members: Vec<String> = leaders.iter().flat_map(|l| l.members.clone()).collect();
        members.sort();
        assert_eq!(members.len(), threads);
        // Followers carry the shared batch id and size but no members.
        for info in infos.iter().filter(|i| !i.leader) {
            assert!(info.members.is_empty());
            assert!(info.size >= 1);
            assert!(leaders.iter().any(|l| l.batch_id == info.batch_id));
        }
        // The named batcher recorded per-batch instruments globally.
        assert!(vaesa_obs::histogram("serve.coalesce.test_tagged.batch_size").count() >= 1);
        assert!(
            vaesa_obs::histogram("serve.coalesce.test_tagged.queue_wait_ns").count()
                >= threads as u64
        );
    }

    #[test]
    fn a_panicking_leader_fails_its_followers_instead_of_hanging_them() {
        // Any batch containing a negative row panics inside compute.
        let batcher = Arc::new(Batcher::new(Duration::from_secs(1), |xs: Vec<i64>| {
            assert!(xs.iter().all(|&x| x >= 0), "negative row");
            xs
        }));
        // Two riders released together land in one window: one leads, the
        // other follows. Each reports on a thread the test can abandon,
        // since before the fix the follower waited on the condvar forever.
        let barrier = Arc::new(Barrier::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        for row in [-1, 7] {
            let (batcher, barrier, tx) = (Arc::clone(&batcher), Arc::clone(&barrier), tx.clone());
            std::thread::spawn(move || {
                barrier.wait();
                let _ = tx.send(batcher.submit(vec![row]));
            });
        }
        for _ in 0..2 {
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a rider hung after the leader panicked");
            let err = outcome.expect_err("both rode the failed batch");
            assert!(
                err.contains("batch compute panicked: negative row"),
                "{err}"
            );
        }
        assert_eq!(batcher.stats().batches, 1, "the riders shared one batch");
        // The batcher keeps serving: nothing is poisoned or left pending.
        assert_eq!(batcher.submit(vec![4]).unwrap(), vec![4]);
    }
}
