//! Asynchronous search jobs: a bounded job table plus a fixed pool of
//! worker threads draining a submission queue.
//!
//! `POST /search` enqueues; `GET /jobs/<id>` polls. The table holds at most
//! its capacity in jobs — when full, terminal jobs (done/failed) are
//! evicted oldest-first to make room, and if every slot is still queued or
//! running the submission is rejected (HTTP 429) rather than queued
//! unboundedly. Workers are plain OS threads: each search already fans its
//! candidate evaluation out across the `vaesa-par` pool internally, so the
//! worker count only bounds how many *searches* run concurrently, not how
//! parallel each one is.

use serde::Serialize;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use vaesa_accel::ArchDescription;

/// A search request as validated at submission time.
#[derive(Debug, Clone)]
pub struct SearchSpec {
    /// Engine name (`random`, `bo`, `evo`, `sa`, `cd`, `gd`).
    pub engine: String,
    /// `latent` (the served default) or `direct`.
    pub mode: String,
    /// True-evaluation budget.
    pub budget: usize,
    /// RNG seed; identical specs reproduce identical results.
    pub seed: u64,
}

/// The summary of a finished search, shaped for the JSON response.
#[derive(Debug, Clone, Serialize)]
pub struct SearchSummary {
    /// Trace label (`vae_bo`, `random`, ...).
    pub label: String,
    /// Samples actually spent.
    pub evals: u64,
    /// Best objective value found (EDP), if any sample was valid.
    pub best_value: Option<f64>,
    /// The best point in the searched space (latent or normalized input).
    pub best_point: Option<Vec<f64>>,
    /// The decoded/snap-rounded hardware design achieving `best_value`.
    pub best_arch: Option<ArchDescription>,
}

/// Lifecycle of one job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Accepted, not yet picked up by a worker.
    Queued,
    /// A worker is running the search.
    Running,
    /// Finished successfully.
    Done(SearchSummary),
    /// The search failed (e.g. invalid engine/mode combination).
    Failed(String),
}

impl JobStatus {
    /// The status label used in JSON responses.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done(_) | JobStatus::Failed(_))
    }
}

/// One tracked job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The id `GET /jobs/<id>` polls.
    pub id: u64,
    /// The spec as submitted.
    pub spec: SearchSpec,
    /// Current lifecycle state.
    pub status: JobStatus,
}

#[derive(Debug, Default)]
struct TableState {
    jobs: HashMap<u64, Job>,
    /// Submission order, for oldest-first eviction of terminal jobs.
    order: Vec<u64>,
    next_id: u64,
}

/// The bounded job table. Thread-safe; shared between the HTTP handlers
/// and the worker pool.
#[derive(Debug)]
pub struct JobTable {
    state: Mutex<TableState>,
    changed: Condvar,
    capacity: usize,
}

impl JobTable {
    /// Creates a table holding at most `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "job table capacity must be at least 1");
        JobTable {
            state: Mutex::new(TableState::default()),
            changed: Condvar::new(),
            capacity,
        }
    }

    /// Admits a job, evicting the oldest terminal job if the table is
    /// full. Returns the new job id, or `Err` (→ HTTP 429) when every slot
    /// is still queued or running.
    pub fn submit(&self, spec: SearchSpec) -> Result<u64, String> {
        let mut state = self.state.lock().expect("job table lock");
        if state.jobs.len() >= self.capacity {
            let evict = state
                .order
                .iter()
                .copied()
                .find(|id| state.jobs.get(id).is_some_and(|j| j.status.is_terminal()));
            match evict {
                Some(id) => {
                    state.jobs.remove(&id);
                    state.order.retain(|&o| o != id);
                    vaesa_obs::counter("serve.jobs.evicted").incr();
                }
                None => {
                    return Err(format!(
                        "job table full: {} jobs queued or running",
                        self.capacity
                    ))
                }
            }
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            Job {
                id,
                spec,
                status: JobStatus::Queued,
            },
        );
        state.order.push(id);
        vaesa_obs::counter("serve.jobs.submitted").incr();
        Ok(id)
    }

    /// A snapshot of one job.
    pub fn get(&self, id: u64) -> Option<Job> {
        self.state
            .lock()
            .expect("job table lock")
            .jobs
            .get(&id)
            .cloned()
    }

    /// Number of jobs currently tracked (any status).
    pub fn len(&self) -> usize {
        self.state.lock().expect("job table lock").jobs.len()
    }

    /// True when no jobs are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks a job running (worker pickup).
    pub fn mark_running(&self, id: u64) {
        self.set_status(id, JobStatus::Running);
    }

    /// Records a job's terminal status and wakes any waiters.
    pub fn finish(&self, id: u64, status: JobStatus) {
        debug_assert!(status.is_terminal());
        self.set_status(id, status);
    }

    fn set_status(&self, id: u64, status: JobStatus) {
        let mut state = self.state.lock().expect("job table lock");
        if let Some(job) = state.jobs.get_mut(&id) {
            job.status = status;
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Blocks until job `id` reaches a terminal state (used by tests and
    /// graceful shutdown; HTTP clients poll instead).
    pub fn wait_terminal(&self, id: u64) -> Option<Job> {
        let mut state = self.state.lock().expect("job table lock");
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(job) if job.status.is_terminal() => return Some(job.clone()),
                Some(_) => state = self.changed.wait(state).expect("job table lock"),
            }
        }
    }
}

/// The worker pool: a queue of job ids drained by OS threads that run the
/// provided search for each job and record its outcome in the table.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<u64>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads that, for every queued job id still in
    /// `jobs`, mark the job running, call `run` on its spec, and finish
    /// the job with the result. A panic in `run` fails the job with the
    /// panic message instead of killing the worker.
    pub fn spawn<F>(workers: usize, jobs: Arc<JobTable>, run: F) -> Self
    where
        F: Fn(&SearchSpec) -> Result<SearchSummary, String> + Send + Sync + 'static,
    {
        let (sender, receiver) = mpsc::channel::<u64>();
        let receiver = Arc::new(Mutex::new(receiver));
        let run = Arc::new(run);
        let handles = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let jobs = Arc::clone(&jobs);
                let run = Arc::clone(&run);
                std::thread::Builder::new()
                    .name(format!("vaesa-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue; a
                        // long-running search must not serialize the pool.
                        let next = {
                            let rx: &Receiver<u64> = &receiver.lock().expect("worker queue");
                            rx.recv()
                        };
                        let Ok(id) = next else {
                            break; // queue closed: shutdown
                        };
                        let Some(job) = jobs.get(id) else {
                            continue; // evicted before pickup
                        };
                        jobs.mark_running(id);
                        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(&job.spec)));
                        jobs.finish(
                            id,
                            match outcome {
                                Ok(Ok(summary)) => JobStatus::Done(summary),
                                Ok(Err(message)) => JobStatus::Failed(message),
                                Err(payload) => JobStatus::Failed(format!(
                                    "search panicked: {}",
                                    vaesa_obs::panic_message(&*payload)
                                )),
                            },
                        );
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            handles,
        }
    }

    /// Queues a job id for execution.
    ///
    /// # Panics
    ///
    /// Panics if called after [`WorkerPool::shutdown`].
    pub fn enqueue(&self, id: u64) {
        self.sender
            .as_ref()
            .expect("pool is running")
            .send(id)
            .expect("workers alive");
    }

    /// Closes the queue and joins every worker, letting in-flight jobs
    /// finish first.
    pub fn shutdown(&mut self) {
        self.sender.take(); // closing the channel stops the workers
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SearchSpec {
        SearchSpec {
            engine: "random".to_string(),
            mode: "latent".to_string(),
            budget: 4,
            seed: 1,
        }
    }

    #[test]
    fn submit_get_and_finish_round_trip() {
        let table = JobTable::new(4);
        let id = table.submit(spec()).unwrap();
        assert!(matches!(table.get(id).unwrap().status, JobStatus::Queued));
        table.mark_running(id);
        assert!(matches!(table.get(id).unwrap().status, JobStatus::Running));
        table.finish(id, JobStatus::Failed("nope".to_string()));
        let job = table.wait_terminal(id).unwrap();
        assert_eq!(job.status.name(), "failed");
        assert!(table.get(9999).is_none());
    }

    #[test]
    fn full_table_evicts_terminal_jobs_oldest_first_and_rejects_otherwise() {
        let table = JobTable::new(2);
        let a = table.submit(spec()).unwrap();
        let b = table.submit(spec()).unwrap();
        // Both active: a third submission has nowhere to go.
        assert!(table.submit(spec()).is_err());
        table.finish(
            b,
            JobStatus::Done(SearchSummary {
                label: "random".to_string(),
                evals: 4,
                best_value: None,
                best_point: None,
                best_arch: None,
            }),
        );
        table.finish(a, JobStatus::Failed("x".to_string()));
        // Now `a` (older) is evicted to admit the new job; `b` survives.
        let c = table.submit(spec()).unwrap();
        assert!(table.get(a).is_none());
        assert!(table.get(b).is_some());
        assert!(table.get(c).is_some());
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn worker_pool_executes_queued_jobs_and_shuts_down() {
        let table = Arc::new(JobTable::new(8));
        let mut pool = WorkerPool::spawn(2, Arc::clone(&table), |spec| {
            Err(format!("seed {} executed", spec.seed))
        });
        let ids: Vec<u64> = (0..5).map(|_| table.submit(spec()).unwrap()).collect();
        for &id in &ids {
            pool.enqueue(id);
        }
        for &id in &ids {
            let job = table.wait_terminal(id).unwrap();
            match job.status {
                JobStatus::Failed(msg) => assert!(msg.contains("executed")),
                other => panic!("unexpected status {other:?}"),
            }
        }
        pool.shutdown();
    }

    #[test]
    fn a_panicking_search_fails_its_job_and_the_worker_survives() {
        let table = Arc::new(JobTable::new(8));
        let pool = WorkerPool::spawn(1, Arc::clone(&table), |spec| {
            assert!(spec.seed != 0, "seed 0 is poisoned");
            Ok(SearchSummary {
                label: "random".to_string(),
                evals: spec.budget as u64,
                best_value: None,
                best_point: None,
                best_arch: None,
            })
        });
        let poisoned = table.submit(SearchSpec { seed: 0, ..spec() }).unwrap();
        let healthy = table.submit(spec()).unwrap();
        pool.enqueue(poisoned);
        pool.enqueue(healthy);
        // Wait on a thread the test can abandon: before the fix the
        // poisoned job stayed `running` forever.
        let (tx, rx) = mpsc::channel();
        let waiter = Arc::clone(&table);
        std::thread::spawn(move || {
            let _ = tx.send((
                waiter.wait_terminal(poisoned),
                waiter.wait_terminal(healthy),
            ));
        });
        let (first, second) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a job hung after the search panicked");
        match first.unwrap().status {
            JobStatus::Failed(msg) => {
                assert!(msg.contains("search panicked: seed 0 is poisoned"), "{msg}")
            }
            other => panic!("unexpected status {other:?}"),
        }
        assert_eq!(second.unwrap().status.name(), "done");
    }
}
