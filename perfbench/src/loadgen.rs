//! Open-loop load over loopback TCP, from one process.
//!
//! Requests are scheduled ahead of time (Poisson arrivals from the seed)
//! and sent by [`SENDERS`] threads, each with at most one connection open:
//! a sender takes the earliest due request, sends it on a fresh connection
//! (the server has no keep-alive), and reads the response to the end. A
//! request is timed from when it was due, so a stalled server or a busy
//! sender shows up as latency on the requests behind it; how late the
//! generator ran is reported separately.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats;
use crate::tracer::{Tracer, MAIN_TID};

/// Sender threads, one open connection each (the machine has two cores).
pub const SENDERS: usize = 2;
/// A request with no complete response after this long has failed.
pub const TIMEOUT: Duration = Duration::from_secs(2);
/// The latency limit of the rate sweep.
pub const STEP_LIMIT: Duration = Duration::from_millis(100);
/// Share of a step's scheduled requests that must meet [`STEP_LIMIT`].
pub const STEP_SHARE: f64 = 0.99;

/// Arrival offsets of a Poisson process of `rate` per second over `span`.
pub fn poisson(rng: &mut ChaCha8Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        at += -(1.0 - u).ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// The raw bytes of one HTTP/1.1 request.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What a request is for, which decides how its response is checked.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `POST /predict` with this many rows.
    Predict { rows: usize },
    /// `POST /decode` of one latent row.
    Decode,
    /// `POST /search`.
    Submit { engine: &'static str, budget: u64 },
    /// `GET /jobs/<job>` for a search submitted at `submitted`.
    Poll {
        job: u64,
        engine: &'static str,
        budget: u64,
        submitted: Duration,
    },
}

impl Kind {
    fn label(&self) -> &'static str {
        match self {
            Kind::Predict { .. } => "predict",
            Kind::Decode => "decode",
            Kind::Submit { .. } => "search",
            Kind::Poll { .. } => "poll",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Task {
    /// When it is due, from the phase origin.
    pub due: Duration,
    /// A task no sender has started by then is never sent.
    pub deadline: Duration,
    /// What it is for.
    pub kind: Kind,
    /// The request bytes.
    pub raw: Vec<u8>,
}

/// A response, split into the parts the checks need.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The `X-Request-Id` header.
    pub request_id: Option<String>,
    /// The body.
    pub body: String,
}

/// What happened to one task. Times are offsets from the phase origin.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The task.
    pub task: Task,
    /// When a sender started it; `None` if it was never sent.
    pub start: Option<Duration>,
    /// Connection set-up time.
    pub connect: Duration,
    /// From the request being written to the first response byte.
    pub ttfb: Duration,
    /// When the last response byte arrived.
    pub done: Duration,
    /// The response, or why there is none (transport error, timeout).
    pub reply: Result<Reply, String>,
}

impl Outcome {
    /// From when the request was due to its last response byte.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.task.due)
    }

    /// How late the generator started the request.
    pub fn late(&self) -> Option<Duration> {
        self.start.map(|s| s.saturating_sub(self.task.due))
    }

    /// The reply, when a 2xx one arrived.
    pub fn success(&self) -> Option<&Reply> {
        self.reply
            .as_ref()
            .ok()
            .filter(|r| (200..300).contains(&r.status))
    }
}

/// Marks along one exchange on the wire.
struct Wire {
    connected: Instant,
    sent: Instant,
    first_byte: Instant,
}

/// Sends `raw` on a fresh connection and reads the response to its end.
fn exchange(addr: SocketAddr, raw: &[u8], start: Instant) -> (Option<Wire>, Result<Reply, String>) {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT);
    let connected = Instant::now();
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => return (None, Err(format!("connect: {e}"))),
    };
    let setup = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(TIMEOUT)))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .and_then(|()| stream.write_all(raw));
    let sent = Instant::now();
    if let Err(e) = setup {
        return (None, Err(format!("send: {e}")));
    }
    let mut raw_reply = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                raw_reply.extend_from_slice(&chunk[..n]);
            }
            Err(e) => return (None, Err(format!("receive: {e}"))),
        }
        if start.elapsed() > TIMEOUT {
            return (None, Err("timeout".to_string()));
        }
    }
    if start.elapsed() > TIMEOUT {
        return (None, Err("timeout".to_string()));
    }
    let wire = first_byte.map(|first_byte| Wire {
        connected,
        sent,
        first_byte,
    });
    (wire, parse_reply(&raw_reply))
}

fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a complete head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("response without a status")?;
    let mut reply = Reply {
        status,
        request_id: None,
        body: body.to_string(),
    };
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-request-id") {
                reply.request_id = Some(value.trim().to_string());
            }
        }
    }
    if length != Some(reply.body.len()) {
        return Err(format!(
            "body of {} bytes, Content-Length {length:?}",
            reply.body.len()
        ));
    }
    Ok(reply)
}

struct Extra {
    due: Duration,
    seq: u64,
    task: Task,
}

impl PartialEq for Extra {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for Extra {}
impl PartialOrd for Extra {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Extra {
    /// Reversed, so the max-heap pops the earliest task.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

#[derive(Default)]
struct Queue {
    fixed: VecDeque<Task>,
    extra: BinaryHeap<Extra>,
    seq: u64,
    busy: usize,
    done: Vec<Outcome>,
}

impl Queue {
    fn next_due(&self) -> Option<Duration> {
        let fixed = self.fixed.front().map(|t| t.due);
        let extra = self.extra.peek().map(|e| e.due);
        match (fixed, extra) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn pop(&mut self) -> Option<Task> {
        match (self.fixed.front(), self.extra.peek()) {
            (Some(f), Some(e)) if e.due < f.due => self.extra.pop().map(|e| e.task),
            (Some(_), _) => self.fixed.pop_front(),
            (None, Some(_)) => self.extra.pop().map(|e| e.task),
            (None, None) => None,
        }
    }
}

/// Runs `tasks` (sorted by due time) against `addr` from [`SENDERS`]
/// threads, starting the clock at `origin`. After each outcome, `follow`
/// may schedule one more task (a job poll). Returns every outcome, unsent
/// tasks included.
pub fn run(
    addr: SocketAddr,
    origin: Instant,
    tasks: Vec<Task>,
    tracer: &Tracer,
    follow: &(dyn Fn(&Outcome) -> Option<Task> + Sync),
) -> Vec<Outcome> {
    let queue = Mutex::new(Queue {
        fixed: tasks.into(),
        ..Queue::default()
    });
    std::thread::scope(|scope| {
        for sender in 0..SENDERS {
            let queue = &queue;
            scope.spawn(move || send_loop(addr, origin, queue, tracer, follow, sender as u64));
        }
    });
    let mut done = queue.into_inner().expect("queue lock").done;
    done.sort_by_key(|o| o.task.due);
    done
}

fn send_loop(
    addr: SocketAddr,
    origin: Instant,
    queue: &Mutex<Queue>,
    tracer: &Tracer,
    follow: &(dyn Fn(&Outcome) -> Option<Task> + Sync),
    sender: u64,
) {
    let tid = MAIN_TID + 1 + sender;
    loop {
        let task = {
            let mut q = queue.lock().expect("queue lock");
            match q.next_due() {
                Some(due) if due <= origin.elapsed() => {
                    q.busy += 1;
                    q.pop()
                }
                Some(due) => {
                    // Wake at the due time, or sooner to pick up a follow-up
                    // task scheduled meanwhile.
                    drop(q);
                    let wait = due.saturating_sub(origin.elapsed());
                    std::thread::sleep(wait.min(Duration::from_millis(2)));
                    continue;
                }
                None if q.busy == 0 => return,
                None => {
                    drop(q);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        };
        let task = task.expect("a due task was peeked");
        let outcome = send(addr, origin, task, tracer, tid);
        let next = follow(&outcome);
        let mut q = queue.lock().expect("queue lock");
        if let Some(task) = next {
            q.seq += 1;
            let seq = q.seq;
            q.extra.push(Extra {
                due: task.due,
                seq,
                task,
            });
        }
        q.busy -= 1;
        q.done.push(outcome);
    }
}

fn send(addr: SocketAddr, origin: Instant, task: Task, tracer: &Tracer, tid: u64) -> Outcome {
    let start = Instant::now();
    let since = |t: Instant| t.saturating_duration_since(origin);
    if since(start) > task.deadline {
        return Outcome {
            task,
            start: None,
            connect: Duration::ZERO,
            ttfb: Duration::ZERO,
            done: Duration::ZERO,
            reply: Err("unsent: the generator fell behind".to_string()),
        };
    }
    let (wire, reply) = exchange(addr, &task.raw, start);
    let end = Instant::now();
    let (connect, ttfb) = match &wire {
        Some(w) => {
            let label = task.kind.label();
            tracer.span(&format!("bench/client/{label}"), tid, start, end);
            tracer.span("bench/client/connect", tid, start, w.connected);
            tracer.span("bench/client/send", tid, w.connected, w.sent);
            tracer.span("bench/client/first_byte", tid, w.sent, w.first_byte);
            tracer.span("bench/client/last_byte", tid, w.first_byte, end);
            (w.connected - start, w.first_byte - w.sent)
        }
        None => (Duration::ZERO, Duration::ZERO),
    };
    Outcome {
        task,
        start: Some(since(start)),
        connect,
        ttfb,
        done: since(end),
        reply,
    }
}

/// The generator's own record for one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Requests scheduled.
    pub scheduled: usize,
    /// Requests a sender started.
    pub sent: usize,
    /// 99th-percentile lateness of the started requests, ms.
    pub late_p99_ms: f64,
}

/// Counts and lateness over `outcomes`.
pub fn phase_stats(outcomes: &[Outcome]) -> PhaseStats {
    let late: Vec<f64> = outcomes
        .iter()
        .filter_map(Outcome::late)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    PhaseStats {
        scheduled: outcomes.len(),
        sent: late.len(),
        late_p99_ms: stats::nearest_rank(&late, 0.99).unwrap_or(0.0),
    }
}

/// One step of the rate sweep.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled in the step.
    pub scheduled: usize,
    /// Requests answered with a valid 2xx within [`STEP_LIMIT`] of their
    /// due time. Unsent, failed and timed-out requests never count.
    pub within: usize,
    /// How far behind the generator was when the step ended.
    pub lag: Duration,
}

impl Step {
    /// Judges one step from its outcomes; `valid` checks a 2xx body.
    pub fn judge(
        rate: f64,
        end: Duration,
        outcomes: &[Outcome],
        valid: impl Fn(&Outcome) -> bool,
    ) -> Step {
        let within = outcomes
            .iter()
            .filter(|o| o.success().is_some() && valid(o) && o.latency() <= STEP_LIMIT)
            .count();
        let lag = outcomes
            .iter()
            .filter(|o| o.start.is_none())
            .map(|o| end.saturating_sub(o.task.due))
            .max()
            .unwrap_or(Duration::ZERO);
        Step {
            rate,
            scheduled: outcomes.len(),
            within,
            lag,
        }
    }

    /// Whether the step met the limit without a growing backlog.
    pub fn passes(&self) -> bool {
        self.within as f64 >= STEP_SHARE * self.scheduled as f64 && self.lag < STEP_LIMIT
    }
}

/// The highest passing rate of a sweep (0 when none passes).
pub fn max_rate(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.passes())
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn schedule(seed: u64) -> Vec<Duration> {
        poisson(
            &mut ChaCha8Rng::seed_from_u64(seed),
            40.0,
            Duration::from_secs(25),
        )
    }

    #[test]
    fn poisson_schedule_is_seeded() {
        let a = schedule(3);
        assert_eq!(a, schedule(3));
        assert_ne!(a, schedule(4));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 1000 expected arrivals; a 5-sigma band is about +-160.
        assert!((840..1160).contains(&a.len()), "{}", a.len());
    }

    fn task(due_ms: u64) -> Task {
        Task {
            due: Duration::from_millis(due_ms),
            deadline: Duration::from_secs(1),
            kind: Kind::Predict { rows: 1 },
            raw: Vec::new(),
        }
    }

    fn answered(due_ms: u64, latency_ms: u64, status: u16) -> Outcome {
        Outcome {
            task: task(due_ms),
            start: Some(Duration::from_millis(due_ms)),
            connect: Duration::ZERO,
            ttfb: Duration::ZERO,
            done: Duration::from_millis(due_ms + latency_ms),
            reply: Ok(Reply {
                status,
                ..Reply::default()
            }),
        }
    }

    fn unsent(due_ms: u64) -> Outcome {
        Outcome {
            start: None,
            reply: Err("unsent".to_string()),
            ..answered(due_ms, 0, 0)
        }
    }

    fn timed_out(due_ms: u64) -> Outcome {
        Outcome {
            reply: Err("timeout".to_string()),
            ..answered(due_ms, 50, 0)
        }
    }

    #[test]
    fn unsent_and_timed_out_requests_miss_the_limit() {
        let end = Duration::from_millis(1000);
        let mut outcomes: Vec<Outcome> = (0..99).map(|i| answered(i * 10, 20, 200)).collect();
        outcomes.push(answered(990, 20, 200));
        let step = Step::judge(100.0, end, &outcomes, |_| true);
        assert_eq!(step.within, 100);
        assert!(step.passes());

        let mut late = outcomes.clone();
        late[5] = answered(50, 101, 200);
        late[6] = answered(60, 10, 503);
        let step = Step::judge(100.0, end, &late, |_| true);
        assert_eq!(step.within, 98);
        assert!(!step.passes());

        let mut lost = outcomes.clone();
        lost[7] = timed_out(70);
        let step = Step::judge(100.0, end, &lost, |_| true);
        assert_eq!(step.within, 99);
        assert!(step.passes(), "one miss in 100 is within the 99% share");
        lost[8] = unsent(980);
        let step = Step::judge(100.0, end, &lost, |_| true);
        assert_eq!(step.within, 98);
        assert_eq!(step.lag, Duration::from_millis(20));
        assert!(!step.passes());

        // An invalid body counts like a failure.
        let step = Step::judge(100.0, end, &outcomes, |o| o.task.due != Duration::ZERO);
        assert_eq!(step.within, 99);
    }

    #[test]
    fn max_rate_is_the_highest_passing_step() {
        let step = |rate: f64, within: usize, lag_ms: u64| Step {
            rate,
            scheduled: 100,
            within,
            lag: Duration::from_millis(lag_ms),
        };
        let sweep = [
            step(50.0, 100, 0),
            step(100.0, 99, 10),
            step(200.0, 98, 0),
            step(400.0, 100, 150),
            step(800.0, 10, 900),
        ];
        assert_eq!(max_rate(&sweep), 100.0);
        assert_eq!(max_rate(&sweep[2..]), 0.0);
        // A later passing step still counts: the highest pass wins.
        assert_eq!(max_rate(&[step(50.0, 90, 0), step(100.0, 100, 0)]), 100.0);
    }

    #[test]
    fn replies_are_split_and_framing_is_checked() {
        let ok =
            parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Request-Id: r7-3\r\n\r\n{}")
                .unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.request_id.as_deref(), Some("r7-3"));
        assert_eq!(ok.body, "{}");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}").is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
