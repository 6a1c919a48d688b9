//! The TCP front end and the daemon's lifecycle.
//!
//! This is the only nondeterministic component in the workspace — it
//! races against clients by nature — so its job is to *contain* that:
//! every effect a connection can have on the engine goes through exactly
//! one of (a) an fsynced ingress-journal append, or (b) the `draining`
//! flag. The worker never sees sockets; clients never see the engine.
//!
//! Each connection is handled on its own thread under `catch_unwind`
//! (a handler panic costs one connection, never the daemon), reads one
//! request, writes one response, and closes. The accept loop is a
//! non-blocking poll so a drain request can end it without tricks like
//! self-connecting.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dcmaint_obs::ObsRegistry;
use serde_json::json;

use crate::http::{read_request, respond, start_stream, HttpError, Request};
use crate::lock::{self, Inner, Shared, Unlocked};
use crate::queue::Spool;
use crate::spec::JobSpec;
use crate::worker::{run_worker, JobRecord, JobState};
use crate::ServeConfig;

/// Seconds clients are told to wait after a 503.
const RETRY_AFTER_SECS: u32 = 30;

/// A running daemon: front end + supervised worker.
pub struct Server {
    shared: Arc<Shared>,
    port: u16,
    accept: JoinHandle<()>,
    worker: JoinHandle<()>,
}

impl Server {
    /// Open the spool, recover pending work, bind the listener, and
    /// start the worker and accept threads.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let spool = Spool::open(&cfg.spool)?;
        let state = spool.load();
        let mut jobs = std::collections::BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        for j in &state.jobs {
            let (state, message) = match &j.outcome {
                None => (JobState::Queued, String::new()),
                Some((true, _)) => (JobState::Done, String::new()),
                Some((false, msg)) => (JobState::Failed, msg.clone()),
            };
            if state == JobState::Queued {
                queue.push_back(j.id);
            }
            jobs.insert(
                j.id,
                JobRecord {
                    id: j.id,
                    spec: j.spec.clone(),
                    state,
                    attempts: spool.read_attempts(j.id),
                    message,
                },
            );
        }
        let mut registry = ObsRegistry::enabled();
        if !queue.is_empty() {
            registry.add("serve/jobs-recovered", queue.len() as u64);
        }

        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared::new(
            cfg,
            spool,
            Inner {
                queue,
                jobs,
                next_id: state.next_id,
                registry,
                profiles: std::collections::BTreeMap::new(),
            },
        ));

        let worker = {
            let shared = shared.clone();
            lock::spawn(move |t| run_worker(&shared, t))
        };
        let accept = {
            let shared = shared.clone();
            lock::spawn(move |_| accept_loop(&shared, listener))
        };
        Ok(Server {
            shared,
            port,
            accept,
            worker,
        })
    }

    /// The bound TCP port (useful with `port: 0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Begin a graceful drain, exactly as `POST /v1/shutdown` does.
    pub fn request_shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Block until the daemon has drained and both threads exited.
    pub fn join(self) {
        let _ = self.worker.join();
        let _ = self.accept.join();
    }
}

fn begin_drain(shared: &Shared) {
    shared.draining.store(true, Ordering::SeqCst);
    shared.cv.notify_all();
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                lock::spawn(move |t| {
                    if catch_unwind(AssertUnwindSafe(|| handle_connection(&shared, t, stream)))
                        .is_err()
                    {
                        shared.count(t, "serve/handler-panics");
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if shared.draining.load(Ordering::SeqCst)
                    && shared.worker_stopped.load(Ordering::SeqCst)
                {
                    // No more lines will ever be published; release any
                    // blocked stream subscribers.
                    shared.fanout.close();
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn handle_connection(shared: &Shared, t: &mut Unlocked, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    match read_request(&mut reader) {
        Ok(req) => route(shared, t, &req, &mut writer),
        Err(HttpError::Bad(msg)) => {
            shared.count(t, "serve/bad-requests");
            let _ = respond(
                &mut writer,
                400,
                "application/json",
                &[],
                &render(&json!({ "error": msg })),
            );
        }
        Err(HttpError::Io(_)) => {}
    }
}

fn route(shared: &Shared, t: &mut Unlocked, req: &Request, w: &mut TcpStream) {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("POST", "/v1/jobs") => post_job(shared, t, req, w),
        ("POST", "/v1/shutdown") => {
            begin_drain(shared);
            shared.count(t, "serve/shutdowns");
            let _ = json_response(w, 200, &json!({ "draining": true }));
        }
        ("GET", "/v1/stream") => stream_journal(shared, t, w),
        ("GET", "/status") => status(shared, t, w),
        ("GET", "/metrics") => metrics(shared, t, w),
        ("GET", _) if path.starts_with("/v1/jobs/") => job_get(shared, t, path, w),
        (_, "/v1/jobs" | "/v1/shutdown" | "/v1/stream" | "/status" | "/metrics") => {
            let _ = json_response(w, 405, &json!({ "error": "method not allowed" }));
        }
        _ => {
            let _ = json_response(w, 404, &json!({ "error": "no such endpoint" }));
        }
    }
}

fn render(body: &serde_json::Value) -> Vec<u8> {
    serde_json::to_string(body)
        .expect("serializable")
        .into_bytes()
}

fn json_response(w: &mut TcpStream, status: u16, body: &serde_json::Value) -> io::Result<()> {
    respond(w, status, "application/json", &[], &render(body))
}

/// `POST /v1/jobs`: parse → shed or journal → 202. The ingress append
/// (and its fsync) happens under the lock so journal order equals id
/// order; the 202 is not sent until the record is durable.
fn post_job(shared: &Shared, t: &mut Unlocked, req: &Request, w: &mut TcpStream) {
    let body = String::from_utf8_lossy(&req.body);
    let spec = match JobSpec::parse(body.trim()) {
        Ok(spec) => spec,
        Err(e) => {
            shared.count(t, "serve/bad-specs");
            let _ = json_response(w, 400, &json!({ "error": e }));
            return;
        }
    };
    let accepted = {
        let mut g = shared.state(t);
        if shared.draining.load(Ordering::SeqCst) || g.queue.len() >= shared.cfg.max_queue {
            None
        } else {
            let id = g.next_id;
            if shared.spool.append_ingress(id, &spec).is_err() {
                Some(Err(()))
            } else {
                g.next_id += 1;
                g.queue.push_back(id);
                g.jobs.insert(
                    id,
                    JobRecord {
                        id,
                        spec: spec.clone(),
                        state: JobState::Queued,
                        attempts: 0,
                        message: String::new(),
                    },
                );
                Some(Ok(id))
            }
        }
    };
    match accepted {
        Some(Ok(id)) => {
            shared.cv.notify_all();
            shared.count(t, "serve/accepted");
            let _ = json_response(w, 202, &json!({ "id": id }));
        }
        Some(Err(())) => {
            shared.count(t, "serve/spool-errors");
            let _ = respond(
                w,
                503,
                "application/json",
                &[("Retry-After", RETRY_AFTER_SECS.to_string())],
                &render(&json!({ "error": "spool write failed" })),
            );
        }
        None => {
            shared.count(t, "serve/rejected-full");
            let _ = respond(
                w,
                503,
                "application/json",
                &[("Retry-After", RETRY_AFTER_SECS.to_string())],
                &render(&json!({ "error": "queue full or draining; retry later" })),
            );
        }
    }
}

fn record_json(rec: &JobRecord) -> serde_json::Value {
    json!({
        "id": rec.id,
        "spec": rec.spec.to_line(),
        "state": rec.state.label(),
        "attempts": rec.attempts,
        "message": rec.message.clone(),
    })
}

/// `GET /v1/jobs/<id>` and `GET /v1/jobs/<id>/output`.
fn job_get(shared: &Shared, t: &mut Unlocked, path: &str, w: &mut TcpStream) {
    let rest = path.strip_prefix("/v1/jobs/").expect("router checked");
    let (id_s, want_output) = match rest.strip_suffix("/output") {
        Some(id_s) => (id_s, true),
        None => (rest, false),
    };
    let Ok(id) = id_s.parse::<u64>() else {
        let _ = json_response(w, 404, &json!({ "error": "bad job id" }));
        return;
    };
    let rec = shared.state(t).jobs.get(&id).cloned();
    let Some(rec) = rec else {
        let _ = json_response(w, 404, &json!({ "error": "no such job" }));
        return;
    };
    if !want_output {
        let _ = json_response(w, 200, &record_json(&rec));
        return;
    }
    match rec.state {
        JobState::Done => match shared.spool.read_output(id) {
            Ok(bytes) => {
                let _ = respond(w, 200, "text/plain", &[], &bytes);
            }
            Err(e) => {
                let _ = json_response(w, 404, &json!({ "error": format!("output missing: {e}") }));
            }
        },
        JobState::Failed => {
            let _ = json_response(w, 409, &json!({ "error": rec.message }));
        }
        _ => {
            let _ = json_response(w, 404, &json!({ "error": "job not finished" }));
        }
    }
}

/// `GET /v1/stream`: live journal tail. The subscriber starts "now" and
/// is evicted (connection closed, counter bumped) if it lags the ring or
/// blocks writes past the timeout — either way the engine and other
/// subscribers never feel it.
fn stream_journal(shared: &Shared, t: &mut Unlocked, w: &mut TcpStream) {
    if start_stream(w, "application/jsonl").is_err() {
        return;
    }
    let _ = w.set_write_timeout(Some(Duration::from_millis(shared.cfg.write_timeout_ms)));
    shared.count(t, "serve/stream-subscribers");
    let mut cursor = shared.fanout.seq();
    loop {
        let p = shared.fanout.poll(cursor, Duration::from_millis(500));
        if p.missed > 0 {
            shared.count(t, "serve/stream-evicted-lag");
            let _ = w.write_all(
                format!("{{\"ev\":\"stream-lagged\",\"missed\":{}}}\n", p.missed).as_bytes(),
            );
            return;
        }
        for line in &p.lines {
            if w.write_all(line.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
                shared.count(t, "serve/stream-evicted-stall");
                return;
            }
        }
        if w.flush().is_err() {
            shared.count(t, "serve/stream-evicted-stall");
            return;
        }
        cursor = p.next;
        if p.closed {
            return;
        }
        // A quiet interval doubles as a liveness probe: a hung client
        // stops ACKing and the write timeout evicts it on the next line.
    }
}

fn status(shared: &Shared, t: &mut Unlocked, w: &mut TcpStream) {
    let g = shared.state(t);
    let count = |s: JobState| g.jobs.values().filter(|r| r.state == s).count();
    let body = json!({
        "state": if shared.draining.load(Ordering::SeqCst) { "draining" } else { "running" },
        "queued": count(JobState::Queued),
        "running": count(JobState::Running),
        "done": count(JobState::Done),
        "failed": count(JobState::Failed),
        "parked": count(JobState::Parked),
        "next_id": g.next_id,
        "stream_seq": shared.fanout.seq(),
    });
    drop(g);
    let _ = json_response(w, 200, &body);
}

/// `GET /metrics`: serve-plane counters as plain `name value` lines
/// (the historical format scripts grep), followed by Prometheus-style
/// text exposition of the engine profiles of finished `profile=1` jobs
/// — counters and histograms labeled by job id.
fn metrics(shared: &Shared, t: &mut Unlocked, w: &mut TcpStream) {
    let g = shared.state(t);
    let mut body = String::new();
    for (name, value) in g.registry.counters_sorted() {
        body.push_str(&format!("{name} {value}\n"));
    }
    let profiles = &g.profiles;
    if !profiles.is_empty() {
        body.push_str(
            "# HELP selfmaint_engine_prof_total engine self-profiler counter of a finished job\n\
             # TYPE selfmaint_engine_prof_total counter\n",
        );
        for (id, p) in profiles.iter() {
            for (name, v) in &p.counters {
                body.push_str(&format!(
                    "selfmaint_engine_prof_total{{job=\"{id}\",key=\"{name}\"}} {v}\n"
                ));
            }
        }
        let any_hist = profiles.values().any(|p| !p.histograms.is_empty());
        if any_hist {
            body.push_str(
                "# HELP selfmaint_engine_hist_seconds engine histogram (simulated seconds)\n\
                 # TYPE selfmaint_engine_hist_seconds summary\n",
            );
            for (id, p) in profiles.iter() {
                for (family, key, total, sum_us) in &p.histograms {
                    let labels = format!("job=\"{id}\",family=\"{family}\",key=\"{key}\"");
                    body.push_str(&format!(
                        "selfmaint_engine_hist_seconds_count{{{labels}}} {total}\n"
                    ));
                    body.push_str(&format!(
                        "selfmaint_engine_hist_seconds_sum{{{labels}}} {}\n",
                        *sum_us as f64 / 1e6
                    ));
                }
            }
        }
    }
    drop(g);
    let _ = respond(w, 200, "text/plain", &[], body.as_bytes());
}
