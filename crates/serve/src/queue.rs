//! The spool: the daemon's durable memory.
//!
//! Two append-only journals plus per-job side files make the accepted
//! work replayable across any kind of death:
//!
//! * `ingress.log` — one `id<TAB>spec` line per accepted job, fsynced
//!   *before* the client sees `202 Accepted`. If it's in the journal it
//!   will run (eventually); if it isn't, the client was never told
//!   otherwise.
//! * `done.log` — one `id<TAB>ok|failed<TAB>message` line per finished
//!   job, fsynced after the output file lands.
//! * `job-NNNNNN.out` / `.ckpt` / `.attempts` / `-manifest/` — the job's
//!   output, last engine snapshot, persisted attempt counter, and (for
//!   sweeps) the sweep's own resume manifest. Outputs and counters are
//!   written tmp + rename so a kill mid-write never leaves a half-file.
//!
//! On startup [`Spool::load`] replays both journals: pending work is
//! `ingress − done` in id order. A crash mid-append leaves at most one
//! unterminated trailing line, which is ignored — only `\n`-terminated
//! lines count, on both journals, so the crash window is "the client
//! never got its 202" rather than "the spool is corrupt".

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::spec::JobSpec;

/// Handle on a spool directory. Cheap to clone; all state is on disk.
#[derive(Debug, Clone)]
pub struct Spool {
    dir: PathBuf,
}

/// One job reconstructed from the journals.
#[derive(Debug, Clone)]
pub struct LoadedJob {
    /// Job id (assigned at ingress, monotonically increasing).
    pub id: u64,
    /// The accepted spec (canonical form).
    pub spec: JobSpec,
    /// `None` while pending; `Some((ok, message))` once finished.
    pub outcome: Option<(bool, String)>,
}

/// Everything [`Spool::load`] recovered.
#[derive(Debug, Clone)]
pub struct SpoolState {
    /// The id the next accepted job gets.
    pub next_id: u64,
    /// All journaled jobs in id order, finished and pending alike.
    pub jobs: Vec<LoadedJob>,
}

impl SpoolState {
    /// Ids of jobs accepted but not finished, in id order.
    pub fn pending(&self) -> Vec<u64> {
        self.jobs
            .iter()
            .filter(|j| j.outcome.is_none())
            .map(|j| j.id)
            .collect()
    }
}

/// Append one line to a journal and fsync before returning — the caller
/// may acknowledge durability the moment this returns.
fn append_fsync(path: &Path, line: &str) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(line.as_bytes())?;
    f.sync_all()
}

/// Strip characters that would break the one-line-per-record framing.
fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r', '\t'], " ")
}

impl Spool {
    /// Open (creating if needed) a spool directory.
    pub fn open(dir: &str) -> io::Result<Spool> {
        std::fs::create_dir_all(dir)?;
        Ok(Spool {
            dir: PathBuf::from(dir),
        })
    }

    fn ingress_path(&self) -> PathBuf {
        self.dir.join("ingress.log")
    }

    fn done_path(&self) -> PathBuf {
        self.dir.join("done.log")
    }

    /// Path of a job's output file.
    pub fn output_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:06}.out"))
    }

    /// Path of a job's last engine snapshot.
    pub fn ckpt_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:06}.ckpt"))
    }

    /// Path of a job's persisted attempt counter.
    pub fn attempts_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:06}.attempts"))
    }

    /// Manifest directory for a sweep job's own per-replicate resume.
    pub fn manifest_dir(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:06}-manifest"))
    }

    /// Journal an accepted job. Fsynced: safe to 202 once this returns.
    pub fn append_ingress(&self, id: u64, spec: &JobSpec) -> io::Result<()> {
        append_fsync(&self.ingress_path(), &format!("{id}\t{}\n", spec.to_line()))
    }

    /// Journal a finished job (success or deterministic failure).
    pub fn append_done(&self, id: u64, ok: bool, msg: &str) -> io::Result<()> {
        let verdict = if ok { "ok" } else { "failed" };
        append_fsync(
            &self.done_path(),
            &format!("{id}\t{verdict}\t{}\n", one_line(msg)),
        )
    }

    /// Replay both journals into the daemon's starting state.
    pub fn load(&self) -> SpoolState {
        let mut jobs: Vec<LoadedJob> = Vec::new();
        for line in complete_lines(&self.ingress_path()) {
            let Some((id_s, spec_s)) = line.split_once('\t') else {
                continue;
            };
            let (Ok(id), Ok(spec)) = (id_s.parse::<u64>(), JobSpec::parse(spec_s)) else {
                continue;
            };
            jobs.push(LoadedJob {
                id,
                spec,
                outcome: None,
            });
        }
        for line in complete_lines(&self.done_path()) {
            let mut parts = line.splitn(3, '\t');
            let (Some(id_s), Some(verdict), msg) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(id) = id_s.parse::<u64>() else {
                continue;
            };
            if let Some(job) = jobs.iter_mut().find(|j| j.id == id) {
                job.outcome = Some((verdict == "ok", msg.unwrap_or("").to_string()));
            }
        }
        let next_id = jobs.iter().map(|j| j.id + 1).max().unwrap_or(0);
        SpoolState { next_id, jobs }
    }

    /// Persisted attempt counter (0 when absent or unreadable).
    pub fn read_attempts(&self, id: u64) -> u32 {
        std::fs::read_to_string(self.attempts_path(id))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Persist the attempt counter (tmp + rename).
    pub fn write_attempts(&self, id: u64, attempts: u32) -> io::Result<()> {
        self.write_atomic(&self.attempts_path(id), attempts.to_string().as_bytes())
    }

    /// Persist a job's output (tmp + rename).
    pub fn write_output(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.write_atomic(&self.output_path(id), bytes)
    }

    /// A finished job's output bytes.
    pub fn read_output(&self, id: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.output_path(id))
    }

    /// Persist a job's engine snapshot (tmp + rename).
    pub fn write_ckpt(&self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.write_atomic(&self.ckpt_path(id), bytes)
    }

    /// A job's last engine snapshot, if one was cut.
    pub fn read_ckpt(&self, id: u64) -> Option<Vec<u8>> {
        std::fs::read(self.ckpt_path(id)).ok()
    }

    /// Drop a finished job's recovery state (snapshot + attempt counter);
    /// the output and the journals stay.
    pub fn clear_recovery(&self, id: u64) {
        let _ = std::fs::remove_file(self.ckpt_path(id));
        let _ = std::fs::remove_file(self.attempts_path(id));
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// All `\n`-terminated lines of a journal; a missing file is an empty
/// journal, and an unterminated trailing fragment (crash mid-append) is
/// dropped.
fn complete_lines(path: &Path) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    // split leaves either "" (text ended in \n) or a fragment — both go.
    lines.pop();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use maintctl::AutomationLevel;

    fn scratch(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("dcmaint-spool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn journals_replay_into_pending_work() {
        let dir = scratch("replay");
        let spool = Spool::open(&dir).unwrap();
        let a = JobSpec::run(AutomationLevel::L3, 2, 1);
        let b = JobSpec::run(AutomationLevel::L1, 3, 2);
        let c = JobSpec::run(AutomationLevel::L0, 4, 3);
        spool.append_ingress(0, &a).unwrap();
        spool.append_ingress(1, &b).unwrap();
        spool.append_ingress(2, &c).unwrap();
        spool.append_done(1, true, "").unwrap();
        spool.append_done(0, false, "boom: went sideways").unwrap();

        let state = spool.load();
        assert_eq!(state.next_id, 3);
        assert_eq!(state.pending(), [2]);
        assert_eq!(
            state.jobs[0].outcome,
            Some((false, "boom: went sideways".into()))
        );
        assert_eq!(state.jobs[1].outcome, Some((true, "".into())));
        assert_eq!(state.jobs[2].spec, c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_trailing_lines_are_ignored_not_fatal() {
        let dir = scratch("torn");
        let spool = Spool::open(&dir).unwrap();
        spool
            .append_ingress(0, &JobSpec::run(AutomationLevel::L3, 2, 1))
            .unwrap();
        // A crash mid-append: the next record got only half-written and
        // has no newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(Path::new(&dir).join("ingress.log"))
            .unwrap();
        f.write_all(b"1\tkind=run le").unwrap();
        drop(f);
        std::fs::write(Path::new(&dir).join("done.log"), b"0\tok").unwrap();

        let state = spool.load();
        assert_eq!(state.jobs.len(), 1, "torn ingress line dropped");
        assert_eq!(
            state.pending(),
            [0],
            "torn done line must not mark the job finished"
        );
        assert_eq!(state.next_id, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attempts_and_outputs_persist_across_reopen() {
        let dir = scratch("sidefiles");
        let spool = Spool::open(&dir).unwrap();
        assert_eq!(spool.read_attempts(7), 0);
        spool.write_attempts(7, 2).unwrap();
        spool.write_output(7, b"{\"done\":true}\n").unwrap();
        spool.write_ckpt(7, b"snapshot-bytes").unwrap();

        let again = Spool::open(&dir).unwrap();
        assert_eq!(again.read_attempts(7), 2);
        assert_eq!(again.read_output(7).unwrap(), b"{\"done\":true}\n");
        assert_eq!(again.read_ckpt(7).unwrap(), b"snapshot-bytes");
        again.clear_recovery(7);
        assert_eq!(again.read_attempts(7), 0);
        assert!(again.read_ckpt(7).is_none());
        assert!(
            again.read_output(7).is_ok(),
            "output outlives recovery state"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
