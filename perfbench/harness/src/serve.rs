//! Driving the real `repro serve` daemon over its newline-JSON Unix socket.

use oscache_core::service::{parse_reply, run_request_line, Reply, RunRequest, ServiceStats};
use oscache_core::Experiment;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `repro serve` child with its own socket and journal.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    journal: PathBuf,
    stderr_path: PathBuf,
}

/// One answered request, timed from the client's side.
pub struct Answer {
    pub connect: Instant,
    pub accepted: Instant,
    pub done: Instant,
    pub report: String,
    pub complete: bool,
}

impl Answer {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.connect).as_secs_f64() * 1e3
    }
}

extern "C" {
    /// libc `kill(2)`, linked by std already.
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

impl Daemon {
    /// Spawns `repro serve` with `work` as its working directory (the
    /// harness has already pointed `TMPDIR` there), with a fresh journal so the first `all` request really
    /// simulates; `tag` keeps several daemons of one run apart.
    pub fn spawn(
        repro: &Path,
        work: &Path,
        scale: f64,
        jobs: usize,
        tag: &str,
    ) -> Result<Daemon, String> {
        let sock_name = format!("{tag}.sock");
        let journal_name = format!("{tag}.journal");
        let stderr_path = work.join(format!("{tag}.stderr"));
        let stderr =
            std::fs::File::create(&stderr_path).map_err(|e| format!("daemon stderr: {e}"))?;
        let child = Command::new(repro)
            .current_dir(work)
            .args(["--scale", &scale.to_string(), "--jobs", &jobs.to_string()])
            .args(["--journal", &journal_name, "serve", "--socket", &sock_name])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        Ok(Daemon {
            child: Some(child),
            socket: work.join(sock_name),
            journal: work.join(journal_name),
            stderr_path,
        })
    }

    pub fn journal(&self) -> &Path {
        &self.journal
    }

    /// Waits until the daemon accepts connections.
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            if UnixStream::connect(&self.socket).is_ok() {
                return Ok(());
            }
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("daemon exited before listening: {status}"));
                }
            }
            if t0.elapsed() > timeout {
                return Err("daemon did not start listening".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Sends one `run` request on a fresh connection, as `repro submit`
    /// does, and reads until the terminal `done` line.
    pub fn request(&self, experiments: &[Experiment], client: &str) -> Result<Answer, String> {
        let connect = Instant::now();
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("socket: {e}"))?;
        let line = run_request_line(&RunRequest {
            client: client.to_string(),
            experiments: experiments.to_vec(),
            deadline_ms: None,
        });
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut accepted = None;
        let mut reader = BufReader::new(&stream);
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) => return Err("connection closed before `done`".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
            if buf.trim().is_empty() {
                continue;
            }
            match parse_reply(buf.trim_end())? {
                Reply::Accepted { .. } => accepted = Some(Instant::now()),
                Reply::Cell(_) => {}
                Reply::Done(rep) => {
                    let done = Instant::now();
                    return Ok(Answer {
                        connect,
                        accepted: accepted.ok_or("`done` before `accepted`")?,
                        done,
                        complete: rep.complete(),
                        report: rep.report,
                    });
                }
                Reply::Rejected { status } => return Err(format!("rejected: {status}")),
                Reply::Error(msg) => return Err(format!("error reply: {msg}")),
                Reply::Stats(_) => return Err("unexpected stats reply".to_string()),
            }
        }
    }

    /// One `stats` snapshot.
    pub fn stats(&self) -> Result<ServiceStats, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("socket: {e}"))?;
        (&stream)
            .write_all(b"{\"op\":\"stats\"}\n")
            .map_err(|e| format!("send: {e}"))?;
        let mut buf = String::new();
        BufReader::new(&stream)
            .read_line(&mut buf)
            .map_err(|e| format!("read: {e}"))?;
        match parse_reply(buf.trim_end())? {
            Reply::Stats(st) => Ok(st),
            _ => Err(format!("unexpected reply to stats: {buf:?}")),
        }
    }

    /// Stops the daemon with SIGTERM and checks that it drained: a clean
    /// exit whose last words are the `serve: drained` summary.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("daemon already stopped")?;
        let pid = i32::try_from(child.id()).map_err(|_| "pid out of range")?;
        // SAFETY: kill(2) reads only its two integer arguments; `pid` is our
        // own child, which has not been reaped yet, so the pid is still ours.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("SIGTERM failed".to_string());
        }
        let t0 = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if t0.elapsed() < Duration::from_secs(60) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain within 60 s of SIGTERM".to_string());
                }
            }
        };
        let log = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        if !status.success() || !log.contains("serve: drained") {
            return Err(format!(
                "daemon did not drain cleanly ({status}): {}",
                log.trim()
            ));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    /// A daemon left running by an error path is killed and reaped.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
