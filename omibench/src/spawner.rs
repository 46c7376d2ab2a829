//! The CLI children's launcher: a small helper process, `omibench
//! __spawn`, that starts each `omislice locate`, times it from spawn to
//! exit and reaps it with its peak memory.
//!
//! Why a helper: Linux charges a child's `ru_maxrss` with at least the
//! high-water mark of the address space it was started from (exec
//! records the old memory map's peak). The benchmark process itself
//! holds every traced pass's artifacts at some point, so its children
//! would all report its peak. The helper is a fresh process that
//! allocates almost nothing, so its children report their own.
//!
//! Protocol, one localization per exchange. Request line:
//! `faulty<TAB>fixed<TAB>csv`. Reply: a header line `ms status rss len`,
//! then `len` bytes: the child's stdout, or an error message when
//! `status` is `error`. `status` is `exit:N`, `signal`, `timeout` or
//! `error`; `rss` is KiB or `-`.

use crate::sys;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Longest one localization may take before it counts as a timeout.
pub const LOCATE_TIMEOUT: Duration = Duration::from_secs(30);

/// The subcommand that runs the helper.
pub const HELPER_ARG: &str = "__spawn";

/// How one child ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    Exit(i32),
    Signal,
    Timeout,
    /// The child could not be spawned, read or reaped.
    Error,
}

/// One finished child, as the helper reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub ms: f64,
    pub status: Status,
    pub max_rss_kib: Option<u64>,
    /// Stdout, or the error message for [`Status::Error`].
    pub payload: Vec<u8>,
}

impl Run {
    fn error(msg: String) -> Run {
        Run {
            ms: 0.0,
            status: Status::Error,
            max_rss_kib: None,
            payload: msg.into_bytes(),
        }
    }

    fn header(&self) -> String {
        let status = match &self.status {
            Status::Exit(n) => format!("exit:{n}"),
            Status::Signal => "signal".to_string(),
            Status::Timeout => "timeout".to_string(),
            Status::Error => "error".to_string(),
        };
        let rss = self
            .max_rss_kib
            .map_or_else(|| "-".to_string(), |k| k.to_string());
        format!("{} {status} {rss} {}\n", self.ms, self.payload.len())
    }

    /// Parses a header line; the payload is read separately.
    fn parse_header(line: &str) -> Result<(Run, usize), String> {
        let bad = || format!("bad spawner reply `{}`", line.trim());
        let f: Vec<&str> = line.split_whitespace().collect();
        let [ms, status, rss, len] = f[..] else {
            return Err(bad());
        };
        let status = match status {
            "signal" => Status::Signal,
            "timeout" => Status::Timeout,
            "error" => Status::Error,
            s => Status::Exit(
                s.strip_prefix("exit:")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(bad)?,
            ),
        };
        let run = Run {
            ms: ms.parse().map_err(|_| bad())?,
            status,
            max_rss_kib: match rss {
                "-" => None,
                k => Some(k.parse().map_err(|_| bad())?),
            },
            payload: Vec::new(),
        };
        Ok((run, len.parse().map_err(|_| bad())?))
    }
}

/// Runs one `omislice locate` to completion. The clock runs from spawn to
/// exit; a watchdog kills the child after [`LOCATE_TIMEOUT`].
fn run_child(bin: &Path, faulty: &str, fixed: &str, csv: &str, stderr_path: &Path) -> Run {
    let stderr = match std::fs::File::create(stderr_path) {
        Ok(f) => f,
        Err(e) => return Run::error(format!("cannot create `{}`: {e}", stderr_path.display())),
    };
    let t = Instant::now();
    let spawned = Command::new(bin)
        .args([
            "locate", "--faulty", faulty, "--fixed", fixed, "--input", csv,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => return Run::error(format!("cannot spawn `{}`: {e}", bin.display())),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut out = Vec::new();
    let (read, timed_out, child) = read_with_watchdog(child, &mut stdout, &mut out);
    let reaped = child.and_then(|mut c| sys::reap(&mut c));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match (read, reaped) {
        (Err(e), _) => Run::error(format!("cannot read stdout: {e}")),
        (_, Err(e)) => Run::error(format!("cannot reap child: {e}")),
        (Ok(()), Ok(r)) => Run {
            ms,
            status: match r.code {
                _ if timed_out => Status::Timeout,
                Some(n) => Status::Exit(n),
                None => Status::Signal,
            },
            max_rss_kib: r.max_rss_kib,
            payload: out,
        },
    }
}

/// Reads `stdout` to EOF while a watchdog kills the child if it outlives
/// [`LOCATE_TIMEOUT`]. The child is reaped only after the watchdog is
/// joined, so the kill can never reach a recycled pid.
fn read_with_watchdog(
    child: Child,
    stdout: &mut ChildStdout,
    out: &mut Vec<u8>,
) -> (std::io::Result<()>, bool, std::io::Result<Child>) {
    let child = Mutex::new(child);
    let (read, timed_out) = std::thread::scope(|s| {
        let (done, wait) = mpsc::channel::<()>();
        let child = &child;
        let dog = s.spawn(move || match wait.recv_timeout(LOCATE_TIMEOUT) {
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Ok(mut c) = child.lock() {
                    let _ = c.kill();
                }
                true
            }
            _ => false,
        });
        let read = stdout.read_to_end(out).map(|_| ());
        let _ = done.send(());
        (read, dog.join().unwrap_or(true))
    });
    let child = child
        .into_inner()
        .map_err(|_| std::io::Error::other("watchdog poisoned the child handle"));
    (read, timed_out, child)
}

/// The helper's main loop: `omibench __spawn <omislice> <stderr-file>`.
/// Serves requests from stdin until it closes.
pub fn helper_main(args: &[String]) -> ExitCode {
    let [bin, stderr_path] = args else {
        eprintln!("omibench {HELPER_ARG}: needs <omislice> <stderr-file>");
        return ExitCode::from(2);
    };
    let (bin, stderr_path) = (Path::new(bin), Path::new(stderr_path));
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else {
            return ExitCode::FAILURE;
        };
        let run = match line.splitn(3, '\t').collect::<Vec<_>>()[..] {
            [faulty, fixed, csv] => run_child(bin, faulty, fixed, csv, stderr_path),
            _ => Run::error(format!("bad request `{line}`")),
        };
        let sent = out
            .write_all(run.header().as_bytes())
            .and_then(|()| out.write_all(&run.payload))
            .and_then(|()| out.flush());
        if sent.is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The parent's handle on a running helper; closing it ends the helper.
pub struct Spawner {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr_path: PathBuf,
}

impl Spawner {
    /// Starts the helper from this very executable.
    ///
    /// # Errors
    ///
    /// Returns a message when the helper cannot start.
    pub fn start(omislice: &Path, stderr_path: &Path) -> Result<Spawner, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg(HELPER_ARG)
            .arg(omislice)
            .arg(stderr_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the spawner: {e}"))?;
        Ok(Spawner {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("stdout is piped")),
            child,
            stderr_path: stderr_path.to_path_buf(),
        })
    }

    /// The file each child's stderr goes to (overwritten per child).
    pub fn stderr_path(&self) -> &Path {
        &self.stderr_path
    }

    /// Runs one localization through the helper.
    pub fn run(&mut self, faulty: &Path, fixed: &Path, csv: &str) -> Run {
        self.exchange(faulty, fixed, csv).unwrap_or_else(Run::error)
    }

    fn exchange(&mut self, faulty: &Path, fixed: &Path, csv: &str) -> Result<Run, String> {
        let request = format!("{}\t{}\t{csv}\n", faulty.display(), fixed.display());
        if request.matches('\t').count() != 2 || request.matches('\n').count() != 1 {
            return Err("paths must not hold tabs or newlines".to_string());
        }
        let stdin = self.stdin.as_mut().ok_or("the spawner is closed")?;
        stdin
            .write_all(request.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot reach the spawner: {e}"))?;
        let mut header = String::new();
        self.stdout
            .read_line(&mut header)
            .map_err(|e| format!("cannot hear the spawner: {e}"))?;
        let (mut run, len) = Run::parse_header(&header)?;
        run.payload = vec![0; len];
        self.stdout
            .read_exact(&mut run.payload)
            .map_err(|e| format!("truncated spawner reply: {e}"))?;
        Ok(run)
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // EOF on its stdin ends the helper's loop.
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_headers_round_trip() {
        for run in [
            Run {
                ms: 12.5,
                status: Status::Exit(0),
                max_rss_kib: Some(4096),
                payload: b"report\n".to_vec(),
            },
            Run {
                ms: 30000.25,
                status: Status::Timeout,
                max_rss_kib: None,
                payload: Vec::new(),
            },
            Run::error("cannot spawn `x`: no such file".to_string()),
        ] {
            let (back, len) = Run::parse_header(&run.header()).unwrap();
            assert_eq!(len, run.payload.len());
            assert_eq!(
                (back.ms, back.status, back.max_rss_kib),
                (run.ms, run.status.clone(), run.max_rss_kib)
            );
        }
        assert!(Run::parse_header("1.0 exit:x - 0\n").is_err());
        assert!(Run::parse_header("garbage\n").is_err());
    }
}
