//! Running the release `moptd` as a child process and talking to it over TCP.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mopt_service::{Response, ServiceStats};

use crate::checks::{verb_of, Tally};

/// Event-loop workers every benchmarked server runs with.
pub const WORKERS: usize = 2;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A scratch directory under the benchmark's output directory, removed when
/// dropped — on success, on a failed check, and while a panic unwinds.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(root: &Path, label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = root.join(format!(
            "tmp-{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// One blocking JSON-lines connection: one request outstanding at a time
/// unless the caller pipelines by hand with `send`/`receive`.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the driver's
        // limit; the slowest legitimate reply (a cold PlanNetwork) takes ~6 s.
        writer.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::with_capacity(64 * 1024, writer.try_clone()?);
        Ok(Client { writer, reader, reply: Vec::with_capacity(16 * 1024) })
    }

    /// `line` must end in `\n`, so a request is one `write`.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())
    }

    fn fill_reply(&mut self) -> std::io::Result<()> {
        self.reply.clear();
        if self.reader.read_until(b'\n', &mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    fn reply_text(&self) -> std::io::Result<&str> {
        let text = std::str::from_utf8(&self.reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(text.trim_end_matches('\n'))
    }

    /// The next reply line, without its newline.
    pub fn receive(&mut self) -> std::io::Result<&str> {
        self.fill_reply()?;
        self.reply_text()
    }

    /// One closed-loop request, timed from just before the write to the end
    /// of the reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<(Duration, &str)> {
        let start = Instant::now();
        self.send(line)?;
        self.fill_reply()?;
        let elapsed = start.elapsed();
        Ok((elapsed, self.reply_text()?))
    }

    /// The server's own counters.
    pub fn stats(&mut self) -> Result<ServiceStats, String> {
        match self.ask("\"Stats\"\n")? {
            Response::Stats { stats } => Ok(stats),
            other => Err(format!("Stats answered {}", verb_of(&other))),
        }
    }

    /// A request whose reply is parsed; for the untimed control verbs.
    pub fn ask(&mut self, line: &str) -> Result<Response, String> {
        let (_, reply) = self.call(line).map_err(|e| format!("{line:?}: {e}"))?;
        serde_json::from_str::<Response>(reply).map_err(|e| format!("unparsable reply: {e}"))
    }
}

/// A `moptd --listen` child. Dropping it kills the child and waits for it, so
/// no server outlives the benchmark whatever path the run takes.
pub struct Moptd {
    child: Child,
    pub addr: String,
    stderr_path: PathBuf,
}

impl Moptd {
    /// Start `moptd --listen 127.0.0.1:<free port> --workers 2 --db <db>
    /// --capacity <capacity>` and wait for its first `Pong`. The port is
    /// chosen by binding port 0 and releasing it; if another process takes it
    /// in between, the child fails to bind and the next attempt picks another.
    pub fn start(moptd: &Path, db: &Path, capacity: usize, scratch: &Path) -> Result<Self, String> {
        let mut last_error = String::new();
        for attempt in 0..5 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let addr = format!("127.0.0.1:{port}");
            let stderr_path = scratch.join(format!("moptd-{port}-{attempt}.stderr"));
            let stderr = std::fs::File::create(&stderr_path).map_err(|e| e.to_string())?;
            let child = Command::new(moptd)
                .args(["--listen", &addr, "--workers", &WORKERS.to_string()])
                .arg("--db")
                .arg(db)
                .args(["--capacity", &capacity.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", moptd.display()))?;
            let mut server = Moptd { child, addr, stderr_path };
            match server.wait_for_pong() {
                Ok(()) => return Ok(server),
                Err(e) => last_error = format!("{e}\n{}", server.stderr_text()),
            }
        }
        Err(format!("moptd did not come up after 5 attempts: {last_error}"))
    }

    fn wait_for_pong(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("moptd exited early with {status}"));
            }
            if let Ok(mut client) = Client::connect(&self.addr) {
                if matches!(client.ask("\"Ping\"\n"), Ok(Response::Pong { .. })) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err("moptd did not answer Ping within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    fn stderr_text(&self) -> String {
        let mut text = String::new();
        if let Ok(mut file) = std::fs::File::open(&self.stderr_path) {
            let _ = file.read_to_string(&mut text);
        }
        text
    }

    /// `VmHWM` of the child in MiB: its peak resident set so far.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status.ok().and_then(|s| vm_hwm_mib(&s)).unwrap_or(0.0)
    }

    /// SIGTERM, then wait for the graceful drain: the server flushes its
    /// database and must exit 0, or the run has a failed check.
    pub fn stop(mut self, tally: &mut Tally) {
        // SAFETY: `kill` is async-signal-safe and takes plain integers; the
        // pid is our own un-reaped child, so it cannot have been recycled.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(30);
        let exited_zero = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => break false,
            }
        };
        tally.expect(exited_zero, || format!("moptd did not exit 0:\n{}", self.stderr_text()));
    }
}

/// Set up `times` times, each against a fresh server, stopping every server
/// but the last. `once` returns what it set up and how long that took; the
/// last set-up and all the durations come back.
pub fn set_up_repeatedly<R>(
    times: usize,
    tally: &mut Tally,
    mut once: impl FnMut() -> Result<(R, f64), String>,
    into_server: impl Fn(R) -> Moptd,
) -> Result<(R, Vec<f64>), String> {
    let (mut last, first_seconds) = once()?;
    let mut seconds = vec![first_seconds];
    for _ in 1..times {
        into_server(last).stop(tally);
        let (next, took) = once()?;
        seconds.push(took);
        last = next;
    }
    Ok((last, seconds))
}

impl Drop for Moptd {
    fn drop(&mut self) {
        // After `stop` the child is reaped and this does nothing. Otherwise
        // the run is being abandoned (an error, a panic): kill hard, and show
        // what the server had to say.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            eprintln!("moptd ({}) was killed; its stderr:\n{}", self.addr, self.stderr_text());
        }
    }
}

/// `VmHWM:   123456 kB` → MiB.
pub fn vm_hwm_mib(proc_status: &str) -> Option<f64> {
    let line = proc_status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tmoptd\nVmPeak:\t  99999 kB\nVmHWM:\t    6144 kB\nVmRSS:\t 5000 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(6.0));
        assert_eq!(vm_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop_and_on_panic() {
        let root = std::env::temp_dir().join(format!("mopt-benchmark-test-{}", std::process::id()));
        let kept = {
            let a = TempDir::new(&root, "a").unwrap();
            let b = TempDir::new(&root, "a").unwrap();
            assert_ne!(a.path(), b.path());
            assert!(a.path().is_dir());
            a.path().to_path_buf()
        };
        assert!(!kept.exists());
        let root2 = root.clone();
        let during_panic = std::panic::catch_unwind(move || {
            let dir = TempDir::new(&root2, "p").unwrap();
            let path = dir.path().to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        })
        .unwrap_err();
        let path = during_panic.downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
