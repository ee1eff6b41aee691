//! The client side of the wire: spawning `xseed-serve`, timing its set-up,
//! and a line connection with its own framing.

use crate::oracle::Doc;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a reply may take before the request counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// A spawned `xseed-serve --tcp 127.0.0.1:0` with every document loaded.
/// Dropping it kills the process and waits for it to exit.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes to a closed pipe; it only
    /// writes here at start-up and on errors.
    _stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server with default flags and reads its port from the
    /// `listening on` line.
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("xseed-serve exited before listening".to_string());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().split("listening on ").nth(1) {
                match addr.parse() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listening line: {}", line.trim()));
                    }
                }
            }
        };
        Ok(Server {
            child,
            _stderr: stderr,
            addr,
        })
    }

    /// Peak resident set size of the server (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a server, loads every document, and answers one `EST`. Returns
/// the server, the connection used, and the set-up time in seconds (spawn
/// to first estimate).
pub fn start_server(
    bin: &Path,
    docs: &[Doc],
    first_est: (&str, &str),
) -> Result<(Server, LineConn, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(bin)?;
    let mut conn = LineConn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for doc in docs {
        let reply = conn
            .request(&doc.load_line())
            .map_err(|e| format!("LOAD {}: {e}", doc.name))?;
        check_load_reply(&reply, doc)?;
    }
    let (line, expected) = first_est;
    let reply = conn.request(line).map_err(|e| format!("first EST: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    if reply.strip_prefix("OK ") != Some(expected) {
        return Err(format!(
            "first EST: got '{reply}', oracle says 'OK {expected}'"
        ));
    }
    Ok((server, conn, elapsed))
}

/// Checks a `LOAD` reply names the document and its element count.
fn check_load_reply(reply: &str, doc: &Doc) -> Result<(), String> {
    let want_name = format!("OK loaded name={} ", doc.name);
    let want_elements = format!("elements={}", doc.document.element_count());
    if reply.starts_with(&want_name) && reply.split(' ').any(|t| t == want_elements) {
        Ok(())
    } else {
        Err(format!("LOAD {}: unexpected reply '{reply}'", doc.name))
    }
}

/// A request/reply line connection with `TCP_NODELAY` set, so client-side
/// Nagle never delays a request. Reads time out after [`DEADLINE`].
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    spin: bool,
}

impl LineConn {
    pub fn connect(addr: SocketAddr) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEADLINE))?;
        Ok(LineConn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            head: 0,
            spin: false,
        })
    }

    /// With `spin` on, a read polls the socket until the reply is there
    /// instead of sleeping: the round trip then leaves out the client's
    /// own wake-up, which on a virtual CPU costs as much as the server's
    /// work on a warm `EST`. It keeps one CPU busy, so only a workload
    /// whose server work fits on the other may use it.
    pub fn set_spin(&mut self, spin: bool) -> io::Result<()> {
        self.stream.set_nonblocking(spin)?;
        self.spin = spin;
        Ok(())
    }

    /// Sends one request line, in one write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Blocks for the next reply line (without its newline).
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(line);
            }
            if !self.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no reply by the deadline",
                ));
            }
        }
    }

    /// One request, one reply line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// One request whose reply is an `OK … lines=<n>` header followed by
    /// `n` lines (`METRICS`); returns the `n` lines.
    pub fn request_block(&mut self, line: &str) -> io::Result<Vec<String>> {
        let header = self.request(line)?;
        let n: usize = header
            .rsplit_once("lines=")
            .and_then(|(_, n)| n.trim().parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad block header '{header}'")))?;
        (0..n).map(|_| self.recv()).collect()
    }

    fn take_line(&mut self) -> Option<String> {
        let pos = self.buf[self.head..].iter().position(|&b| b == b'\n')?;
        let end = self.head + pos;
        let line = String::from_utf8_lossy(&self.buf[self.head..end]).into_owned();
        self.head = end + 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        Some(line)
    }

    /// One read into the buffer (polled while spinning). `Ok(false)` when
    /// the read timed out.
    fn fill(&mut self) -> io::Result<bool> {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let started = Instant::now();
        let read = loop {
            match self.stream.read(&mut chunk) {
                Err(e)
                    if self.spin
                        && e.kind() == io::ErrorKind::WouldBlock
                        && started.elapsed() < DEADLINE =>
                {
                    std::hint::spin_loop()
                }
                read => break read,
            }
        };
        match read {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}
