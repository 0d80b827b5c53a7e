//! Length-delimited JSON framing, endpoints, the one connection type and
//! the one `Listener` of the `astree-serve/2` protocol, which clients and
//! fleet coordinators alike speak to a serving process.
//!
//! A frame is one JSON value, length-delimited so neither side ever needs a
//! streaming JSON parser:
//!
//! ```text
//! <payload length in bytes, ASCII decimal>\n
//! <payload: one compact JSON value>\n
//! ```
//!
//! The payload length counts the JSON bytes only (not the trailing
//! newline). The newlines make a captured conversation readable with plain
//! text tools while keeping the framing unambiguous — the reader trusts the
//! length, not the line structure. Requests and responses are JSON objects;
//! see `DESIGN.md` for the full schemas.

use astree_obs::Json;
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Frames larger than this are rejected as malformed (64 MiB — far above
/// any real request, small enough to bound a hostile allocation).
pub const MAX_FRAME: usize = 64 << 20;

/// Upper bound on store-file bytes in the `files` of one `run` or `result`
/// frame. Files that would overflow the bound stay behind and ride a later
/// job; the sync degrades to extra cold solves, never to an oversized
/// frame. Sized so JSON string escaping (worst case ~2x) cannot push a
/// frame past [`MAX_FRAME`], while single large-member entries (a few MiB
/// each) still ship in one frame.
pub const SYNC_BYTES_CAP: usize = 24 << 20;

/// Where a server listens or a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at the given path (the default transport).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7878`.
    Tcp(String),
}

impl Endpoint {
    /// The default socket path: `astree-serve-<uid or "user">.sock` in the
    /// system temp directory.
    pub fn default_socket() -> Endpoint {
        let user = std::env::var("USER").unwrap_or_else(|_| "user".into());
        Endpoint::Unix(std::env::temp_dir().join(format!("astree-serve-{user}.sock")))
    }

    /// Parses a CLI endpoint argument: `unix:PATH`, `tcp:ADDR`, a bare
    /// path (containing `/` or ending in `.sock`), or a bare `HOST:PORT`.
    pub fn parse(s: &str) -> Endpoint {
        if let Some(path) = s.strip_prefix("unix:") {
            Endpoint::Unix(path.into())
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Endpoint::Tcp(addr.to_string())
        } else if s.contains('/') || s.ends_with(".sock") {
            Endpoint::Unix(s.into())
        } else {
            Endpoint::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One connection, over a Unix or TCP socket. [`Conn::try_clone`] hands a
/// second handle to a thread of its own, so a handler can block reading the
/// next request while telemetry frames are written from the analysis it
/// runs.
pub enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn tcp(s: TcpStream) -> Conn {
        s.set_nodelay(true).ok();
        Conn::Tcp(s)
    }

    /// Connects to an endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
            Endpoint::Tcp(addr) => Ok(Conn::tcp(TcpStream::connect(addr.as_str())?)),
        }
    }

    /// A second handle on the same connection.
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    /// Shuts down `how` of the connection: a thread blocked reading it sees
    /// end-of-stream (`Read`), the peer sees it (`Write`).
    pub fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(how),
            Conn::Tcp(s) => s.shutdown(how),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // a socket has no buffer of its own
    }
}

/// A bound server socket, Unix or TCP: `astree serve --socket/--listen`'s.
/// Binding a Unix path refuses one a live server answers on (`AddrInUse`)
/// and replaces a stale one a dead server left behind; dropping the
/// listener removes its socket file.
pub(crate) struct Listener {
    socket: Socket,
    endpoint: Endpoint,
}

enum Socket {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `endpoint`, nonblocking: [`Listener::accept`] returns
    /// `WouldBlock` instead of waiting. For TCP port 0 the resolved address
    /// is available from [`Listener::endpoint`].
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        let (socket, endpoint) = match endpoint {
            Endpoint::Unix(path) => {
                // Connecting tells a live server from a stale socket file.
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        let live = format!("a server is already listening on {}", path.display());
                        return Err(io::Error::new(io::ErrorKind::AddrInUse, live));
                    }
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Socket::Unix(l), endpoint.clone())
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                let actual = Endpoint::Tcp(l.local_addr()?.to_string());
                (Socket::Tcp(l), actual)
            }
        };
        Ok(Listener { socket, endpoint })
    }

    /// Where clients connect (TCP port resolved).
    pub(crate) fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Accepts the next connection.
    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match &self.socket {
            Socket::Unix(l) => Ok(Conn::Unix(l.accept()?.0)),
            Socket::Tcp(l) => Ok(Conn::tcp(l.accept()?.0)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Writes one frame and flushes it (a frame is a durability point: the peer
/// may act on it immediately).
pub fn write_frame(w: &mut dyn Write, value: &Json) -> io::Result<()> {
    let payload = value.to_compact();
    let mut buf = Vec::with_capacity(payload.len() + 16);
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (the peer
/// closed before a length line started) and an error on anything malformed.
/// What a frame claims costs nothing until its bytes arrive: the length
/// line is read through a bound (20 digits hold any `usize`) and the
/// payload buffer grows as the payload does.
pub fn read_frame(r: &mut dyn BufRead) -> io::Result<Option<Json>> {
    let mut len_line = Vec::new();
    (&mut *r).take(21).read_until(b'\n', &mut len_line)?;
    if len_line.is_empty() {
        return Ok(None);
    }
    let len: usize = std::str::from_utf8(&len_line)
        .ok()
        .and_then(|l| l.strip_suffix('\n')?.parse().ok())
        .ok_or_else(|| bad_data(format!("bad frame length line {len_line:?}")))?;
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap")));
    }
    let mut payload = Vec::new();
    (&mut *r).take(len as u64 + 1).read_to_end(&mut payload)?; // + trailing newline
    if payload.len() <= len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame payload cut short"));
    }
    if payload.pop() != Some(b'\n') {
        return Err(bad_data("frame payload not newline-terminated".into()));
    }
    let text = String::from_utf8(payload).map_err(|e| bad_data(format!("frame not UTF-8: {e}")))?;
    Json::parse(&text).map(Some).map_err(|e| bad_data(format!("frame not JSON: {e}")))
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let v = Json::obj([
            ("proto", Json::str(crate::serve::PROTO)),
            ("req", Json::str("status")),
            ("id", Json::UInt(7)),
            ("source", Json::str("int main() { return 0; }\n")),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Json::obj([("frame", Json::str("bye"))])).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(v));
        let second = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(second.get("frame").and_then(Json::as_str), Some("bye"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after the last frame");
    }

    #[test]
    fn newlines_inside_strings_do_not_break_framing() {
        let v = Json::obj([("source", Json::str("line1\nline2\n\"quoted\"\n"))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let got = read_frame(&mut BufReader::new(&buf[..])).unwrap().unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn oversized_and_garbage_frames_are_rejected() {
        let mut r = BufReader::new(&b"99999999999\n"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new(&b"not-a-length\n{}\n"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new(&b"2\n{}X"[..]);
        assert!(read_frame(&mut r).is_err(), "missing newline terminator");
    }

    #[test]
    fn an_endless_length_line_is_a_typed_error() {
        let err = read_frame(&mut BufReader::new(io::repeat(b'7'))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_claimed_length_reserves_nothing_the_peer_did_not_send() {
        let mut bytes = format!("{MAX_FRAME}\n").into_bytes();
        bytes.extend_from_slice(b"{}\n");
        let err = read_frame(&mut BufReader::new(&bytes[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_unix_listener_refuses_a_live_socket_and_replaces_a_stale_one() {
        let path = std::env::temp_dir().join(format!("astree-proto-{}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path.clone());
        let live = Listener::bind(&endpoint).unwrap();
        let refused = Listener::bind(&endpoint).err().expect("a live socket is refused");
        assert_eq!(refused.kind(), io::ErrorKind::AddrInUse);
        drop(live);
        assert!(!path.exists(), "dropping the listener removes its socket file");
        drop(UnixListener::bind(&path).unwrap()); // leaves a stale file
        assert!(path.exists());
        drop(Listener::bind(&endpoint).expect("a stale socket file is replaced"));
        assert!(!path.exists());
    }

    #[test]
    fn endpoint_parse_distinguishes_paths_from_addresses() {
        assert_eq!(Endpoint::parse("unix:/tmp/w.sock"), Endpoint::Unix("/tmp/w.sock".into()));
        assert_eq!(Endpoint::parse("tcp:127.0.0.1:7878"), Endpoint::Tcp("127.0.0.1:7878".into()));
        assert_eq!(Endpoint::parse("/tmp/w.sock"), Endpoint::Unix("/tmp/w.sock".into()));
        assert_eq!(Endpoint::parse("w.sock"), Endpoint::Unix("w.sock".into()));
        assert_eq!(Endpoint::parse("127.0.0.1:7878"), Endpoint::Tcp("127.0.0.1:7878".into()));
    }
}
