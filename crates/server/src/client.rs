//! The blocking protocol client: one connection, NDJSON request/response
//! in lockstep. Used by `scast query` and `scast update`, the integration
//! tests, and scbench.

use crate::faults::mix;
use crate::json::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Retry policy for [`Client::request_with_retry`]: bounded exponential
/// backoff with deterministic jitter. An `overloaded` reply is a
/// *schedule*, not a terminal error — the server names its price
/// (`retry_after_ms`) and the client honors it, doubling per attempt up to
/// [`cap_ms`](RetryOpts::cap_ms).
/// Connection drops (a shed teardown, a server restarting) retry on the
/// same schedule with a fresh connection.
#[derive(Debug, Clone)]
pub struct RetryOpts {
    /// Retries after the first attempt; 0 restores fail-fast behavior.
    pub max_retries: u32,
    /// Seeds the jitter: the same seed replays the same delays, so tests
    /// of retry behavior are deterministic.
    pub backoff_seed: u64,
    /// Ceiling on any single backoff delay, in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryOpts {
    fn default() -> RetryOpts {
        RetryOpts {
            max_retries: 3,
            backoff_seed: 0,
            cap_ms: 2_000,
        }
    }
}

/// Fallback wait when a failure carries no `retry_after_ms` (a dropped
/// connection, a reply without the hint) — matches the server's own
/// advertised shed price.
const DEFAULT_RETRY_AFTER_MS: u64 = 50;

/// The backoff before retry `attempt` (0-based): the server's
/// `retry_after_ms` doubled per attempt, capped, plus seeded jitter in
/// `[0, retry_after/2]` so a thundering herd of identical clients
/// de-synchronizes without losing determinism per seed.
fn backoff_delay(opts: &RetryOpts, retry_after_ms: u64, attempt: u32) -> Duration {
    let base = retry_after_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let jitter = mix(opts.backoff_seed ^ u64::from(attempt)) % (base / 2 + 1);
    Duration::from_millis(exp.min(opts.cap_ms) + jitter)
}

/// `Some(retry_after_ms)` when `resp` is an `overloaded` error reply.
fn overloaded_hint(resp: &Json) -> Option<u64> {
    let err = resp.get("error")?;
    if err.get("kind").and_then(Json::as_str) != Some("overloaded") {
        return None;
    }
    Some(
        err.get("retry_after_ms")
            .and_then(Json::as_u64)
            .unwrap_or(DEFAULT_RETRY_AFTER_MS),
    )
}

/// A connection-level failure worth retrying on a fresh connection: the
/// peer closed or reset (a shed teardown, a dying server) or refused (a
/// server mid-restart). Timeouts are *not* retried — a deadline is an
/// answer about the server, and the stream may hold a late reply that
/// would desynchronize lockstep.
fn is_retriable_conn_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
    )
}

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: Option<SocketAddr>,
    timeout: Option<Duration>,
    retries: u64,
    sheds_observed: u64,
}

impl Client {
    /// Connects to a running server with no timeout: blocks indefinitely
    /// against an unresponsive peer. Interactive callers (`scast query`)
    /// should prefer [`connect_timeout`](Client::connect_timeout).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        Client::wrap(writer, None)
    }

    /// Connects with a bound on both the connect and every subsequent
    /// read: a dead or wedged server yields a timeout error naming the
    /// address instead of hanging forever.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Client> {
        let mut last = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(writer) => {
                    writer.set_read_timeout(Some(timeout))?;
                    writer.set_write_timeout(Some(timeout))?;
                    return Client::wrap(writer, Some(timeout));
                }
                Err(e) => {
                    last = Some(io::Error::new(
                        e.kind(),
                        format!("connecting to {resolved}: {e}"),
                    ))
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn wrap(writer: TcpStream, timeout: Option<Duration>) -> io::Result<Client> {
        // Request/response lockstep: Nagle would hold each small request
        // back ~40ms waiting for an ACK that only comes with the response.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let addr = writer.peer_addr().ok();
        Ok(Client {
            reader,
            writer,
            addr,
            timeout,
            retries: 0,
            sheds_observed: 0,
        })
    }

    /// Replaces the connection with a fresh one to the same peer — a shed
    /// server half-closes after its `overloaded` reply, so a retry needs
    /// a new socket.
    fn reconnect(&mut self) -> io::Result<()> {
        let Some(addr) = self.addr else {
            return Ok(()); // peer unknown: retry on the existing stream
        };
        let fresh = match self.timeout {
            Some(t) => Client::connect_timeout(addr, t)?,
            None => Client::connect(addr)?,
        };
        (self.reader, self.writer) = (fresh.reader, fresh.writer);
        Ok(())
    }

    /// Sends one raw request line and returns the raw response line.
    /// The line must be a complete JSON object without embedded newlines.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        debug_assert!(!line.contains('\n'), "requests are one line each");
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).map_err(|e| {
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for the server's reply",
                )
            } else {
                e
            }
        })?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Sends a request value and parses the response.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        let line = self.request_line(&req.to_string())?;
        Json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e} in {line:?}")))
    }

    /// [`request`](Client::request) with bounded retry: an `overloaded`
    /// reply is honored (sleep `retry_after_ms`, doubled per attempt,
    /// seeded jitter) and re-sent on a fresh connection; retriable
    /// connection drops likewise. After
    /// [`max_retries`](RetryOpts::max_retries) the last outcome is
    /// returned as-is — an exhausted retry surfaces the typed
    /// `overloaded` reply, not a synthetic error.
    pub fn request_with_retry(&mut self, req: &Json, opts: &RetryOpts) -> io::Result<Json> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.request(req);
            let retry_after = match &outcome {
                Ok(resp) => match overloaded_hint(resp) {
                    Some(hint) => {
                        self.sheds_observed += 1;
                        hint
                    }
                    None => return outcome,
                },
                Err(e) if is_retriable_conn_error(e) => DEFAULT_RETRY_AFTER_MS,
                Err(_) => return outcome,
            };
            if attempt >= opts.max_retries {
                return outcome;
            }
            std::thread::sleep(backoff_delay(opts, retry_after, attempt));
            self.retries += 1;
            attempt += 1;
            // Best effort: a failed reconnect (server mid-restart) keeps
            // the old stream; the next attempt's error feeds the loop.
            let _ = self.reconnect();
        }
    }

    /// Retries performed by
    /// [`request_with_retry`](Client::request_with_retry) over this
    /// client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `overloaded` replies this client received (and, up to the retry
    /// budget, absorbed) — reconciles against the server's shed counter.
    pub fn sheds_observed(&self) -> u64 {
        self.sheds_observed
    }

    /// Convenience: `{"op":"stats"}`.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&Json::obj([("op", Json::str("stats"))]))
    }

    /// Convenience: asks the server to shut down gracefully and returns
    /// its acknowledgement.
    pub fn shutdown_server(&mut self) -> io::Result<Json> {
        self.request(&Json::obj([("op", Json::str("shutdown"))]))
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.writer.peer_addr().ok())
            .finish()
    }
}
