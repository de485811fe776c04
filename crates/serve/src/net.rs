//! The framed-TCP transport: a real socket under the serve layer, std only.
//!
//! # Protocol
//!
//! Connections carry a sequence of **frames**: a 4-byte big-endian length
//! prefix followed by that many bytes of one wire document — UTF-8 JSON
//! (the in-process [`handle_json`] documents) or the compact binary codec
//! ([`crate::binwire`]), told apart by the payload's first byte. Each
//! request frame produces exactly one response frame on the same
//! connection, in order, **in the codec the request arrived in** — codec
//! choice is per frame, so JSON-era clients keep working unchanged. A frame
//! leaves in one write, prefix and payload together, so on a `TCP_NODELAY`
//! socket a small frame crosses as one segment and wakes its reader once.
//! A length prefix above [`MAX_FRAME_BYTES`] is answered with one typed
//! `bad_request` response before anything is allocated for its payload,
//! and the connection then closes. That reply, like an accept-time
//! `overloaded` shed, is written before any payload byte has revealed a
//! codec and is therefore always JSON; binary clients handle both by
//! routing received frames through [`crate::binwire::parse_reply_any`].
//!
//! # Pool, backpressure, shed
//!
//! [`NetServer::bind`] starts one acceptor thread, which sleeps in a
//! blocking `accept()`, and a fixed pool of [`ServeConfig::workers`] worker
//! threads. Accepted connections enter a **bounded** dispatch queue
//! ([`ServeConfig::queue_bound`]); each worker owns one connection at a
//! time for that connection's lifetime. When every worker is busy and the
//! queue is full, the acceptor **sheds** the new connection explicitly: one
//! framed, typed `overloaded` error response, then an orderly close
//! ([`ShedPolicy::Reply`]) — never a hang and never a silent drop. Clients
//! distinguish the shed from a real failure by its wire kind and may retry
//! later.
//!
//! # Graceful shutdown
//!
//! [`NetServerHandle::shutdown`] stops accepting — it wakes the blocked
//! acceptor with one connection of its own, which is dropped uncounted —
//! then **drains**: every connection already accepted (in a worker or still
//! queued) gets [`ServeConfig::drain_grace`] to flush its in-flight
//! requests — frames that arrive within the grace window are served and
//! answered — before the connection closes. Only then do the threads exit.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use decoder_sim::{Result, WireErrorKind};

use crate::binwire::handle_bin;
use crate::wire::{error_response, wire_err, WireError};
use crate::{handle_json, Handler};

/// Environment variable naming the TCP bind address (`host:port`; port 0
/// asks the OS for a free port).
pub const NET_ADDR_ENV: &str = "MSPT_NET_ADDR";
/// Environment variable naming the worker-thread count.
pub const NET_WORKERS_ENV: &str = "MSPT_NET_WORKERS";
/// Environment variable naming the bounded dispatch-queue length.
pub const NET_QUEUE_ENV: &str = "MSPT_NET_QUEUE";
/// Environment variable naming the graceful-shutdown drain grace in
/// milliseconds.
pub const NET_DRAIN_MS_ENV: &str = "MSPT_NET_DRAIN_MS";

/// Upper bound on a single frame's payload, so a corrupt or hostile length
/// prefix cannot make a worker allocate unbounded memory.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// How often a worker blocked on an idle connection wakes to re-check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long the acceptor backs off after a failed `accept()` (e.g.
/// `EMFILE`) before it re-checks the shutdown flag and accepts again.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// What the acceptor does with a connection it cannot enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Write one framed, typed `overloaded` error response, then close —
    /// the client sees *why* it was refused. The only policy.
    #[default]
    Reply,
}

/// Typed transport configuration, parsed **once** from the `MSPT_NET_*`
/// environment knobs by [`ServeConfig::from_env`] instead of scattering
/// `std::env::var` reads through binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port). Default
    /// `127.0.0.1:0`.
    pub bind_addr: String,
    /// Fixed worker-pool size: connections served concurrently. Default:
    /// available parallelism. [`NetServer::bind`] clamps 0 to 1.
    pub workers: usize,
    /// Bound of the accept/dispatch queue: connections that may wait for a
    /// worker before the acceptor starts shedding. Default 64.
    /// [`NetServer::bind`] clamps 0 to 1, so a connection can still reach a
    /// worker.
    pub queue_bound: usize,
    /// What to do with a connection when the queue is full
    /// ([`ShedPolicy::Reply`]).
    pub shed_policy: ShedPolicy,
    /// How long a draining shutdown waits for in-flight frames per
    /// connection. Default 250 ms.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            queue_bound: 64,
            shed_policy: ShedPolicy::default(),
            drain_grace: Duration::from_millis(250),
        }
    }
}

impl ServeConfig {
    /// Reads the transport knobs from the environment once —
    /// [`NET_ADDR_ENV`], [`NET_WORKERS_ENV`], [`NET_QUEUE_ENV`],
    /// [`NET_DRAIN_MS_ENV`] — falling back to the defaults for unset or
    /// unparsable values.
    #[must_use]
    pub fn from_env() -> Self {
        let default = ServeConfig::default();
        ServeConfig {
            bind_addr: std::env::var(NET_ADDR_ENV)
                .ok()
                .filter(|addr| !addr.trim().is_empty())
                .unwrap_or(default.bind_addr),
            workers: crate::env_usize(NET_WORKERS_ENV, default.workers),
            queue_bound: crate::env_usize(NET_QUEUE_ENV, default.queue_bound),
            shed_policy: default.shed_policy,
            drain_grace: Duration::from_millis(env_ms(NET_DRAIN_MS_ENV, 250)),
        }
    }
}

fn env_ms(name: &str, default: u64) -> u64 {
    crate::env_u64(name, default)
}

/// Writes one length-prefixed frame in one `write_all`: the prefix and the
/// payload share a buffer, so a peer never wakes for a bare prefix.
///
/// # Errors
///
/// Propagates I/O failures; payloads above [`MAX_FRAME_BYTES`] are an
/// [`io::ErrorKind::InvalidInput`] error.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let length = u32::try_from(payload.len())
        .ok()
        .filter(|&length| length <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds MAX_FRAME_BYTES", payload.len()),
            )
        })?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&length.to_be_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean end of stream
/// (the peer closed between frames); an EOF mid-frame is an error.
///
/// For a blocking reader. A read timeout surfaces as the reader's error and
/// loses the frame's bytes read so far; the server's workers instead keep
/// a partly read frame across their poll timeouts.
///
/// # Errors
///
/// Propagates I/O failures; a length prefix above [`MAX_FRAME_BYTES`] is an
/// [`io::ErrorKind::InvalidData`] error.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut frame = FrameReader::default();
    loop {
        match frame.read_once(reader) {
            Ok(Progress::Frame(payload)) => return Ok(Some(payload)),
            Ok(Progress::Eof) => return Ok(None),
            Ok(Progress::Partial) => {}
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Err(error) => return Err(error),
        }
    }
}

/// A frame read in pieces: the header and payload bytes received so far.
/// The server keeps one per connection, so a read that times out mid-frame
/// resumes where it stopped on the next poll.
#[derive(Debug, Default)]
struct FrameReader {
    header: [u8; 4],
    /// Sized from the header once it is complete.
    payload: Vec<u8>,
    /// Bytes of the current frame received, header included.
    received: usize,
}

/// What one read toward a frame produced.
enum Progress {
    /// The frame is complete.
    Frame(Vec<u8>),
    /// Bytes arrived, but not the whole frame yet.
    Partial,
    /// The peer closed cleanly between frames.
    Eof,
}

impl FrameReader {
    /// Makes one read toward the current frame: into the header until it is
    /// complete, then into the payload. A frame that arrives whole takes
    /// two reads, one per part.
    ///
    /// # Errors
    ///
    /// Propagates the read's error — a timeout keeps every byte received so
    /// far. An EOF mid-frame is [`io::ErrorKind::UnexpectedEof`]; a length
    /// prefix above [`MAX_FRAME_BYTES`] is [`io::ErrorKind::InvalidData`].
    fn read_once(&mut self, reader: &mut impl Read) -> io::Result<Progress> {
        let header = self.header.len();
        let buffer = if self.received < header {
            &mut self.header[self.received..]
        } else {
            &mut self.payload[self.received - header..]
        };
        let read = reader.read(buffer)?;
        if read == 0 {
            if self.received == 0 {
                return Ok(Progress::Eof);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        self.received += read;
        if self.received == header {
            let length = u32::from_be_bytes(self.header);
            if length > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame length {length} exceeds MAX_FRAME_BYTES"),
                ));
            }
            self.payload = vec![0u8; length as usize];
        }
        if self.received == header + self.payload.len() {
            self.received = 0;
            return Ok(Progress::Frame(std::mem::take(&mut self.payload)));
        }
        Ok(Progress::Partial)
    }
}

/// A minimal bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`. `try_push`
/// fails when full — that failure *is* the backpressure signal the acceptor
/// turns into a shed.
///
/// Poison policy: every mutation under the lock is a single structural step
/// (one push, one pop, one flag flip), so a panicking holder cannot leave
/// the queue half-updated; lock acquisition therefore recovers from
/// poisoning instead of cascading the panic into every worker — the server
/// must keep serving.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    bound: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(bound: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: std::collections::VecDeque::with_capacity(bound),
                bound,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues unless the queue is full or closed; returns the rejected
    /// item so the caller can shed it.
    fn try_push(&self, item: T) -> std::result::Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed || state.items.len() >= state.bound {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Pops an item, waiting while the queue is empty and open. A closed
    /// queue still yields its remaining items (shutdown drains them) before
    /// `None`; [`BoundedQueue::close`] wakes every waiter.
    fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.available.notify_all();
    }
}

#[derive(Debug, Default)]
struct NetCounters {
    /// Connections whose accept was fully handled (queued or shed).
    accepted: AtomicU64,
    /// Request frames for which a response was produced and handed to the
    /// transport, across all connections.
    served: AtomicU64,
    /// Connections refused with the shed policy because the queue was full.
    shed: AtomicU64,
}

/// The framed-TCP server: acceptor + fixed worker pool over any
/// [`Handler`]. Constructed via [`NetServer::bind`], controlled through the
/// returned [`NetServerHandle`].
#[derive(Debug)]
pub struct NetServer;

impl NetServer {
    /// Binds the listener and starts the acceptor and worker threads.
    /// `bind_addr` port 0 picks a free port — read the actual one from
    /// [`NetServerHandle::local_addr`]. A zero worker count or queue bound
    /// is clamped to 1, and [`NetServerHandle::config`] reports the
    /// clamped values.
    ///
    /// # Errors
    ///
    /// Returns a persistence error when the bind address is invalid or the
    /// listener cannot be created.
    pub fn bind(config: ServeConfig, handler: Arc<dyn Handler>) -> Result<NetServerHandle> {
        let config = ServeConfig {
            workers: config.workers.max(1),
            queue_bound: config.queue_bound.max(1),
            ..config
        };
        let listener = TcpListener::bind(&config.bind_addr)
            .map_err(|error| wire_err(format!("bind {}: {error}", config.bind_addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|error| wire_err(format!("local_addr: {error}")))?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::new(config.queue_bound));
        let counters = Arc::new(NetCounters::default());

        let workers = (0..config.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let handler = Arc::clone(&handler);
                let shutdown = Arc::clone(&shutdown);
                let counters = Arc::clone(&counters);
                let drain_grace = config.drain_grace;
                thread::spawn(move || {
                    worker_loop(&queue, handler.as_ref(), &shutdown, &counters, drain_grace);
                })
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            thread::spawn(move || accept_loop(&listener, &queue, &shutdown, &counters))
        };

        Ok(NetServerHandle {
            local_addr,
            config,
            shutdown,
            queue,
            counters,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

/// Accepts until shutdown. The flag is checked each time `accept()`
/// returns, so the connection that [`NetServerHandle::shutdown`] makes to
/// wake this thread is dropped here, never dispatched or counted.
fn accept_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<TcpStream>,
    shutdown: &AtomicBool,
    counters: &NetCounters,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            thread::sleep(ACCEPT_POLL);
            continue;
        };
        stream.set_nodelay(true).ok();
        if let Err(mut rejected) = queue.try_push(stream) {
            // Counted before the reply is written, so a client that has
            // read its shed reply always finds it counted.
            counters.shed.fetch_add(1, Ordering::Relaxed);
            refuse(
                &mut rejected,
                WireErrorKind::Overloaded,
                "server overloaded: dispatch queue full, retry later",
            );
        }
        // Incremented after the queue/shed decision so observers that wait
        // on this counter know the dispatch outcome of every counted
        // connection is final.
        counters.accepted.fetch_add(1, Ordering::Release);
    }
}

/// Writes one typed JSON error frame and shuts the write half, so the
/// client reads the error, then EOF, once the caller drops the stream. JSON
/// because the refusal comes before any payload byte has revealed the
/// client's codec.
fn refuse(stream: &mut TcpStream, kind: WireErrorKind, reason: &str) {
    let response = error_response(&WireError::new(kind, reason));
    write_frame(stream, response.as_bytes()).ok();
    stream.shutdown(std::net::Shutdown::Write).ok();
}

fn worker_loop(
    queue: &BoundedQueue<TcpStream>,
    handler: &dyn Handler,
    shutdown: &AtomicBool,
    counters: &NetCounters,
    drain_grace: Duration,
) {
    while let Some(stream) = queue.pop() {
        serve_connection(stream, handler, shutdown, counters, drain_grace);
    }
}

/// Serves one connection until EOF, an I/O failure, an oversized frame, or
/// a draining shutdown. A request frame may arrive in pieces across poll
/// timeouts: the worker keeps what it has read, so a client that pauses
/// mid-frame holds the worker like an idle client does.
fn serve_connection(
    mut stream: TcpStream,
    handler: &dyn Handler,
    shutdown: &AtomicBool,
    counters: &NetCounters,
    drain_grace: Duration,
) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut drain_deadline: Option<Instant> = None;
    let mut frame = FrameReader::default();
    loop {
        if drain_deadline.is_none() && shutdown.load(Ordering::Acquire) {
            // Shutdown started: this connection gets one grace window to
            // flush requests already in flight, then closes.
            let deadline = Instant::now() + drain_grace;
            if stream.set_read_timeout(Some(drain_grace)).is_err() {
                return;
            }
            drain_deadline = Some(deadline);
        }
        if let Some(deadline) = drain_deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            if stream.set_read_timeout(Some(remaining)).is_err() {
                return;
            }
        }
        match frame.read_once(&mut stream) {
            Ok(Progress::Frame(request)) => {
                // Per-frame codec negotiation: a binary request frame gets a
                // binary reply, anything else goes down the JSON path (whose
                // typed bad_request covers non-UTF-8 garbage too), so a
                // JSON-era client never sees a byte it cannot parse.
                let response = if decoder_sim::bincodec::is_binary(&request) {
                    handle_bin(handler, &request)
                } else {
                    match std::str::from_utf8(&request) {
                        Ok(request_json) => handle_json(handler, request_json).into_bytes(),
                        Err(_) => error_response(&WireError::new(
                            WireErrorKind::BadRequest,
                            "request frame is not valid UTF-8",
                        ))
                        .into_bytes(),
                    }
                };
                // Counted before the write: a client that has *received* its
                // response must already observe the increment, so the counter
                // can never lag behind what clients have seen.
                counters.served.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut stream, &response).is_err() {
                    return;
                }
            }
            Ok(Progress::Partial) => {}
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A poll timeout, with or without part of a frame read. In
                // drain mode a timeout the size of the remaining grace means
                // the client has nothing more in flight.
                if drain_deadline.is_some() {
                    return;
                }
            }
            Err(error) if error.kind() == io::ErrorKind::InvalidData => {
                // A length prefix above MAX_FRAME_BYTES: nothing was
                // allocated for the payload, and the stream cannot be
                // resynchronised past it, so answer once and close.
                counters.served.fetch_add(1, Ordering::Relaxed);
                refuse(&mut stream, WireErrorKind::BadRequest, &error.to_string());
                return;
            }
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Ok(Progress::Eof) | Err(_) => return,
        }
    }
}

/// Control handle of a running [`NetServer`]: address, counters, graceful
/// shutdown. Dropping the handle shuts the server down gracefully too.
#[derive(Debug)]
pub struct NetServerHandle {
    local_addr: SocketAddr,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<TcpStream>>,
    counters: Arc<NetCounters>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

// BoundedQueue is an internal type; keep the handle's Debug readable.
impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue").finish_non_exhaustive()
    }
}

impl NetServerHandle {
    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The configuration the server runs with, zero counts clamped.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Connections whose accept has been fully handled — dispatched to the
    /// queue or shed. Monotonic; used by tests and the shed probe to
    /// sequence deterministically against the acceptor.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.counters.accepted.load(Ordering::Acquire)
    }

    /// Request frames answered across all connections.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.counters.served.load(Ordering::Relaxed)
    }

    /// Connections refused because the dispatch queue was full.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.counters.shed.load(Ordering::Relaxed)
    }

    /// Gracefully shuts the server down: stop accepting, drain in-flight
    /// requests (each accepted connection gets [`ServeConfig::drain_grace`]
    /// to flush what it already sent), join every thread. The acceptor,
    /// blocked in `accept()`, is woken by one connection to the listener;
    /// should that connect fail, it is left to exit at its next accept
    /// rather than joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor sleeps in accept(): one connection of our own
            // wakes it to see the flag. Should that connect fail, shutdown
            // must not hang on the acceptor, which then exits at its next
            // accept; its handle is dropped unjoined.
            if TcpStream::connect(wake_addr(self.local_addr)).is_ok() {
                acceptor.join().ok();
            }
        }
        // No new connections are dispatched now; closing the queue lets
        // workers drain the remaining accepted connections and then exit.
        self.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The address that reaches a listener bound to `local`: itself, or
/// loopback when the listener is bound to the unspecified address.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// A blocking framed-TCP client: the other half of the protocol, used by
/// the loadgen, the integration tests, and as a reference implementation
/// for external clients.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns a persistence error when the connection cannot be
    /// established.
    pub fn connect<A: ToSocketAddrs + std::fmt::Debug>(addr: A) -> Result<Self> {
        let stream = TcpStream::connect(&addr)
            .map_err(|error| wire_err(format!("connect {addr:?}: {error}")))?;
        stream.set_nodelay(true).ok();
        Ok(NetClient { stream })
    }

    /// Sends one request frame, a wire document in either codec, without
    /// waiting for the response.
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure.
    pub fn send_bytes(&mut self, request: &[u8]) -> Result<()> {
        write_frame(&mut self.stream, request)
            .map_err(|error| wire_err(format!("send frame: {error}")))
    }

    /// Receives one response frame; `Ok(None)` is a clean server-side
    /// close. The frame may be in either codec (an accept-time shed is
    /// always JSON) — decode it with [`crate::binwire::parse_reply_any`].
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure.
    pub fn recv_bytes(&mut self) -> Result<Option<Vec<u8>>> {
        read_frame(&mut self.stream).map_err(|error| wire_err(format!("recv frame: {error}")))
    }

    /// One full round trip: send a request frame, block for the response
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns a persistence error on I/O failure or when the server closes
    /// without responding.
    pub fn call_bytes(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        self.send_bytes(request)?;
        self.recv_bytes()?
            .ok_or_else(|| wire_err("server closed the connection without a response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, b"{\"a\":1}").unwrap();
        write_frame(&mut buffer, b"").unwrap();
        let mut cursor = io::Cursor::new(buffer);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert_eq!(
            read_frame(&mut io::Cursor::new(oversized))
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidData
        );

        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"full frame").unwrap();
        truncated.truncate(truncated.len() - 3);
        assert!(read_frame(&mut io::Cursor::new(truncated)).is_err());

        // A partial header is an error too, not a clean EOF.
        assert_eq!(
            read_frame(&mut io::Cursor::new(vec![0u8, 0]))
                .unwrap_err()
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_when_closed() {
        let queue = BoundedQueue::new(2);
        assert!(queue.try_push(1).is_ok());
        assert!(queue.try_push(2).is_ok());
        assert_eq!(queue.try_push(3).unwrap_err(), 3);
        queue.close();
        // Remaining items still drain after close…
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        // …then the queue reports closed, and rejects new pushes.
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.try_push(4).unwrap_err(), 4);
    }

    /// A writer that records the bytes of every `write` call.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// 159 and 752 bytes are the sizes of perfbench's binary reply and JSON
    /// request frames.
    #[test]
    fn each_frame_leaves_in_one_write() {
        for length in [0, 159, 752] {
            let payload: Vec<u8> = (0..=u8::MAX).cycle().take(length).collect();
            let mut log = WriteLog::default();
            write_frame(&mut log, &payload).unwrap();
            assert_eq!(
                log.0.len(),
                1,
                "a {length}-byte payload took several writes"
            );
            let frame = &log.0[0];
            assert_eq!(frame[..4], u32::try_from(length).unwrap().to_be_bytes());
            assert_eq!(frame[4..], payload[..]);
            assert_eq!(read_frame(&mut frame.as_slice()).unwrap(), Some(payload));
        }
    }

    fn wait_for_accepted(handle: &NetServerHandle, count: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.accepted() < count {
            assert!(
                Instant::now() < deadline,
                "acceptor saw {} of {count}",
                handle.accepted()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The connection that wakes the acceptor is neither queued (the idle
    /// case, where the queue has room) nor shed (the busy case, where the
    /// worker holds a connection and another fills the queue): `accepted`,
    /// `served` and `shed` read the same after shutdown as before it.
    #[test]
    fn the_shutdown_wake_connection_is_never_dispatched_or_counted() {
        let handler: Arc<dyn Handler> = Arc::new(crate::ReportServer::new(Arc::new(
            decoder_sim::ExecutionEngine::serial(),
        )));
        for busy in [false, true] {
            let config = ServeConfig {
                workers: 1,
                queue_bound: 1,
                drain_grace: Duration::from_millis(50),
                ..ServeConfig::default()
            };
            let mut handle = NetServer::bind(config, Arc::clone(&handler)).unwrap();
            // The worker keeps this connection. A malformed request is
            // answered with a typed bad_request and evaluates nothing.
            let mut client = NetClient::connect(handle.local_addr()).unwrap();
            client.call_bytes(b"not a request").unwrap();
            let _filler = busy.then(|| NetClient::connect(handle.local_addr()).unwrap());
            let accepted = 1 + u64::from(busy);
            wait_for_accepted(&handle, accepted);

            let started = Instant::now();
            handle.shutdown_inner();
            let waited = started.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "busy {busy}: shutdown took {waited:?}"
            );
            assert_eq!(
                (handle.accepted(), handle.served(), handle.shed()),
                (accepted, 1, 0),
                "busy {busy}"
            );
        }
    }

    #[test]
    fn serve_config_env_parsing_falls_back_on_garbage() {
        // from_env must never panic on unparsable values; defaults win.
        // (Set-and-unset is safe here: Rust tests in this module that touch
        // these variables run in this one process, and no other test reads
        // them.)
        std::env::set_var(NET_WORKERS_ENV, "not-a-number");
        let config = ServeConfig::from_env();
        std::env::remove_var(NET_WORKERS_ENV);
        assert_eq!(config.workers, ServeConfig::default().workers);
    }
}
