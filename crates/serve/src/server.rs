//! Non-blocking TCP server over the serving engine.
//!
//! # Architecture
//!
//! ```text
//! accept thread ──round-robin──> io loop 0 ──submit_async──> engine queue
//!   (conn limit,                 io loop 1 <──completions──  (workers)
//!    admission cfg)                 ...
//! ```
//!
//! One listener thread accepts connections and hands each to one of
//! `io_threads` **event loops** (round-robin). Each loop readiness-polls
//! its sockets ([`crate::netpoll`]), reads length-prefixed frames into a
//! reusable per-connection [`FrameBuffer`] (parsed in place — no per-frame
//! allocation), and dispatches predictions with
//! [`Engine::submit_async`](crate::Engine::submit_async): the loop never
//! blocks on inference. Worker completions come back on the loop's
//! channel, interrupting the poll via a [`crate::wake::Waker`], and are
//! matched to their connection by token. A slow or dead client therefore
//! costs one socket and its buffers — never a thread, and never a stall
//! of the batcher or of other connections.
//!
//! # Ordering
//!
//! Responses on one connection are sent in request order: every request
//! gets a FIFO slot at parse time (control commands and synchronous
//! rejections fill theirs immediately; predictions fill theirs when the
//! completion arrives) and the writer only releases the FIFO head. Token
//! epochs guard slot reuse, so a completion for a closed connection can
//! never reach a new tenant of the same slot.
//!
//! # Admission control vs overload
//!
//! With a [`RateLimitConfig`], each client IP owns a token bucket checked
//! **before** the engine queue: over-rate requests get the distinct
//! `rate_limited` status while queue-full requests get `overloaded`, so
//! clients can tell "back off to provisioned rate" from "server
//! saturated".

use crate::admission::AdmissionControl;
pub use crate::admission::RateLimitConfig;
use crate::engine::{Completion, CompletionSender, CompletionWaker};
use crate::json::{Json, JsonObj};
use crate::netpoll::{self, PollEntry};
use crate::protocol::{
    error_response, ok_response, read_frame, write_frame, Command, Request, MAX_FRAME,
};
use crate::wake::Waker;
use crate::{Engine, ServeError};
use advcomp_nn::faults;
use advcomp_wire::FrameBuffer;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll interval of the accept loop while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Upper bound on one event-loop poll sleep; also the cadence of idle
/// reaping and shutdown checks. Events (readiness, waker) cut it short.
const EVENT_TICK: Duration = Duration::from_millis(100);
/// Read granularity per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;
/// Keep reading a connection in one poll round until this much buffered
/// input accumulates; must exceed `MAX_FRAME + 4` so a maximum frame can
/// always complete.
const READ_BUDGET: usize = MAX_FRAME as usize + 4 + READ_CHUNK;
/// Pause reading a connection whose un-flushed responses exceed this
/// (backpressure on pipelining clients that never read).
const WRITE_HIGH_WATERMARK: usize = 1 << 20;
/// Default per-connection idle timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// On shutdown, how long the loops wait for in-flight responses to flush.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Server-side configuration (the engine has its own [`crate::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of event-loop I/O threads connections are sharded over.
    pub io_threads: usize,
    /// Per-client-IP admission control; `None` disables rate limiting.
    pub rate_limit: Option<RateLimitConfig>,
    /// Idle connections (no traffic, nothing in flight) are closed after
    /// this long.
    pub read_timeout: Duration,
    /// Accept-time cap on concurrent connections across all loops.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_threads: 1,
            rate_limit: None,
            read_timeout: READ_TIMEOUT,
            max_conns: 1024,
        }
    }
}

/// A running TCP server bound to a local address.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    engine: Engine,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) with default
    /// [`ServerConfig`] and starts serving over `engine`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind fails.
    pub fn bind(engine: Engine, addr: &str) -> Result<Server, ServeError> {
        Server::bind_with(engine, addr, ServerConfig::default())
    }

    /// Binds `addr` with an explicit [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind fails, [`ServeError::Config`] for
    /// invalid configuration.
    pub fn bind_with(
        engine: Engine,
        addr: &str,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        if config.io_threads == 0 {
            return Err(ServeError::Config("io_threads must be >= 1".into()));
        }
        if config.max_conns == 0 {
            return Err(ServeError::Config("max_conns must be >= 1".into()));
        }
        let admission = match config.rate_limit {
            Some(cfg) => Some(Arc::new(
                AdmissionControl::new(cfg).map_err(ServeError::Config)?,
            )),
            None => None,
        };
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));

        let mut targets = Vec::with_capacity(config.io_threads);
        let mut io_threads = Vec::with_capacity(config.io_threads);
        for i in 0..config.io_threads {
            let waker = Arc::new(Waker::new()?);
            let (conn_tx, conn_rx) = mpsc::channel();
            let (comp_tx, comp_rx) = mpsc::channel();
            targets.push((conn_tx, Arc::clone(&waker)));
            let engine_waker: CompletionWaker = {
                let w = Arc::clone(&waker);
                Arc::new(move || w.wake())
            };
            let ctx = IoCtx {
                engine: engine.clone(),
                conn_rx,
                comp_rx,
                comp_tx,
                waker,
                engine_waker,
                shutdown: Arc::clone(&shutdown),
                active: Arc::clone(&active),
                admission: admission.clone(),
                read_timeout: config.read_timeout,
            };
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-io-{i}"))
                    .spawn(move || io_loop(ctx))
                    .map_err(ServeError::Io)?,
            );
        }

        let accept_thread = {
            let engine = engine.clone();
            let shutdown = Arc::clone(&shutdown);
            let max_conns = config.max_conns;
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, engine, shutdown, targets, active, max_conns))
                .map_err(ServeError::Io)?
        };
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            io_threads,
            engine,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown has been requested (e.g. by a client's
    /// `shutdown` command).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking: the accept loop exits on its
    /// next poll; event loops flush in-flight responses and exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop and every event loop have exited,
    /// then stops the engine.
    pub fn join(mut self) {
        self.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in std::mem::take(&mut self.io_threads) {
            let _ = t.join();
        }
        self.engine.shutdown();
    }

    /// Blocks until a client's `shutdown` command (or
    /// [`Server::request_shutdown`] from another thread) stops the server.
    pub fn serve_forever(self) {
        while !self.is_shutting_down() {
            std::thread::sleep(ACCEPT_POLL * 4);
        }
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in std::mem::take(&mut self.io_threads) {
            let _ = t.join();
        }
    }
}

/// Per-io-thread handoff: the channel new connections arrive on, plus the
/// waker that tells its event loop to pick them up.
type IoTarget = (mpsc::Sender<(TcpStream, SocketAddr)>, Arc<Waker>);

fn accept_loop(
    listener: TcpListener,
    engine: Engine,
    shutdown: Arc<AtomicBool>,
    targets: Vec<IoTarget>,
    active: Arc<AtomicUsize>,
    max_conns: usize,
) {
    let mut next = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                if active.load(Ordering::Relaxed) >= max_conns {
                    engine
                        .metrics()
                        .rejected_conns
                        .fetch_add(1, Ordering::Relaxed);
                    continue; // drop the socket: explicit accept-time shedding
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let (tx, waker) = &targets[next % targets.len()];
                next = next.wrapping_add(1);
                active.fetch_add(1, Ordering::Relaxed);
                if tx.send((stream, peer)).is_err() {
                    active.fetch_sub(1, Ordering::Relaxed);
                } else {
                    waker.wake();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping the listener closes the port; event loops drain and exit
    // on the shared flag.
}

/// Everything one event loop needs; owned by its thread.
struct IoCtx {
    engine: Engine,
    conn_rx: Receiver<(TcpStream, SocketAddr)>,
    comp_rx: Receiver<Completion>,
    comp_tx: CompletionSender,
    waker: Arc<Waker>,
    engine_waker: CompletionWaker,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    admission: Option<Arc<AdmissionControl>>,
    read_timeout: Duration,
}

/// One FIFO slot of a connection's response queue. `response` is the
/// fully framed bytes once known; `None` marks an in-flight prediction.
struct Pending {
    seq: u32,
    id: String,
    response: Option<Vec<u8>>,
}

/// Why a connection is being torn down.
enum Close {
    /// Clean close (EOF at a frame boundary, idle reap, protocol close).
    Clean,
    /// Transport failure: reset, I/O error, or EOF mid-frame.
    Reset,
}

struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    seq: u32,
    frames: FrameBuffer,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<Pending>,
    last_activity: Instant,
    /// Reads are done; close once `pending` and `write_buf` drain.
    close_after_flush: bool,
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> i32 {
    std::os::unix::io::AsRawFd::as_raw_fd(stream)
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    -1
}

fn token_of(epoch: u16, slot: usize, seq: u32) -> u64 {
    ((epoch as u64) << 48) | (((slot as u64) & 0xFFFF) << 32) | seq as u64
}

fn framed(json: &Json) -> Vec<u8> {
    let mut buf = Vec::new();
    // Responses are server-built and far below MAX_FRAME; a failure here
    // would be a server bug, and dropping the frame (closing the conn via
    // flush error later) beats panicking the event loop.
    let _ = write_frame(&mut buf, json.to_string().as_bytes());
    buf
}

impl Conn {
    fn new(stream: TcpStream, peer: IpAddr) -> Conn {
        Conn {
            stream,
            peer,
            seq: 0,
            frames: FrameBuffer::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            last_activity: Instant::now(),
            close_after_flush: false,
        }
    }

    fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        s
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Queues a response whose bytes are already known, in FIFO position.
    fn push_ready(&mut self, json: &Json) {
        let seq = self.next_seq();
        self.pending.push_back(Pending {
            seq,
            id: String::new(),
            response: Some(framed(json)),
        });
    }

    /// Drains the socket, parses complete frames, dispatches requests.
    fn handle_readable(&mut self, slot: usize, epoch: u16, ctx: &IoCtx) -> Result<(), Close> {
        // Soak-test fault site: an injected `io` fault here behaves like a
        // connection reset observed by the reader.
        if faults::io_error("serve_conn_read").is_some() {
            return Err(Close::Reset);
        }
        let mut eof = false;
        loop {
            if self.frames.len() >= READ_BUDGET {
                break; // keep per-connection memory bounded; poll re-arms
            }
            match self.frames.read_from(&mut &self.stream, READ_CHUNK) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Reset),
            }
        }
        self.parse_frames(slot, epoch, ctx);
        if eof {
            if !self.frames.is_empty() {
                // Short read mid-frame: the client died between a length
                // header and its payload.
                return Err(Close::Reset);
            }
            self.close_after_flush = true;
        }
        Ok(())
    }

    /// Consumes every complete buffered frame.
    fn parse_frames(&mut self, slot: usize, epoch: u16, ctx: &IoCtx) {
        loop {
            let req = match self.frames.next_frame() {
                Ok(Some(payload)) => Request::parse(payload),
                Ok(None) => break,
                Err(e) => {
                    // The stream is no longer frame-aligned and the buffer
                    // has dropped its bytes: answer once, hang up after
                    // flushing.
                    ctx.engine
                        .metrics()
                        .bad_frames
                        .fetch_add(1, Ordering::Relaxed);
                    self.push_ready(&error_response("", &ServeError::BadRequest(e.to_string())));
                    self.close_after_flush = true;
                    break;
                }
            };
            self.last_activity = Instant::now();
            match req {
                Ok(r) => self.handle_request(r, slot, epoch, ctx),
                Err(e) => {
                    // Malformed payload inside a well-framed message: the
                    // stream stays aligned, so answer and keep serving.
                    ctx.engine
                        .metrics()
                        .bad_frames
                        .fetch_add(1, Ordering::Relaxed);
                    self.push_ready(&error_response("", &e));
                }
            }
        }
    }

    fn handle_request(&mut self, req: Request, slot: usize, epoch: u16, ctx: &IoCtx) {
        match req {
            Request::Predict {
                id,
                input,
                probs,
                attack,
            } => {
                if let Some(ac) = &ctx.admission {
                    if !ac.admit(self.peer, Instant::now()) {
                        ctx.engine
                            .metrics()
                            .rate_limited
                            .fetch_add(1, Ordering::Relaxed);
                        self.push_ready(&error_response(&id, &ServeError::RateLimited));
                        return;
                    }
                }
                let seq = self.next_seq();
                let token = token_of(epoch, slot, seq);
                match ctx.engine.submit_async_tagged(
                    input,
                    probs,
                    attack,
                    token,
                    &ctx.comp_tx,
                    Some(ctx.engine_waker.clone()),
                ) {
                    Ok(()) => self.pending.push_back(Pending {
                        seq,
                        id,
                        response: None,
                    }),
                    Err(e) => self.push_ready(&error_response(&id, &e)),
                }
            }
            Request::Control { id, cmd } => {
                let json = match cmd {
                    Command::Ping => JsonObj::new()
                        .set("id", Json::Str(id))
                        .set("status", Json::Str("ok".into()))
                        .build(),
                    Command::Metrics => JsonObj::new()
                        .set("id", Json::Str(id))
                        .set("status", Json::Str("ok".into()))
                        .set("metrics", ctx.engine.metrics_snapshot())
                        .build(),
                    Command::Shutdown => {
                        ctx.shutdown.store(true, Ordering::SeqCst);
                        JsonObj::new()
                            .set("id", Json::Str(id))
                            .set("status", Json::Str("ok".into()))
                            .set("shutting_down", Json::Bool(true))
                            .build()
                    }
                };
                self.push_ready(&json);
            }
        }
    }

    /// Moves every answered FIFO-head response into the write buffer.
    fn release_ready(&mut self) {
        while let Some(front) = self.pending.front_mut() {
            match front.response.take() {
                Some(bytes) => {
                    self.write_buf.extend_from_slice(&bytes);
                    self.pending.pop_front();
                    self.last_activity = Instant::now();
                }
                None => break,
            }
        }
        // Reclaim the buffer once fully flushed rather than growing it
        // forever under pipelining.
        if self.write_pos == self.write_buf.len() && self.write_pos > 0 {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    /// Writes as much buffered response data as the socket accepts.
    fn flush(&mut self) -> Result<(), Close> {
        while self.write_pos < self.write_buf.len() {
            match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(Close::Reset),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Reset),
            }
        }
        if self.write_pos == self.write_buf.len() && self.write_pos > 0 {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(())
    }

    /// Fully drained: nothing buffered, nothing in flight.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.write_pos == self.write_buf.len()
    }
}

fn io_loop(ctx: IoCtx) {
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut epochs: Vec<u16> = Vec::new();
    let mut shutdown_since: Option<Instant> = None;
    loop {
        let shutting = ctx.shutdown.load(Ordering::SeqCst);
        if shutting && shutdown_since.is_none() {
            shutdown_since = Some(Instant::now());
        }
        if let Some(t0) = shutdown_since {
            let all_drained = slots.iter().flatten().all(Conn::drained);
            if all_drained || t0.elapsed() > SHUTDOWN_GRACE {
                break;
            }
        }

        // Readiness poll: waker first, then every live connection.
        let mut entries = vec![PollEntry::new(ctx.waker.poll_fd(), true, false)];
        let mut entry_slots = Vec::with_capacity(slots.len());
        for (i, c) in slots.iter().enumerate() {
            if let Some(c) = c {
                let want_read = !shutting
                    && !c.close_after_flush
                    && c.unflushed() < WRITE_HIGH_WATERMARK
                    && c.frames.len() < READ_BUDGET;
                let want_write = c.unflushed() > 0;
                entries.push(PollEntry::new(raw_fd(&c.stream), want_read, want_write));
                entry_slots.push(i);
            }
        }
        let _ = netpoll::wait(&mut entries, EVENT_TICK);
        ctx.waker.drain();

        // Adopt connections handed over by the acceptor.
        while let Ok((stream, peer)) = ctx.conn_rx.try_recv() {
            let conn = Conn::new(stream, peer.ip());
            ctx.engine
                .metrics()
                .conns_opened
                .fetch_add(1, Ordering::Relaxed);
            match slots.iter().position(Option::is_none) {
                Some(free) => {
                    epochs[free] = epochs[free].wrapping_add(1);
                    slots[free] = Some(conn);
                }
                None => {
                    slots.push(Some(conn));
                    epochs.push(0);
                }
            }
        }

        // Apply worker completions to their pending FIFO slots.
        while let Ok(c) = ctx.comp_rx.try_recv() {
            apply_completion(&mut slots, &epochs, c);
        }

        // Per-connection I/O, driven by the poll results.
        let mut to_close: Vec<(usize, Close)> = Vec::new();
        for (e, &slot) in entries[1..].iter().zip(&entry_slots) {
            let Some(conn) = slots[slot].as_mut() else {
                continue;
            };
            if e.readable && !shutting && !conn.close_after_flush {
                if let Err(reason) = conn.handle_readable(slot, epochs[slot], &ctx) {
                    to_close.push((slot, reason));
                    continue;
                }
            } else if e.closed {
                to_close.push((slot, Close::Reset));
                continue;
            }
        }

        // Release answered responses, flush, and decide closes.
        let now = Instant::now();
        for (slot, entry) in slots.iter_mut().enumerate() {
            if to_close.iter().any(|(s, _)| *s == slot) {
                continue;
            }
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            conn.release_ready();
            if let Err(reason) = conn.flush() {
                to_close.push((slot, reason));
                continue;
            }
            if conn.close_after_flush && conn.drained() {
                to_close.push((slot, Close::Clean));
                continue;
            }
            if !shutting
                && conn.drained()
                && conn.frames.is_empty()
                && now.duration_since(conn.last_activity) > ctx.read_timeout
            {
                to_close.push((slot, Close::Clean)); // idle reap
            }
        }
        for (slot, reason) in to_close {
            if slots[slot].is_some() {
                close_conn(&mut slots, slot, reason, &ctx);
            }
        }
    }
    // Teardown: whatever is left closes now (grace expired or drained).
    for slot in 0..slots.len() {
        if slots[slot].is_some() {
            close_conn(&mut slots, slot, Close::Clean, &ctx);
        }
    }
}

fn apply_completion(slots: &mut [Option<Conn>], epochs: &[u16], c: Completion) {
    let slot = ((c.token >> 32) & 0xFFFF) as usize;
    let epoch = (c.token >> 48) as u16;
    let seq = c.token as u32;
    let Some(Some(conn)) = slots.get_mut(slot) else {
        return; // connection already gone
    };
    if epochs[slot] != epoch {
        return; // slot was reused; completion belongs to a dead tenant
    }
    let Some(p) = conn
        .pending
        .iter_mut()
        .find(|p| p.seq == seq && p.response.is_none())
    else {
        return;
    };
    let json = match &c.result {
        Ok(prediction) => ok_response(&p.id, prediction),
        Err(e) => error_response(&p.id, e),
    };
    p.response = Some(framed(&json));
}

fn close_conn(slots: &mut [Option<Conn>], slot: usize, reason: Close, ctx: &IoCtx) {
    let m = ctx.engine.metrics();
    m.conns_closed.fetch_add(1, Ordering::Relaxed);
    if matches!(reason, Close::Reset) {
        m.conn_resets.fetch_add(1, Ordering::Relaxed);
    }
    slots[slot] = None;
    ctx.active.fetch_sub(1, Ordering::Relaxed);
}

/// Minimal blocking client for tests, benches and smoke checks.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connection failure.
    pub fn connect(addr: SocketAddr) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client { stream, next_id: 0 })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on socket failure or a malformed server frame.
    pub fn call(&mut self, req: &Request) -> Result<crate::json::Json, ServeError> {
        write_frame(&mut self.stream, &req.to_payload())?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        crate::json::Json::parse(&payload).map_err(|e| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response frame: {e}"),
            ))
        })
    }

    /// Classifies one sample, returning the parsed response object.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn predict(
        &mut self,
        input: Vec<f32>,
        probs: bool,
    ) -> Result<crate::json::Json, ServeError> {
        self.predict_tagged(input, probs, None)
    }

    /// Classifies one sample carrying an attack tag so the server tallies
    /// it in the per-attack detection metrics (evaluation traffic only).
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn predict_tagged(
        &mut self,
        input: Vec<f32>,
        probs: bool,
        attack: Option<String>,
    ) -> Result<crate::json::Json, ServeError> {
        self.next_id += 1;
        let id = format!("r{}", self.next_id);
        self.call(&Request::Predict {
            id,
            input,
            probs,
            attack,
        })
    }

    /// Issues a control command, returning the parsed response object.
    ///
    /// # Errors
    ///
    /// As [`Client::call`].
    pub fn control(&mut self, cmd: Command) -> Result<crate::json::Json, ServeError> {
        self.next_id += 1;
        let id = format!("c{}", self.next_id);
        self.call(&Request::Control { id, cmd })
    }

    /// Writes raw bytes straight to the socket (for malformed-frame
    /// tests).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on socket failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Reads one raw response frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on socket failure or EOF mid-frame.
    pub fn read_response(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        Ok(read_frame(&mut self.stream)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::registry::ModelRegistry;
    use crate::{GuardConfig, ServeConfig};
    use advcomp_models::mlp;

    fn test_engine() -> Engine {
        let mut reg = ModelRegistry::new(&[1, 28, 28]).unwrap();
        reg.set_baseline("dense", mlp(8, 0)).unwrap();
        reg.add_variant("alt", mlp(8, 1)).unwrap();
        Engine::start(
            &reg,
            ServeConfig {
                workers: 2,
                max_batch: 4,
                max_delay: Duration::from_millis(1),
                queue_depth: 32,
                guard: Some(GuardConfig { threshold: 0.5 }),
            },
        )
        .unwrap()
    }

    fn test_server() -> Server {
        Server::bind(test_engine(), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn predict_ping_metrics_roundtrip() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let pong = client.control(Command::Ping).unwrap();
        assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));

        let resp = client.predict(vec![0.25; 28 * 28], false).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        assert!(resp.get("label").and_then(Json::as_u64).unwrap() < 10);
        assert!(resp.get("suspect").and_then(Json::as_f64).is_some());

        let metrics = client.control(Command::Metrics).unwrap();
        let m = metrics.get("metrics").unwrap();
        assert_eq!(
            m.get("requests").and_then(|r| r.get("completed")),
            Some(&Json::Num(1.0))
        );
        assert_eq!(
            m.get("conns").and_then(|c| c.get("opened")),
            Some(&Json::Num(1.0))
        );
        server.join();
    }

    #[test]
    fn malformed_and_oversized_frames_get_error_then_close() {
        let server = test_server();

        // Malformed JSON: error response, connection stays frame-aligned
        // and usable afterwards.
        let mut c1 = Client::connect(server.local_addr()).unwrap();
        c1.send_raw(&{
            let mut buf = Vec::new();
            write_frame(&mut buf, b"{oops").unwrap();
            buf
        })
        .unwrap();
        let resp = Json::parse(&c1.read_response().unwrap().unwrap()).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        let ok = c1.predict(vec![0.5; 28 * 28], false).unwrap();
        assert_eq!(
            ok.get("status").and_then(Json::as_str),
            Some("ok"),
            "connection survives a malformed payload"
        );

        // Oversized header: one error frame, then the server closes.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        c2.send_raw(&(crate::protocol::MAX_FRAME + 1).to_le_bytes())
            .unwrap();
        let resp = Json::parse(&c2.read_response().unwrap().unwrap()).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        assert!(c2.read_response().unwrap().is_none(), "server should close");
        server.join();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Fire a burst of frames without reading a single response;
        // interleave a control command to pin mixed-type ordering too.
        let mut blob = Vec::new();
        for i in 0..10 {
            let req = Request::Predict {
                id: format!("p{i}"),
                input: vec![i as f32 / 10.0; 28 * 28],
                probs: false,
                attack: None,
            };
            write_frame(&mut blob, &req.to_payload()).unwrap();
        }
        let ctl = Request::Control {
            id: "ctl".into(),
            cmd: Command::Ping,
        };
        write_frame(&mut blob, &ctl.to_payload()).unwrap();
        client.send_raw(&blob).unwrap();

        for i in 0..10 {
            let resp = Json::parse(&client.read_response().unwrap().unwrap()).unwrap();
            assert_eq!(
                resp.get("id").and_then(Json::as_str),
                Some(format!("p{i}").as_str()),
                "response order must match request order"
            );
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        }
        let resp = Json::parse(&client.read_response().unwrap().unwrap()).unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("ctl"));
        server.join();
    }

    #[test]
    fn rate_limit_returns_rate_limited_not_overloaded() {
        let server = Server::bind_with(
            test_engine(),
            "127.0.0.1:0",
            ServerConfig {
                rate_limit: Some(RateLimitConfig {
                    rps: 0.001, // effectively no refill within the test
                    burst: 2.0,
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut statuses = Vec::new();
        for _ in 0..4 {
            let resp = client.predict(vec![0.5; 28 * 28], false).unwrap();
            statuses.push(
                resp.get("status")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert_eq!(statuses[..2], ["ok", "ok"], "burst admitted");
        assert_eq!(
            statuses[2..],
            ["rate_limited", "rate_limited"],
            "over-rate refused with the distinct status"
        );
        let m = client.control(Command::Metrics).unwrap();
        assert_eq!(
            m.get("metrics")
                .and_then(|m| m.get("requests"))
                .and_then(|r| r.get("rate_limited")),
            Some(&Json::Num(2.0))
        );
        server.join();
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = test_server();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let resp = client.control(Command::Shutdown).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        server.join();
        // The listener is gone: a fresh connection must fail (possibly
        // after the OS finishes tearing down the socket).
        std::thread::sleep(Duration::from_millis(50));
        assert!(Client::connect(addr).is_err());
    }

    #[test]
    fn connection_limit_sheds_at_accept() {
        let server = Server::bind_with(
            test_engine(),
            "127.0.0.1:0",
            ServerConfig {
                max_conns: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c1 = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            c1.control(Command::Ping)
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("ok")
        );
        // The second connection is accepted by the OS but immediately
        // dropped by the server; a request on it fails.
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(c2.predict(vec![0.5; 28 * 28], false).is_err());
        let m = c1.control(Command::Metrics).unwrap();
        let rejected = m
            .get("metrics")
            .and_then(|m| m.get("conns"))
            .and_then(|c| c.get("rejected"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(rejected >= 1.0, "rejected {rejected}");
        server.join();
    }
}
