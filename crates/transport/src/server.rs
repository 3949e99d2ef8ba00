//! [`IdeaServer`]: the TCP frontend over any [`CommandExecutor`], in two
//! interchangeable implementations selected by [`ServerConfig::mode`]:
//!
//! * [`ServerMode::Evented`] (the default) — one readiness-driven event
//!   loop thread multiplexing every connection over the vendored
//!   `mio`-style poller: nonblocking accept, per-connection read-buffer
//!   frame reassembly, and a per-connection write queue whose flushes
//!   coalesce many small response frames into one `write` syscall. Thread
//!   count is O(1) in the number of connections — the fan-in path.
//! * [`ServerMode::Threaded`] — the original two-OS-threads-per-connection
//!   server, kept as the pinned baseline the fan-in benchmark compares
//!   against (and a conservative fallback).
//!
//! Both speak the identical wire protocol with identical per-connection
//! semantics: commands dispatch in arrival order into the executor's
//! per-object FIFO mailboxes via the non-blocking
//! [`CommandExecutor::dispatch`] reply-callback path, responses return in
//! *completion* order correlated by `request_id`, and fire-and-forget
//! frames (`request_id == `[`NO_REPLY`](crate::frame::NO_REPLY)) are
//! submitted with no reply path at all. The loopback byte-equivalence
//! suite runs unchanged against either mode.
//!
//! The evented server adds connection admission and backpressure, which
//! the threaded baseline does not have:
//!
//! * a connection past [`ServerConfig::max_connections`] is answered with
//!   the typed [`WireError::ServerAtCapacity`](idea_types::WireError::ServerAtCapacity) rejection and closed —
//!   never silently dropped, never hung;
//! * a connection whose un-flushed response bytes exceed
//!   [`ServerConfig::high_water_bytes`] (a slow or stalled reader) has its
//!   *reads* deferred until the queue drains below half the mark, so one
//!   slow consumer cannot balloon server memory or stall its neighbours.

use idea_core::CommandExecutor;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;

mod evented;
mod threaded;

/// Which server implementation [`IdeaServer::bind_with`] starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// Readiness-driven event loop: one thread for every connection.
    Evented,
    /// Two OS threads (reader + writer) per connection — the pre-event-loop
    /// implementation, kept as the pinned fan-in baseline.
    Threaded,
}

/// Tuning for [`IdeaServer::bind_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Implementation to start (default [`ServerMode::Evented`]).
    pub mode: ServerMode,
    /// Admission cap: a connection accepted while this many are live is
    /// answered with the typed [`WireError::ServerAtCapacity`](idea_types::WireError::ServerAtCapacity) rejection
    /// and closed. Enforced by the evented server only (the threaded
    /// baseline predates admission control). Default 16 384.
    pub max_connections: usize,
    /// Per-connection backpressure mark: once a connection's un-flushed
    /// response bytes exceed this, its reads are deferred until the queue
    /// drains below half the mark. Evented server only. Default 1 MiB.
    pub high_water_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mode: ServerMode::Evented,
            max_connections: 16_384,
            high_water_bytes: 1 << 20,
        }
    }
}

impl ServerConfig {
    /// The default configuration with `mode` taken from the
    /// `IDEA_SERVER_MODE` environment variable (`threaded` or `evented`,
    /// default evented) — how CI drives the same test suite against both
    /// implementations.
    pub fn from_env() -> Self {
        let mode = match std::env::var("IDEA_SERVER_MODE").as_deref() {
            Ok("threaded") => ServerMode::Threaded,
            _ => ServerMode::Evented,
        };
        ServerConfig { mode, ..ServerConfig::default() }
    }

    /// The threaded baseline with otherwise-default settings.
    pub fn threaded() -> Self {
        ServerConfig { mode: ServerMode::Threaded, ..ServerConfig::default() }
    }
}

/// A running TCP server fronting a [`CommandExecutor`].
///
/// Bind with [`IdeaServer::bind`] (mode from the environment, evented by
/// default) or [`IdeaServer::bind_with`]; the listener address (useful
/// with port `0`) is [`IdeaServer::local_addr`]. [`IdeaServer::stop`]
/// (also run on drop) closes the listener and every connection and joins
/// the service threads — it does **not** stop the engine, which the
/// caller still owns.
pub struct IdeaServer {
    inner: Inner,
}

enum Inner {
    Threaded(threaded::ThreadedServer),
    Evented(evented::EventedServer),
}

impl IdeaServer {
    /// Binds `addr` and starts serving `executor` with
    /// [`ServerConfig::from_env`].
    ///
    /// # Errors
    /// Propagates listener-setup I/O failures; per-connection failures
    /// after that only close the affected connection.
    pub fn bind(addr: impl ToSocketAddrs, executor: Arc<dyn CommandExecutor>) -> io::Result<Self> {
        Self::bind_with(addr, executor, ServerConfig::from_env())
    }

    /// Binds `addr` and starts serving `executor` under `config`.
    ///
    /// # Errors
    /// Propagates listener- and poller-setup I/O failures.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        executor: Arc<dyn CommandExecutor>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let inner = match config.mode {
            ServerMode::Threaded => {
                Inner::Threaded(threaded::ThreadedServer::spawn(listener, executor)?)
            }
            ServerMode::Evented => {
                Inner::Evented(evented::EventedServer::spawn(listener, executor, config)?)
            }
        };
        Ok(IdeaServer { inner })
    }

    /// The bound listener address.
    pub fn local_addr(&self) -> SocketAddr {
        match &self.inner {
            Inner::Threaded(s) => s.local_addr(),
            Inner::Evented(s) => s.local_addr(),
        }
    }

    /// The implementation this server runs.
    pub fn mode(&self) -> ServerMode {
        match &self.inner {
            Inner::Threaded(_) => ServerMode::Threaded,
            Inner::Evented(_) => ServerMode::Evented,
        }
    }

    /// Connections accepted since bind (monotonic; includes closed and
    /// admission-rejected ones).
    pub fn connections_accepted(&self) -> u64 {
        match &self.inner {
            Inner::Threaded(s) => s.connections_accepted(),
            Inner::Evented(s) => s.connections_accepted(),
        }
    }

    /// Connections refused at admission with the typed
    /// [`WireError::ServerAtCapacity`](idea_types::WireError::ServerAtCapacity) rejection. Always 0 in threaded
    /// mode, which has no admission control.
    pub fn connections_rejected(&self) -> u64 {
        match &self.inner {
            Inner::Threaded(_) => 0,
            Inner::Evented(s) => s.connections_rejected(),
        }
    }

    /// Times the event loop woke from its poll since bind — accept
    /// readiness, connection I/O, and completion wake-ups all count. An
    /// *idle* evented server on an OS-backed poller blocks in the poll and
    /// burns none (the regression pin for the old 20 ms accept-poll).
    /// Always 0 in threaded mode.
    pub fn loop_wakeups(&self) -> u64 {
        match &self.inner {
            Inner::Threaded(_) => 0,
            Inner::Evented(s) => s.loop_wakeups(),
        }
    }

    /// Wakes the completion hand-off sent the event loop since bind. A
    /// completion wakes the loop only when no wake is already pending, so
    /// this stays at or below [`IdeaServer::loop_wakeups`] however many
    /// replies were delivered. Always 0 in threaded mode.
    pub fn completion_wakes(&self) -> u64 {
        match &self.inner {
            Inner::Threaded(_) => 0,
            Inner::Evented(s) => s.completion_wakes(),
        }
    }

    /// Count of reads-deferred transitions: how many times a connection
    /// crossed [`ServerConfig::high_water_bytes`] and had its reads parked
    /// until the write queue drained. Always 0 in threaded mode.
    pub fn reads_deferred_total(&self) -> u64 {
        match &self.inner {
            Inner::Threaded(_) => 0,
            Inner::Evented(s) => s.reads_deferred_total(),
        }
    }

    /// Stops accepting, closes every connection and joins the service
    /// threads. Idempotent; also runs on drop.
    pub fn stop(self) {
        // Drop runs the shutdown.
    }
}
