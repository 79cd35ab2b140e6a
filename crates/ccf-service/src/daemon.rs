//! The filter daemon: a thread-per-connection TCP server over
//! [`std::net::TcpListener`] hosting per-tenant filters.
//!
//! # Lifecycle
//!
//! 1. **Startup** — each tenant warm-loads from the snapshot directory if a sealed
//!    image is present (bit-identical reload), else starts empty from its spec.
//!    Startup fails typed — bad specs and corrupt snapshots both surface as
//!    [`ServiceError`]s before the listener binds.
//! 2. **Serving** — each accepted connection gets a thread; frames are served in
//!    order per connection. Malformed frames get an error response where possible
//!    and close only that connection; the daemon never panics or hangs on garbage.
//! 3. **Shutdown** — a `Shutdown` frame flips the flag, the acceptor is poked awake,
//!    connection threads drain, and every tenant is snapshotted to disk
//!    (snapshot-on-exit). [`RunningDaemon::wait`] then returns the per-tenant
//!    digests, and the `ccf-serviced` bin exits 0.
//!
//! # Admin surface
//!
//! `Stats` returns per-tenant occupancy/growth/FPR in a fixed binary layout;
//! `Metrics` returns the whole telemetry registry as Prometheus text exposition —
//! filter-level series (PR 8) plus the daemon's own connection/request/error
//! counters, frame-size histograms and uptime gauge.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ccf_telemetry::{buckets, Counter, Gauge, Histogram, Telemetry};

use crate::config::DaemonConfig;
use crate::error::{ProtocolError, ServiceError};
use crate::persist;
use crate::tenant::Tenant;
use crate::wire::{self, BodyReader, BodyWriter, Opcode, Request, Response, Status};

/// The daemon's own instruments, resolved once at startup.
#[derive(Debug)]
struct ServerInstruments {
    connections: Counter,
    requests: Counter,
    protocol_errors: Counter,
    request_bytes: Histogram,
    response_bytes: Histogram,
    uptime_seconds: Gauge,
}

impl ServerInstruments {
    fn resolve(telemetry: &Telemetry) -> Self {
        ServerInstruments {
            connections: telemetry.counter(
                "ccf_service_connections_total",
                "TCP connections accepted by the daemon",
                &[],
            ),
            requests: telemetry.counter(
                "ccf_service_requests_total",
                "Request frames served (any status)",
                &[],
            ),
            protocol_errors: telemetry.counter(
                "ccf_service_protocol_errors_total",
                "Malformed frames received (truncated, oversized, bad magic, garbage)",
                &[],
            ),
            request_bytes: telemetry.histogram(
                "ccf_service_request_bytes",
                "Request frame sizes in bytes",
                &buckets::frame_bytes(),
                &[],
            ),
            response_bytes: telemetry.histogram(
                "ccf_service_response_bytes",
                "Response frame sizes in bytes",
                &buckets::frame_bytes(),
                &[],
            ),
            uptime_seconds: telemetry.gauge(
                "ccf_service_uptime_seconds",
                "Seconds since the daemon started",
                &[],
            ),
        }
    }
}

/// Shared server state every connection thread works against.
#[derive(Debug)]
struct ServerState {
    tenants: BTreeMap<u32, Tenant>,
    telemetry: Telemetry,
    instruments: ServerInstruments,
    started: Instant,
    shutdown: AtomicBool,
    snapshot_dir: Option<PathBuf>,
}

impl ServerState {
    fn serve(&self, req: &Request) -> Response {
        self.instruments.requests.inc();
        if self.shutdown.load(Ordering::SeqCst) && req.opcode != Opcode::Ping {
            return Response::error(Status::ShuttingDown, "daemon is shutting down");
        }
        match req.opcode {
            Opcode::Ping => Response::ok(Vec::new()),
            Opcode::Metrics => {
                self.instruments
                    .uptime_seconds
                    .set(self.started.elapsed().as_secs() as i64);
                Response::ok(self.telemetry.render_text().into_bytes())
            }
            Opcode::SnapshotNow => self.snapshot_all(),
            Opcode::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ok(Vec::new())
            }
            Opcode::Insert
            | Opcode::Query
            | Opcode::Contains
            | Opcode::DeleteRow
            | Opcode::DeleteKey
            | Opcode::Stats => match self.tenants.get(&req.tenant) {
                None => Response::error(
                    Status::UnknownTenant,
                    &format!("tenant {} is not hosted", req.tenant),
                ),
                Some(tenant) => match self.serve_tenant(tenant, req) {
                    Ok(resp) => resp,
                    Err(e) => {
                        self.instruments.protocol_errors.inc();
                        Response::error(Status::BadRequest, &e.to_string())
                    }
                },
            },
        }
    }

    fn serve_tenant(&self, tenant: &Tenant, req: &Request) -> Result<Response, ProtocolError> {
        let mut r = BodyReader::new(&req.body);
        let mut w = BodyWriter::new();
        match req.opcode {
            Opcode::Insert => {
                let rows = wire::get_rows(&mut r)?;
                r.finish()?;
                let codes: Vec<u8> = tenant
                    .insert_batch(&rows)
                    .iter()
                    .map(wire::insert_result_code)
                    .collect();
                wire::put_codes(&mut w, &codes);
            }
            Opcode::Query => {
                let pred = wire::get_predicate(&mut r)?;
                let keys = wire::get_keys(&mut r)?;
                r.finish()?;
                wire::put_bools(&mut w, &tenant.query_batch(&keys, &pred));
            }
            Opcode::Contains => {
                let keys = wire::get_keys(&mut r)?;
                r.finish()?;
                wire::put_bools(&mut w, &tenant.contains_batch(&keys));
            }
            Opcode::DeleteRow => {
                let rows = wire::get_rows(&mut r)?;
                r.finish()?;
                let codes: Vec<u8> = tenant
                    .delete_row_batch(&rows)
                    .iter()
                    .map(wire::delete_result_code)
                    .collect();
                wire::put_codes(&mut w, &codes);
            }
            Opcode::DeleteKey => {
                let keys = wire::get_keys(&mut r)?;
                r.finish()?;
                let codes: Vec<u8> = tenant
                    .delete_key_batch(&keys)
                    .iter()
                    .map(wire::delete_result_code)
                    .collect();
                wire::put_codes(&mut w, &codes);
            }
            Opcode::Stats => {
                r.finish()?;
                let stats = tenant.stats();
                w.put_u32(stats.num_shards() as u32);
                w.put_u64(stats.occupied_entries() as u64);
                w.put_u64(stats.total_capacity as u64);
                w.put_u64(stats.total_size_bits as u64);
                w.put_u64(u64::from(stats.total_doublings()));
                w.put_u64(stats.load_factor().to_bits());
                w.put_u64(stats.expected_key_fpr().to_bits());
            }
            _ => unreachable!("serve() routes only tenant opcodes here"),
        }
        Ok(Response::ok(w.into_bytes()))
    }

    /// Persist every tenant now; the `SnapshotNow` response body is
    /// `u32 count` then per tenant `u32 id` + `u64 digest`.
    fn snapshot_all(&self) -> Response {
        let Some(dir) = &self.snapshot_dir else {
            return Response::error(Status::BadRequest, "daemon has no --snapshot-dir");
        };
        let mut w = BodyWriter::new();
        w.put_u32(self.tenants.len() as u32);
        for (&id, tenant) in &self.tenants {
            match persist::save_tenant(dir, id, tenant) {
                Ok(digest) => {
                    w.put_u32(id);
                    w.put_u64(digest);
                }
                Err(e) => {
                    return Response::error(
                        Status::Internal,
                        &format!("snapshotting tenant {id} failed: {e}"),
                    )
                }
            }
        }
        Response::ok(w.into_bytes())
    }
}

/// A started daemon: the bound address plus the handles needed to wait it out.
#[derive(Debug)]
pub struct RunningDaemon {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_handle: std::thread::JoinHandle<()>,
}

impl RunningDaemon {
    /// The address the daemon is listening on (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from in-process (the wire `Shutdown` opcode does the same).
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        poke(self.addr);
    }

    /// Block until the daemon has shut down, then snapshot every tenant
    /// (snapshot-on-exit). Returns the per-tenant file digests (empty when no
    /// snapshot directory is configured).
    pub fn wait(self) -> Result<Vec<(u32, u64)>, ServiceError> {
        self.accept_handle
            .join()
            .map_err(|_| ServiceError::Config("accept thread panicked".into()))?;
        let mut digests = Vec::new();
        if let Some(dir) = &self.state.snapshot_dir {
            for (&id, tenant) in &self.state.tenants {
                digests.push((id, persist::save_tenant(dir, id, tenant)?));
            }
        }
        Ok(digests)
    }
}

/// Wake the acceptor with a throwaway connection so it observes the shutdown flag.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Close a connection being refused without losing the refusal: FIN our write
/// side, then drain whatever the peer already pipelined so `close()` doesn't turn
/// into an RST that destroys the in-flight error response. The drain is bounded by
/// the connection's idle-tick read timeout.
fn close_after_refusal(mut stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
}

/// Build tenants (warm-loading from the snapshot directory where images exist),
/// bind the listener, and start serving. Telemetry is always enabled in the daemon:
/// the `Metrics` opcode is part of the admin surface.
pub fn start(config: DaemonConfig) -> Result<RunningDaemon, ServiceError> {
    let telemetry = Telemetry::enabled();
    let mut tenants = BTreeMap::new();
    for spec in &config.tenants {
        let mut tenant = match &config.snapshot_dir {
            Some(dir) => match persist::load_tenant(dir, spec.id)? {
                Some((warm, _digest)) => warm,
                None => Tenant::from_spec(spec)?,
            },
            None => Tenant::from_spec(spec)?,
        };
        let id = spec.id.to_string();
        tenant.attach_telemetry(&telemetry, &[("tenant", id.as_str())]);
        if tenants.insert(spec.id, tenant).is_some() {
            return Err(ServiceError::Config(format!(
                "tenant id {} specified twice",
                spec.id
            )));
        }
    }
    let instruments = ServerInstruments::resolve(&telemetry);
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        tenants,
        telemetry,
        instruments,
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        snapshot_dir: config.snapshot_dir,
    });

    let accept_state = Arc::clone(&state);
    let accept_handle = std::thread::spawn(move || {
        let workers: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
        for conn in listener.incoming() {
            if accept_state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let conn_state = Arc::clone(&accept_state);
            let handle = std::thread::spawn(move || handle_connection(&conn_state, stream));
            workers.lock().expect("worker list lock").push(handle);
        }
        // Drain connection threads so snapshot-on-exit sees their final writes.
        for handle in workers.lock().expect("worker list lock").drain(..) {
            let _ = handle.join();
        }
    });

    Ok(RunningDaemon {
        addr,
        state,
        accept_handle,
    })
}

/// How often a worker parked on a silent connection wakes to re-check shutdown.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// Serve one connection until the peer closes, a malformed envelope forces a close,
/// or shutdown is requested.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    state.instruments.connections.inc();
    // Workers must never pin the shutdown drain: an idle keepalive connection would
    // otherwise block `read_frame` forever and graceful shutdown with it. A read
    // timeout turns the park into a tick loop — `peek` waits up to one tick, an
    // idle tick re-checks the flag, and only a peer that stalls *mid-frame* for a
    // full tick is dropped as truncated.
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    loop {
        let mut peeked = [0u8; 1];
        match stream.peek(&mut peeked) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let frame = match wire::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(ServiceError::Protocol(e)) => {
                // Malformed stream: answer with a typed reason if the socket still
                // writes, then close this connection. The daemon keeps serving.
                state.instruments.protocol_errors.inc();
                let resp = Response::error(Status::BadRequest, &e.to_string());
                let _ = wire::write_frame(&mut stream, &wire::encode_response(&resp));
                close_after_refusal(&stream);
                return;
            }
            Err(_) => return, // I/O error: nothing to answer on
        };
        state.instruments.request_bytes.observe_len(frame.len());
        let response = match wire::parse_request(&frame) {
            Ok(req) => {
                let resp = state.serve(&req);
                if req.opcode == Opcode::Shutdown {
                    let encoded = wire::encode_response(&resp);
                    state.instruments.response_bytes.observe_len(encoded.len());
                    let _ = wire::write_frame(&mut stream, &encoded);
                    // Poke the acceptor awake on the daemon's own address so it
                    // re-checks the flag even with no other traffic.
                    if let Ok(local) = stream.local_addr() {
                        poke(local);
                    }
                    return;
                }
                resp
            }
            Err(e) => {
                state.instruments.protocol_errors.inc();
                let resp = Response::error(Status::BadRequest, &e.to_string());
                let encoded = wire::encode_response(&resp);
                state.instruments.response_bytes.observe_len(encoded.len());
                let _ = wire::write_frame(&mut stream, &encoded);
                close_after_refusal(&stream);
                return; // malformed envelope: close after answering
            }
        };
        let encoded = wire::encode_response(&response);
        state.instruments.response_bytes.observe_len(encoded.len());
        if wire::write_frame(&mut stream, &encoded).is_err() {
            return;
        }
    }
}
