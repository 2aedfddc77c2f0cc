//! The deployment under test: a `gql-serve` `Server` on loopback in this
//! process, and one client connection speaking the length-prefixed JSON
//! wire protocol.

use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use gql_serve::json::Value;
use gql_serve::proto::{read_frame, write_frame};
use gql_serve::{Catalog, Envelope, ServeHandle, Server, Service, TenantRegistry};

use crate::workload::{Inputs, QuerySpec, RELOAD_DATASET};

pub const TENANT: &str = "bench";

/// The CPU masks of a pinned run: the one CPU the client and the server's
/// threads run on, and the mask the service's workers run on.
static MASKS: OnceLock<Masks> = OnceLock::new();

/// A thread's CPU affinity, in the layout of glibc's `cpu_set_t` (1024
/// CPUs).
type CpuMask = [u8; 128];

struct Masks {
    one: CpuMask,
    workers: CpuMask,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

fn get_mask() -> Option<CpuMask> {
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of exactly `mask.len()` bytes
    // that outlives the call; pid 0 names the calling thread.
    (unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } == 0).then_some(mask)
}

fn set_mask(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly `mask.len()` bytes
    // that outlives the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}

/// CPUs the process may use at start-up.
static CPUS: OnceLock<usize> = OnceLock::new();

/// Service pool size: one worker per CPU the machine gives the process,
/// as a deployment sizes it (counted before the process is pinned).
pub fn pool_size() -> usize {
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pin the calling thread, and every thread it starts later, to one CPU,
/// the last one the process may use; with `workers_on_all_cpus` the
/// service's workers keep every start-up CPU (see [`with_worker_mask`]).
/// Call before any thread starts. Returns the pinned CPU.
///
/// On a virtual machine a closed loop that hands each request between
/// threads on two vCPUs pays a cross-vCPU wake-up per hand-off, and
/// hypervisor steal stretches those wake-ups: identical runs disagreed by
/// up to 2x. On one CPU the hand-offs are local context switches.
pub fn pin_to_one_cpu(workers_on_all_cpus: bool) -> Option<usize> {
    // Count the pool's CPUs before the mask narrows to one.
    pool_size();
    let full = get_mask()?;
    let cpu = (0..full.len() * 8)
        .rev()
        .find(|&i| full[i / 8] & (1 << (i % 8)) != 0)?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    if !set_mask(&one) {
        return None;
    }
    let workers = if workers_on_all_cpus { full } else { one };
    MASKS.get_or_init(|| Masks { one, workers });
    Some(cpu)
}

/// Run `f` on the service workers' CPU mask, then re-pin.
///
/// Threads inherit their creator's mask, and `available_parallelism`
/// reads the calling thread's mask: the XML-GL matcher sizes its parallel
/// fan-out from it (`MatchMode::Auto` splits 64 or more root candidates
/// over that many threads). The service is built, and the traced run's
/// direct engine calls are made, through this function, so both see the
/// same CPUs.
pub fn with_worker_mask<R>(f: impl FnOnce() -> R) -> R {
    match MASKS.get() {
        Some(masks) if masks.workers != masks.one => {
            set_mask(&masks.workers);
            let out = f();
            set_mask(&masks.one);
            out
        }
        _ => f(),
    }
}

/// A running server plus its client connection: the service's workers on
/// the workers' CPU mask, the server's accept and connection threads on
/// the caller's. Fields drop in order:
/// the connection closes first (its server thread sees EOF and exits),
/// then the accept loop stops, then the worker pool is joined.
pub struct Deployment {
    conn: TcpStream,
    _server: Server,
    service: Service,
}

impl Deployment {
    /// Register every dataset from its XML text, build the service, bind
    /// the server and connect.
    pub fn start(inputs: &Inputs) -> Result<Deployment, String> {
        let mut catalog = Catalog::new();
        for (name, xml) in &inputs.datasets {
            catalog.register_xml(name, xml)?;
        }
        let mut tenants = TenantRegistry::new();
        tenants.register(TENANT, Envelope::slots(64));
        let service = with_worker_mask(|| {
            Service::builder()
                .catalog(catalog)
                .tenants(tenants)
                .workers(pool_size())
                .build()
        });
        let server = Server::bind("127.0.0.1:0", service.handle()).map_err(|e| e.to_string())?;
        let conn = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Deployment {
            conn,
            _server: server,
            service,
        })
    }

    /// Write one request frame and read and parse its reply.
    pub fn roundtrip(&mut self, frame: &[u8]) -> Result<Value, String> {
        write_frame(&mut self.conn, frame).map_err(|e| format!("write: {e}"))?;
        let reply = read_frame(&mut self.conn)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection")?;
        let text = std::str::from_utf8(&reply).map_err(|e| e.to_string())?;
        Value::parse(text)
    }

    /// [`roundtrip`](Self::roundtrip), timed from frame write to parsed
    /// reply.
    pub fn timed(&mut self, frame: &[u8]) -> (Duration, Result<Value, String>) {
        let start = Instant::now();
        let reply = self.roundtrip(frame);
        (start.elapsed(), reply)
    }

    pub fn handle(&self) -> ServeHandle {
        self.service.handle()
    }
}

/// The wire request for one query.
pub fn query_request(spec: &QuerySpec, profile: bool) -> gql_serve::Request {
    let req = gql_serve::Request::new(TENANT, spec.dataset, spec.lang.name(), spec.text);
    if profile {
        req.with_profile()
    } else {
        req
    }
}

/// Pre-rendered request payloads, so the timed window measures the wire
/// round trip and not request rendering.
pub fn query_frame(spec: &QuerySpec, profile: bool) -> Vec<u8> {
    gql_serve::proto::encode_request(&query_request(spec, profile))
        .render()
        .into_bytes()
}

pub fn reload_frame(xml: &str) -> Result<Vec<u8>, String> {
    let frame = Value::Obj(vec![
        ("op".into(), Value::str("reload")),
        ("dataset".into(), Value::str(RELOAD_DATASET)),
        ("xml".into(), Value::str(xml)),
    ])
    .render()
    .into_bytes();
    if frame.len() > gql_serve::proto::MAX_FRAME {
        // The server reads frames up to MAX_FRAME only; a larger reload
        // could never be sent.
        return Err(format!(
            "reload frame of {} bytes exceeds the cap",
            frame.len()
        ));
    }
    Ok(frame)
}
