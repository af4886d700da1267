//! `serve_mixed`: `vdbench_server` on loopback over a fresh store, driven
//! by a closed loop of persistent connections. Most requests hit a warm
//! pool of scan and case-study keys; every `NOVEL_EVERY`-th request of a
//! connection is a scan on a fresh seed, which computes and publishes a
//! blob. The workload seed picks the request order and the novel seeds;
//! the pool is fixed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vdbench_server::{
    ApiRequest, HttpRequest, ServerConfig, ServerHandle, Service, ServiceConfig, StatsResponse,
    TOOL_NAMES,
};

use vdbench_core::fnv1a_key;

use crate::util::{
    cold_store, drop_store, median, ms, per_call_us, splitmix64, Metrics, Samples, Scratch, Tally,
};
use crate::Run;

/// Client connections, each a caller that waits for every reply.
const CONNECTIONS: usize = 2;

/// The warm pool is the one `vdbench loadgen` drives by default: this many
/// scan keys plus the four case studies, drawn from `POOL_SEED`. It does
/// not follow the workload seed, so every seed seeds the same pool and
/// `setup_s` does not depend on which tools a seed happens to draw.
const POOL_SCANS: usize = 64;
const POOL_SEED: u64 = 2015;

/// Every `NOVEL_EVERY`-th request of a connection is a novel scan.
const NOVEL_EVERY: u64 = 64;

/// Tool and size of a novel scan.
const NOVEL_TOOL: &str = "taint";
const NOVEL_UNITS: u64 = 48;

/// Set-ups per run: fresh store, server start, pool seeding, warm-up.
const SETUPS: usize = 7;

/// Warm-up requests per connection at the end of each set-up. They also
/// stretch a set-up to about 0.3 s: the machine's speed drifts over tens
/// of milliseconds, and shorter set-ups read noisier.
const WARMUP_REQUESTS: usize = 4096;

/// One request of the mix.
#[derive(Debug, Clone)]
struct Entry {
    path: &'static str,
    body: String,
}

/// The warm pool: scans over every tool at small varied sizes, and the
/// four standard case studies.
fn pool() -> Vec<Entry> {
    let seed = POOL_SEED;
    let mut rng = seed;
    let mut entries: Vec<Entry> = (0..POOL_SCANS as u64)
        .map(|i| {
            let r = splitmix64(&mut rng);
            let tool = TOOL_NAMES[(r % TOOL_NAMES.len() as u64) as usize];
            let units = 10 + (r >> 8) % 21;
            let density = 0.05 * (1.0 + ((r >> 16) % 10) as f64);
            Entry {
                path: "/v1/scan",
                body: format!(
                    "{{\"tool\":\"{tool}\",\"units\":{units},\"density\":{density},\"seed\":{}}}",
                    seed.wrapping_add(i)
                ),
            }
        })
        .collect();
    for (i, scenario) in ["S1", "S2", "S3", "S4"].iter().enumerate() {
        entries.push(Entry {
            path: "/v1/case-study",
            body: format!(
                "{{\"scenario\":\"{scenario}\",\"units\":{},\"seed\":{seed}}}",
                30 + 10 * i
            ),
        });
    }
    entries
}

/// The `n`-th novel scan of connection `conn`: a seed no pool key and no
/// other novel request uses.
fn novel(seed: u64, conn: usize, n: u64) -> Entry {
    let fresh = seed
        .wrapping_add(1 << 40)
        .wrapping_add((conn as u64) << 32)
        .wrapping_add(n);
    Entry {
        path: "/v1/scan",
        body: format!("{{\"tool\":\"{NOVEL_TOOL}\",\"units\":{NOVEL_UNITS},\"seed\":{fresh}}}"),
    }
}

/// A persistent keep-alive HTTP/1.1 connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    head: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            head: String::new(),
        })
    }

    /// Sends one request and reads the reply: `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.head.clear();
        self.head.push_str(&format!(
            "{method} {path} HTTP/1.1\r\nHost: vdperf\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        self.writer.write_all(self.head.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok((status, body))
    }
}

fn fetch_stats(addr: SocketAddr) -> io::Result<StatsResponse> {
    let (status, body) = Client::connect(addr)?.request("GET", "/v1/stats", "")?;
    if status != 200 {
        return Err(io::Error::other(format!("/v1/stats answered {status}")));
    }
    serde_json::from_str(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn counter(stats: &StatsResponse, name: &str) -> u64 {
    stats.server.get(name).copied().unwrap_or(0)
}

/// A started server over a fresh store whose pool is committed.
struct Warm {
    server: ServerHandle,
    store: std::path::PathBuf,
    pool: Vec<Entry>,
    /// The body each pool key answered with when it was seeded.
    expected: Vec<String>,
}

/// Fresh store, server start, one seeding pass over the pool, then warm-up
/// traffic on every connection.
fn set_up(scratch: &mut Scratch, tally: &mut Tally) -> io::Result<Warm> {
    let store = cold_store(scratch, "serve");
    let server = vdbench_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig::default(),
    })?;
    let pool = pool();
    let mut client = Client::connect(server.addr())?;
    let mut expected = Vec::with_capacity(pool.len());
    for entry in &pool {
        let (status, body) = client.request("POST", entry.path, &entry.body)?;
        tally.expect("pool seeding request", status == 200, || {
            format!("{} {} answered {status}: {body}", entry.path, entry.body)
        });
        expected.push(body);
    }
    let addr = server.addr();
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let pool = &pool;
                s.spawn(move || -> io::Result<()> {
                    let mut client = Client::connect(addr)?;
                    for i in 0..WARMUP_REQUESTS {
                        let entry = &pool[(i * 7 + conn) % pool.len()];
                        client.request("POST", entry.path, &entry.body)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("warm-up client panicked")?;
        }
        Ok(())
    })?;
    Ok(Warm {
        server,
        store,
        pool,
        expected,
    })
}

/// What one closed-loop phase saw.
#[derive(Default)]
struct Phase {
    warm_ms: Samples,
    novel_ms: Samples,
    /// Each novel request as `(connection, request number)`, with the
    /// FNV-1a hash of the body it got (bodies are not kept, so memory
    /// does not grow with the request count).
    novel: Vec<(usize, u64, u64)>,
    requests: u64,
    /// Non-200 replies and warm bodies that differ from the seeded body.
    failures: Vec<String>,
    elapsed: Duration,
}

/// Drives `CONNECTIONS` closed-loop callers for `seconds`.
fn closed_loop(warm: &Warm, seed: u64, seconds: f64, traced: bool) -> io::Result<Phase> {
    let addr = warm.server.addr();
    let stop = AtomicBool::new(false);
    if traced {
        vdbench_telemetry::enable();
    }
    let start = Instant::now();
    let parts: Vec<io::Result<Phase>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let stop = &stop;
                s.spawn(move || -> io::Result<Phase> {
                    let mut client = Client::connect(addr)?;
                    let mut rng = seed ^ (0xC0FF_EE00 + conn as u64);
                    let mut phase = Phase::default();
                    let mut n: u64 = 0;
                    while !stop.load(Ordering::Relaxed) {
                        n += 1;
                        let (entry, pool_index) = if n.is_multiple_of(NOVEL_EVERY) {
                            (novel(seed, conn, n), None)
                        } else {
                            let i = (splitmix64(&mut rng) % warm.pool.len() as u64) as usize;
                            (warm.pool[i].clone(), Some(i))
                        };
                        let sent = Instant::now();
                        let (status, body) = client.request("POST", entry.path, &entry.body)?;
                        let took = ms(sent.elapsed());
                        phase.requests += 1;
                        if status != 200 {
                            phase
                                .failures
                                .push(format!("{} answered {status}", entry.body));
                        }
                        match pool_index {
                            Some(i) => {
                                phase.warm_ms.record(took);
                                if body != warm.expected[i] {
                                    phase.failures.push(format!("{} body changed", entry.body));
                                }
                            }
                            None => {
                                phase.novel_ms.record(took);
                                phase.novel.push((conn, n, fnv1a_key(body.as_bytes())));
                            }
                        }
                    }
                    Ok(phase)
                })
            })
            .collect();
        // The timer; a traced phase drains span buffers as it goes.
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100).min(deadline - Instant::now()));
            if traced {
                drop(vdbench_telemetry::take_trace());
            }
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    if traced {
        vdbench_telemetry::disable();
        drop(vdbench_telemetry::take_trace());
    }
    let mut all = Phase {
        elapsed,
        ..Phase::default()
    };
    for part in parts {
        let part = part?;
        all.warm_ms.merge(&part.warm_ms);
        all.novel_ms.merge(&part.novel_ms);
        all.novel.extend(part.novel);
        all.requests += part.requests;
        all.failures.extend(part.failures);
    }
    Ok(all)
}

/// Recomputes `entry` in process (with the disk tier off) and compares
/// the result's hash with the served body's.
fn recompute(entry: &Entry, served_hash: u64) -> Result<(), String> {
    let fresh = ApiRequest::parse(entry.path, &entry.body)?.compute()?;
    if fnv1a_key(fresh.as_bytes()) == served_hash {
        Ok(())
    } else {
        Err(format!(
            "{} {}: served body differs from the in-process result",
            entry.path, entry.body
        ))
    }
}

/// Set-up, the measured closed loop, then the in-process check of every
/// distinct response body.
pub fn run(scratch: &mut Scratch, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let mut run = Run::default();
    let mut warm = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let w = set_up(scratch, &mut run.tally).map_err(|e| format!("set-up: {e}"))?;
        run.setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            w.server.shutdown();
            drop_store(&w.store);
        } else {
            warm = Some(w);
        }
    }
    let warm = warm.expect("at least one set-up");
    let phase = closed_loop(&warm, seed, seconds, traced).map_err(|e| format!("client: {e}"))?;
    let Warm {
        server,
        store,
        pool,
        expected,
    } = warm;
    server.shutdown();

    run.cold_ms = phase.novel_ms;
    run.warm_ms = phase.warm_ms;
    run.ops = phase.requests as f64;
    run.op_seconds = phase.elapsed.as_secs_f64();
    run.tally.attempted += phase.requests;
    run.tally.failed += phase.failures.len() as u64;
    for failure in phase.failures.iter().take(10) {
        eprintln!("vdperf: request failed: {failure}");
    }

    // Every distinct body against a fresh in-process compute.
    vdbench_core::set_disk_cache(None);
    vdbench_core::cache::clear();
    for (entry, body) in pool.iter().zip(&expected) {
        let served = fnv1a_key(body.as_bytes());
        run.tally.check("pool body", recompute(entry, served));
    }
    for &(conn, n, served) in &phase.novel {
        run.tally
            .check("novel body", recompute(&novel(seed, conn, n), served));
    }
    drop_store(&store);
    Ok(run)
}

/// The request path's per-layer metrics: parse, key, probe and warm
/// handle timed in process on the warm pool; novel computes; the wire
/// share of a warm round trip; and `/v1/stats` deltas over a short
/// closed loop.
pub fn layers(scratch: &mut Scratch, seed: u64) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let warm = set_up(scratch, &mut tally).map_err(|e| format!("set-up: {e}"))?;

    let requests: Vec<ApiRequest> = warm
        .pool
        .iter()
        .map(|e| ApiRequest::parse(e.path, &e.body))
        .collect::<Result<_, _>>()?;
    let mut i = 0usize;
    let mut next = || {
        i = (i + 1) % warm.pool.len();
        i
    };
    let parse = per_call_us(15, 400, || {
        let e = &warm.pool[next()];
        std::hint::black_box(ApiRequest::parse(e.path, &e.body).ok());
    });
    m.put("server.parse_us", parse, "us");
    let key = per_call_us(15, 400, || {
        let r = &requests[next()];
        std::hint::black_box((r.canonical(), r.cache_key()));
    });
    m.put("server.key_us", key, "us");
    let keys: Vec<(&str, u64)> = requests
        .iter()
        .map(|r| (r.cache_kind(), r.cache_key()))
        .collect();
    let probe = per_call_us(15, 100, || {
        let (kind, key) = keys[next()];
        let hit = vdbench_core::raw_blob_get(kind, key);
        std::hint::black_box(hit);
    });
    m.put("server.probe_us", probe, "us");
    let service = Service::new(ServiceConfig::default());
    let http: Vec<HttpRequest> = warm
        .pool
        .iter()
        .map(|e| HttpRequest {
            method: "POST".into(),
            path: e.path.into(),
            body: e.body.clone(),
            keep_alive: true,
        })
        .collect();
    let handle = per_call_us(15, 100, || {
        let response = service.handle(&http[next()]);
        std::hint::black_box(response);
    });
    m.put("server.handle_us", handle, "us");

    // The round trip of the same warm requests over loopback.
    let mut client = Client::connect(warm.server.addr()).map_err(|e| e.to_string())?;
    let mut rtt = Vec::new();
    for _ in 0..2000 {
        let e = &warm.pool[next()];
        let sent = Instant::now();
        let (status, _) = client
            .request("POST", e.path, &e.body)
            .map_err(|e| e.to_string())?;
        rtt.push(sent.elapsed().as_secs_f64() * 1e6);
        tally.expect("warm round trip", status == 200, || {
            format!("status {status}")
        });
    }
    m.put("server.wire_us", median(&rtt) - handle, "us");

    // Novel scans computed in process (cold: fresh seeds, fresh blobs).
    let mut compute = Vec::new();
    for n in 0..16 {
        let e = novel(seed ^ 0x5EED, 0, n);
        let req = ApiRequest::parse(e.path, &e.body)?;
        let start = Instant::now();
        let body = req.compute();
        compute.push(start.elapsed().as_secs_f64() * 1e3);
        tally.expect("novel compute", body.is_ok(), || {
            format!("{:?}", body.err())
        });
    }
    m.put("server.compute_ms", median(&compute), "ms");

    // Counter deltas over a short closed loop.
    let before = fetch_stats(warm.server.addr()).map_err(|e| e.to_string())?;
    let phase = closed_loop(&warm, seed, 1.0, false).map_err(|e| e.to_string())?;
    let after = fetch_stats(warm.server.addr()).map_err(|e| e.to_string())?;
    tally.attempted += phase.requests;
    tally.failed += phase.failures.len() as u64;
    for name in ["warm_hits", "cold_misses", "coalesced", "shed"] {
        let full = format!("server.{name}");
        let delta = counter(&after, &full) - counter(&before, &full);
        m.put(full, delta as f64, "count");
    }
    warm.server.shutdown();
    drop_store(&warm.store);
    Ok((m, tally))
}
