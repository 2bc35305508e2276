//! The `serve_mixed` workload: an in-process `rvp-serve` daemon on a
//! fresh state directory, driven over loopback by one closed-loop
//! client that waits for each single-cell sweep before sending the next.
//! One client, and while a daemon lives the client and every thread of
//! the daemon keep to one CPU (`sys::OneCpu`). A hit is then a hand-off
//! between two threads on the same CPU, and no simulation runs beside
//! it. With the threads free, each hit woke an idle virtual CPU, and
//! the p90 of hit latency followed how busy the host's other tenants
//! were: from 0.15 to 0.48 ms over ten seeds, against 0.12-0.14 ms on
//! one CPU. A second client did the same: its hits ran beside the
//! first one's simulation, or beside its hits on the one CPU.
//!
//! Set-up boots the daemon and computes a seeded hit set. Each round
//! ("sweep") then sends, per client, a fixed number of requests: hits
//! drawn from the hit set plus a fixed share of never-seen cells — a
//! new profile threshold on an already-profiled workload.
//!
//! No record of real `rvp-serve` traffic exists, so the mix is an
//! assumption, not a measurement: the hit-set size, its workloads and
//! the share of never-seen cells are chosen, not observed. Two parts
//! follow the repository's own load tools: the hit loop is the load phase
//! of `rvp-serve-bench` (closed-loop cache-hit sweeps), and a
//! never-seen cell is a fresh threshold, as in the CI drain job. Cells
//! carry no budgets, so the daemon runs them at its defaults (the
//! `Runner` defaults) and a miss costs what a user's miss costs.

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rvp_core::{by_name, paper_schemes, Json, Runner, SchemeSpec, ToJson};
use rvp_serve::http;
use rvp_serve::{start, ServeConfig, ServerHandle};

use crate::spans;
use crate::sys::{cpu_seconds, nproc, OneCpu, Rng};
use crate::Size;

const TIMEOUT: Duration = Duration::from_secs(60);

/// The traffic mix.
#[derive(Debug, Clone)]
pub struct Mix {
    pub workloads: Vec<&'static str>,
    /// Hit-set cells per workload.
    pub hits_per_workload: usize,
    /// Cell budgets sent with each request; `None` leaves the daemon's
    /// defaults.
    pub measure_insts: Option<u64>,
    pub profile_insts: Option<u64>,
    /// Requests per client per round.
    pub per_client: usize,
    /// Never-seen cells among them.
    pub misses_per_client: usize,
    /// Closed-loop clients; see the module comment for why one.
    pub clients: usize,
}

impl Mix {
    pub fn new(size: Size) -> Mix {
        match size {
            Size::Full => Mix {
                workloads: vec!["li", "m88ksim", "go"],
                hits_per_workload: 4,
                measure_insts: None,
                profile_insts: None,
                per_client: 50,
                misses_per_client: 1,
                clients: 1,
            },
            Size::Tiny => Mix {
                workloads: vec!["li"],
                hits_per_workload: 2,
                measure_insts: Some(20_000),
                profile_insts: Some(50_000),
                per_client: 5,
                misses_per_client: 1,
                clients: 1,
            },
        }
    }

    /// The runner the daemon builds for a cell of this mix at the
    /// default threshold.
    pub fn runner(&self) -> Runner {
        let base = Runner::default();
        Runner {
            measure_insts: self.measure_insts.unwrap_or(base.measure_insts),
            profile_insts: self.profile_insts.unwrap_or(base.profile_insts),
            ..base
        }
    }
}

/// One single-cell sweep request.
#[derive(Debug, Clone)]
pub struct CellReq {
    pub workload: &'static str,
    pub scheme: String,
    /// `None` keeps the daemon's default threshold (the hit set).
    pub threshold: Option<f64>,
}

impl CellReq {
    fn label(&self) -> String {
        match self.threshold {
            Some(t) => format!("{}/{}@{t}", self.workload, self.scheme),
            None => format!("{}/{}", self.workload, self.scheme),
        }
    }

    fn body(&self, mix: &Mix) -> Json {
        let mut fields = vec![
            ("workloads", Json::arr([Json::from(self.workload)])),
            ("schemes", Json::arr([Json::from(self.scheme.as_str())])),
            ("wait", true.into()),
        ];
        for (key, budget) in
            [("measure_insts", mix.measure_insts), ("profile_insts", mix.profile_insts)]
        {
            if let Some(n) = budget {
                fields.push((key, n.into()));
            }
        }
        if let Some(t) = self.threshold {
            fields.push(("threshold", t.into()));
        }
        Json::obj(fields)
    }

    /// The same cell simulated directly, as its response must read.
    fn direct(&self, mix: &Mix) -> Result<Json, String> {
        let base = mix.runner();
        let runner = Runner { threshold: self.threshold.unwrap_or(base.threshold), ..base };
        let wl = by_name(self.workload).ok_or("unknown workload")?;
        let scheme = SchemeSpec::parse(&self.scheme)?;
        let result = runner.run(&wl, &scheme).map_err(|e| e.to_string())?;
        Ok(result.to_json())
    }
}

/// Never-seen cells: a fresh threshold in [0.5, 0.9) at 1e-5 steps on a
/// profile-guided scheme, never repeated within a run (the daemon's
/// fingerprint keeps six decimals).
pub struct MissSource {
    used: HashSet<u32>,
    schemes: Vec<String>,
}

impl MissSource {
    pub fn new() -> MissSource {
        let schemes = paper_schemes()
            .into_iter()
            .filter(SchemeSpec::needs_profile)
            .map(|s| s.label().to_owned())
            .collect();
        MissSource { used: HashSet::new(), schemes }
    }

    fn next(&mut self, mix: &Mix, rng: &mut Rng) -> CellReq {
        const DEFAULT_STEP: u32 = 30_000; // 0.8, the hit set's threshold
        let step = loop {
            let j = rng.below(40_000) as u32;
            if j != DEFAULT_STEP && self.used.insert(j) {
                break j;
            }
        };
        CellReq {
            workload: mix.workloads[rng.below(mix.workloads.len())],
            scheme: self.schemes[rng.below(self.schemes.len())].clone(),
            threshold: Some(f64::from(50_000 + step) / 100_000.0),
        }
    }
}

/// One client's persistent HTTP/1.1 connection. Sweep scripts reuse a
/// connection; a fresh one per request would also leave tens of
/// thousands of loopback sockets in TIME_WAIT, slowing later runs.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// Sends one `POST path` with a JSON body; returns the status and
    /// the parsed body (`None` when it is not JSON).
    fn post(&mut self, path: &str, body: &Json) -> io::Result<(u16, Option<Json>)> {
        let payload = body.to_string();
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: rvp-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::other("connection closed inside headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(io::Error::other)?;
                }
            }
        }
        let mut bytes = vec![0u8; length];
        self.reader.read_exact(&mut bytes)?;
        let json = std::str::from_utf8(&bytes).ok().and_then(|t| Json::parse(t).ok());
        Ok((status, json))
    }
}

/// A booted daemon plus its hit set and the results it answered.
pub struct Daemon {
    handle: ServerHandle,
    pub addr: SocketAddr,
    state_dir: PathBuf,
    pub hits: Vec<(CellReq, Json)>,
    /// Result-cache keys of the hit set.
    pub hit_keys: Vec<u64>,
    /// Dropped after the daemon has stopped.
    _one_cpu: OneCpu,
}

impl Daemon {
    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    pub fn shutdown(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// The first cell result of a `wait:true` sweep response.
fn cell_result(json: &Json) -> Option<&Json> {
    json.get("cells")?.as_arr()?.first()?.get("result")
}

/// Boots a daemon on a fresh `state_dir` and fills its hit set.
pub fn setup(mix: &Mix, state_dir: &Path, rng: &mut Rng) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let mut cfg = ServeConfig::new("127.0.0.1:0", state_dir);
    cfg.workers = nproc();
    // Until shutdown this thread, and so the clients and every thread
    // of the daemon, keep to one CPU (see the module comment).
    let one_cpu = OneCpu::pin()?;
    let handle = start(cfg).map_err(|e| format!("cannot boot daemon: {e}"))?;
    let addr = handle.local_addr();
    let ready_by = Instant::now() + TIMEOUT;
    while !matches!(http::request(addr, "GET", "/readyz", None, TIMEOUT), Ok(r) if r.status == 200)
    {
        if Instant::now() > ready_by {
            handle.shutdown();
            return Err("daemon never became ready".to_owned());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let schemes: Vec<String> = paper_schemes().iter().map(|s| s.label().to_owned()).collect();
    let mut hits = Vec::new();
    let mut hit_keys = Vec::new();
    for &workload in &mix.workloads {
        let mut order: Vec<usize> = (0..schemes.len()).collect();
        rng.shuffle(&mut order);
        for &i in order.iter().take(mix.hits_per_workload) {
            let req = CellReq { workload, scheme: schemes[i].clone(), threshold: None };
            let response = http::request(addr, "POST", "/sweep", Some(&req.body(mix)), TIMEOUT)
                .map_err(|e| format!("hit-set request {} failed: {e}", req.label()))?;
            let json = response.json().filter(|_| response.status == 200).ok_or_else(|| {
                format!("hit-set request {} answered {}", req.label(), response.status)
            })?;
            let result = cell_result(&json)
                .filter(|_| json.get("computed").and_then(Json::as_u64) == Some(1))
                .ok_or_else(|| format!("hit-set cell {} was not simulated: {json}", req.label()))?;
            let key = json
                .get("cells")
                .and_then(Json::as_arr)
                .and_then(|cells| cells.first()?.get("fingerprint")?.as_str())
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("hit-set cell {} has no fingerprint", req.label()))?;
            hits.push((req, result.clone()));
            hit_keys.push(key);
        }
    }
    Ok(Daemon { handle, addr, state_dir: state_dir.to_owned(), hits, hit_keys, _one_cpu: one_cpu })
}

/// What the clients saw in one or more rounds.
#[derive(Debug, Default)]
pub struct Traffic {
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub attempted: u64,
    /// Non-200 responses (including 429s) and failed cells.
    pub failed: u64,
    /// Wrong answers: a hit that differs from its hit-set result, a
    /// hit not served from the cache, a miss that was.
    pub problems: Vec<String>,
    /// Answered never-seen cells, for the direct re-simulation check.
    pub misses: Vec<(CellReq, Json)>,
}

impl Traffic {
    pub fn absorb(&mut self, other: Traffic) {
        self.hit_ms.extend(other.hit_ms);
        self.miss_ms.extend(other.miss_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.misses.extend(other.misses);
    }

    pub fn all_ms(&self) -> Vec<f64> {
        self.hit_ms.iter().chain(&self.miss_ms).copied().collect()
    }
}

/// One closed-loop client working through its request list. `hit`
/// holds the hit-set index of each hit request.
fn client(
    daemon: &Daemon,
    mix: &Mix,
    list: &[(CellReq, Option<usize>)],
    conn: &mut Option<Conn>,
    parent: u64,
) -> Traffic {
    let mut t = Traffic::default();
    for (req, hit) in list {
        let label = req.label();
        let _span = spans::enter_group("serve.request", label.as_str(), parent);
        let body = req.body(mix);
        let started = Instant::now();
        let response = match conn.as_mut() {
            Some(c) => c.post("/sweep", &body),
            None => Conn::open(daemon.addr).and_then(|c| conn.insert(c).post("/sweep", &body)),
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        t.attempted += 1;
        let json = match response {
            Ok((200, json)) => json,
            Ok(_) => None,
            Err(_) => {
                *conn = None;
                None
            }
        };
        let Some(json) = json else {
            t.failed += 1;
            continue;
        };
        if json.get("failed").and_then(Json::as_u64) != Some(0) {
            t.failed += 1;
            continue;
        }
        let field = if hit.is_some() { "cached" } else { "computed" };
        let Some(result) =
            cell_result(&json).filter(|_| json.get(field).and_then(Json::as_u64) == Some(1))
        else {
            t.problems.push(format!("{label}: expected one {field} cell, got {json}"));
            continue;
        };
        match hit {
            Some(i) => {
                if *result != daemon.hits[*i].1 {
                    t.problems.push(format!("{label}: cache hit differs from the hit-set result"));
                }
                t.hit_ms.push(ms);
            }
            None => {
                t.misses.push((req.clone(), result.clone()));
                t.miss_ms.push(ms);
            }
        }
    }
    t
}

/// One round: every client sends its list, closed-loop, in parallel.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub traffic: Traffic,
}

/// The clients' connections, kept open across rounds.
pub type Conns = Vec<Option<Conn>>;

pub fn round(
    daemon: &Daemon,
    mix: &Mix,
    rng: &mut Rng,
    fresh: &mut MissSource,
    conns: &mut Conns,
) -> Round {
    let lists: Vec<Vec<(CellReq, Option<usize>)>> = (0..mix.clients)
        .map(|_| {
            let mut list: Vec<(CellReq, Option<usize>)> = (0..mix.per_client
                - mix.misses_per_client)
                .map(|_| {
                    let i = rng.below(daemon.hits.len());
                    (daemon.hits[i].0.clone(), Some(i))
                })
                .collect();
            for _ in 0..mix.misses_per_client {
                let at = rng.below(list.len() + 1);
                list.insert(at, (fresh.next(mix, rng), None));
            }
            list
        })
        .collect();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let round_span = spans::enter_group("serve.round", "", 0);
    let parent = round_span.as_ref().map_or(0, spans::Guard::id);
    let mut traffic = Traffic::default();
    std::thread::scope(|scope| {
        conns.resize_with(lists.len(), || None);
        let handles: Vec<_> = lists
            .iter()
            .zip(conns.iter_mut())
            .map(|(list, conn)| scope.spawn(move || client(daemon, mix, list, conn, parent)))
            .collect();
        for h in handles {
            traffic.absorb(h.join().expect("client thread panicked"));
        }
    });
    drop(round_span);
    Round { wall_s: t0.elapsed().as_secs_f64(), cpu_s: cpu_seconds() - cpu0, traffic }
}

/// Re-simulates a seeded sample of answered cells (two hits, two
/// misses) directly through `Runner::run` and reports every response
/// that differs.
pub fn verify_sample(daemon: &Daemon, mix: &Mix, traffic: &Traffic, rng: &mut Rng) -> Vec<String> {
    let mut sample: Vec<&(CellReq, Json)> = Vec::new();
    for pool in [&daemon.hits, &traffic.misses] {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut idx);
        sample.extend(idx.iter().take(2).map(|&i| &pool[i]));
    }
    let mut problems = Vec::new();
    for (req, answered) in sample {
        match req.direct(mix) {
            Ok(direct) if direct.to_string() == answered.to_string() => {}
            Ok(_) => problems
                .push(format!("{}: response differs from a direct Runner::run", req.label())),
            Err(e) => problems.push(format!("{}: direct Runner::run failed: {e}", req.label())),
        }
    }
    problems
}
