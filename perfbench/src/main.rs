//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload grid_detailed|sweep_sampled|serve_mixed|all
//!           --seed N --seconds S --trace 0|1 [--size full|tiny] [--data DIR]
//! perfbench regen-digests   [--size full|tiny] [--data DIR]
//! perfbench regen-reference [--size full|tiny] [--data DIR]
//! perfbench setup-sample --workload grid_detailed|sweep_sampled [--size full|tiny]
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). An untraced run (`--trace 0`) measures
//! one workload for about `--seconds` and reports the end-to-end
//! metrics; a traced run (`--trace 1`) records the benchmark's spans
//! around its calls into each layer, runs the per-layer probes and
//! reports the per-layer metrics. Every run checks the simulated
//! outputs; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A longer report with
//! percentiles, sample counts and a provenance block goes to
//! `.bench_out/`.

mod layers;
mod serve;
mod spans;
mod stats;
mod sweep;
mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rvp_core::Json;

use crate::stats::{describe, median, quantile, summary};
use crate::sweep::{Digests, SweepConfig, SweepOutcome};
use crate::sys::{nproc, peak_rss_mb, Rng};

/// Budgets: `Full` is the benchmark; `Tiny` exercises every path in
/// seconds, for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, value, unit)| {
            (name.clone(), Json::obj([("value", Json::from(*value)), ("unit", (*unit).into())]))
        }))
    }
}

const WORKLOADS: [&str; 3] = ["grid_detailed", "sweep_sampled", "serve_mixed"];
/// Set-up samples per untraced run; `setup_s` is their median. A
/// sweep's set-up (program generation) takes under 5 ms, and its speed
/// depends on the process: back to back, one process reads 0.37 ms and
/// the next 0.64 ms on `sweep_sampled`, while the samples of one process
/// agree within a tenth. So each sweep set-up sample comes from a child
/// process of its own, as the median of that process's timings, each the
/// mean of a batch of set-ups.
const SWEEP_SETUP_PROCESSES: usize = 11;
const SWEEP_SETUP_SAMPLES: usize = 5;
const SWEEP_SETUP_BATCH: usize = 10;
const SERVE_SETUP_SAMPLES: usize = 5;
/// Untraced/traced pass pairs behind `obs.trace_overhead`.
const OVERHEAD_PAIRS: usize = 2;

struct Args {
    command: Option<String>,
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    data: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let default_data = if Path::new("perfbench/data").is_dir() {
        PathBuf::from("perfbench/data")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("data")
    };
    let mut a = Args {
        command: None,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        size: Size::Full,
        data: default_data,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                a.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--data" => a.data = value()?.into(),
            "regen-digests" | "regen-reference" | "setup-sample" if a.command.is_none() => {
                a.command = Some(arg)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.command.is_none() && a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(a)
}

/// What one run found.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    details: Vec<(String, Json)>,
}

impl Run {
    fn detail(&mut self, name: &str, value: Json) {
        self.details.push((name.to_owned(), value));
    }

    /// Folds one sweep's counts and correctness into the run.
    fn absorb_sweep(&mut self, cfg: &SweepConfig, outcome: &SweepOutcome, digests: &Digests) {
        self.attempted += cfg.cell_count() as u64;
        self.failed += outcome.poisoned.len() as u64;
        self.problems.extend(sweep::check_digests(outcome, digests));
    }

    fn absorb_traffic(&mut self, traffic: &serve::Traffic) {
        self.attempted += traffic.attempted;
        self.failed += traffic.failed;
        self.problems.extend(traffic.problems.iter().cloned());
    }
}

// ---------------------------------------------------------------------
// Stored reference data.

fn data_file(data: &Path, stem: &str, size: Size) -> PathBuf {
    data.join(format!("{stem}-{}.json", size.name()))
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_digests(data: &Path, size: Size, workload: &str) -> Result<Digests, String> {
    let path = data_file(data, "digests", size);
    let json = load_json(&path)?;
    let cells = json
        .get("cells")
        .and_then(|c| c.get(workload))
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no digests for {workload}", path.display()))?;
    cells
        .iter()
        .map(|(label, hex)| {
            let digest = hex.as_str().and_then(|h| u64::from_str_radix(h, 16).ok());
            digest
                .map(|d| (label.clone(), d))
                .ok_or_else(|| format!("{}: bad digest for {label}", path.display()))
        })
        .collect()
}

fn load_reference(data: &Path, size: Size) -> Result<BTreeMap<String, f64>, String> {
    let path = data_file(data, "reference_ipc", size);
    let json = load_json(&path)?;
    let cells = json
        .get("ipc")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no ipc table", path.display()))?;
    cells
        .iter()
        .map(|(label, v)| {
            v.as_f64()
                .map(|x| (label.clone(), x))
                .ok_or_else(|| format!("{}: bad ipc for {label}", path.display()))
        })
        .collect()
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn regen_command(what: &str, size: Size) -> String {
    format!(
        "cargo run --release --manifest-path perfbench/Cargo.toml -- {what} --size {}",
        size.name()
    )
}

fn regen_digests(a: &Args, work: &Path) -> Result<(), String> {
    let mut per_workload = Vec::new();
    for cfg in [SweepConfig::grid_detailed(a.size), SweepConfig::sweep_sampled(a.size)] {
        let outcome = sweep::run_sweep(&cfg, &work.join("sweep"), nproc(), &mut Rng::new(0));
        if let Some((label, err)) = outcome.poisoned.first() {
            return Err(format!("{label} poisoned while computing digests: {err}"));
        }
        let cells = outcome
            .cells
            .iter()
            .map(|c| (c.label.clone(), Json::from(format!("{:016x}", c.file_fnv))));
        per_workload.push((cfg.name, Json::obj(cells)));
        eprintln!("{}: {} cell digests", cfg.name, outcome.cells.len());
    }
    let json = Json::obj([
        ("about", Json::from("FNV-1a of each cell's JSON as written by run_one_cell")),
        ("command", regen_command("regen-digests", a.size).into()),
        ("cells", Json::obj(per_workload)),
    ]);
    write_json(&data_file(&a.data, "digests", a.size), &json)
}

fn regen_reference(a: &Args, work: &Path) -> Result<(), String> {
    let cfg = SweepConfig::sweep_sampled(a.size).detailed_reference();
    let started = Instant::now();
    let outcome = sweep::run_sweep(&cfg, &work.join("sweep"), nproc(), &mut Rng::new(0));
    if let Some((label, err)) = outcome.poisoned.first() {
        return Err(format!("{label} poisoned while computing references: {err}"));
    }
    let ipc = outcome.cells.iter().map(|c| (c.label.clone(), Json::from(c.result.stats.ipc())));
    let json = Json::obj([
        (
            "about",
            Json::from(
                "full-detail IPC of every sweep_sampled cell (same scale and budget, no sampling)",
            ),
        ),
        ("command", regen_command("regen-reference", a.size).into()),
        ("measure_insts", cfg.measure_insts.into()),
        ("workload_scale", cfg.scale.into()),
        ("seconds", started.elapsed().as_secs_f64().into()),
        ("ipc", Json::obj(ipc)),
    ]);
    write_json(&data_file(&a.data, "reference_ipc", a.size), &json)
}

// ---------------------------------------------------------------------
// Untraced runs: the end-to-end metrics.

/// `samples` timings of one set-up, each the mean over `batch` set-ups.
fn setup_samples(
    samples: usize,
    batch: usize,
    mut once: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            once()?;
        }
        out.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    Ok(out)
}

/// Whether another unit of work that took `last_s` still fits.
fn time_left(started: Instant, last_s: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last_s <= seconds
}

fn end_to_end(
    run: &mut Run,
    setup: &[f64],
    sweep_s: &[f64],
    cpu_s: &[f64],
    ops: usize,
    op_ms: &[f64],
    peak_mb: f64,
) {
    let total: f64 = sweep_s.iter().sum();
    let m = &mut run.metrics;
    m.push("setup_s", median(setup), "s");
    m.push("sweep_s", median(sweep_s), "s");
    m.push("cpu_s", median(cpu_s), "s");
    m.push("peak_rss_mb", peak_mb, "MiB");
    m.push("ops_per_s", ops as f64 / total, "1/s");
    m.push("op_ms_p50", median(op_ms), "ms");
    m.push("op_ms_p90", quantile(op_ms, 0.9), "ms");
    for (name, samples) in
        [("setup_s", setup), ("sweep_s", sweep_s), ("cpu_s", cpu_s), ("op_ms", op_ms)]
    {
        run.details.push((name.to_owned(), summary(samples)));
        println!("  {name:<10} {}", describe(samples));
    }
}

fn sweep_config(name: &str, size: Size) -> SweepConfig {
    if name == "grid_detailed" {
        SweepConfig::grid_detailed(size)
    } else {
        SweepConfig::sweep_sampled(size)
    }
}

/// The median set-up time of a sweep in this process (the
/// `setup-sample` command).
fn sweep_setup_in_process(cfg: &SweepConfig) -> f64 {
    let samples = setup_samples(SWEEP_SETUP_SAMPLES, SWEEP_SETUP_BATCH, || {
        std::hint::black_box(cfg.generate_programs());
        Ok(())
    });
    median(&samples.expect("program generation cannot fail"))
}

/// One sweep set-up sample per child process; see `SWEEP_SETUP_PROCESSES`.
fn sweep_setup_samples(a: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    (0..SWEEP_SETUP_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["setup-sample", "--workload", &a.workload, "--size", a.size.name()])
                .output()
                .map_err(|e| format!("setup-sample: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim().parse::<f64>().map_err(|e| format!("setup-sample printed {text:?}: {e}"))
        })
        .collect()
}

fn sweep_untraced(a: &Args, name: &str, work: &Path) -> Result<Run, String> {
    let cfg = sweep_config(name, a.size);
    let digests = load_digests(&a.data, a.size, cfg.name)?;
    let reference =
        if cfg.sampling.is_some() { Some(load_reference(&a.data, a.size)?) } else { None };
    let mut run = Run::default();
    let setup = sweep_setup_samples(a)?;
    let mut rng = Rng::new(a.seed);
    let (mut walls, mut cpus, mut cell_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut err_max: Option<(f64, String)> = None;
    let started = Instant::now();
    loop {
        let outcome = sweep::run_sweep(&cfg, &work.join("sweep"), nproc(), &mut rng);
        run.absorb_sweep(&cfg, &outcome, &digests);
        if err_max.is_none() {
            err_max = reference.as_ref().and_then(|r| sweep::ipc_error_max(&outcome, r));
        }
        walls.push(outcome.wall_s);
        cpus.push(outcome.cpu_s);
        cell_ms.extend(outcome.cells.iter().map(|c| c.ms));
        if !time_left(started, outcome.wall_s, a.seconds) {
            break;
        }
    }
    println!("{name}: {} sweeps of {} cells on {} threads", walls.len(), cfg.cell_count(), nproc());
    let ops = walls.len() * cfg.cell_count();
    end_to_end(&mut run, &setup, &walls, &cpus, ops, &cell_ms, peak_rss_mb());
    if let Some((err, label)) = err_max {
        println!("  sample_ipc_err_max {err:.6} ({label})");
        run.detail(
            "sample_ipc_err_max",
            Json::obj([("value", Json::from(err)), ("cell", label.into())]),
        );
    }
    Ok(run)
}

fn serve_untraced(a: &Args, work: &Path) -> Result<Run, String> {
    let mix = serve::Mix::new(a.size);
    let mut run = Run::default();
    let state_dir = work.join("serve-state");
    let boot = || serve::setup(&mix, &state_dir, &mut Rng::new(a.seed));
    let t = Instant::now();
    let daemon = boot()?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let mut rng = Rng::new(a.seed ^ 0x5e);
    let mut fresh = serve::MissSource::new();
    let mut conns = serve::Conns::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut traffic = serve::Traffic::default();
    let started = Instant::now();
    loop {
        let r = serve::round(&daemon, &mix, &mut rng, &mut fresh, &mut conns);
        walls.push(r.wall_s);
        cpus.push(r.cpu_s);
        traffic.absorb(r.traffic);
        if !time_left(started, r.wall_s, a.seconds) {
            break;
        }
    }
    // The peak of one daemon's life. The allocator keeps part of a
    // stopped daemon's memory for a while, so booting the other set-up
    // samples first would add a varying amount of it.
    let peak_mb = peak_rss_mb();
    run.absorb_traffic(&traffic);
    run.problems.extend(serve::verify_sample(&daemon, &mix, &traffic, &mut rng));
    drop(conns);
    daemon.shutdown();
    setup
        .extend(setup_samples(SERVE_SETUP_SAMPLES - 1, 1, || boot().map(serve::Daemon::shutdown))?);
    println!(
        "serve_mixed: {} rounds of {} clients x {} requests ({} never-seen each)",
        walls.len(),
        mix.clients,
        mix.per_client,
        mix.misses_per_client
    );
    let ops = traffic.attempted as usize;
    end_to_end(&mut run, &setup, &walls, &cpus, ops, &traffic.all_ms(), peak_mb);
    for (name, samples) in [("hit_ms", &traffic.hit_ms), ("miss_ms", &traffic.miss_ms)] {
        println!("  {name:<10} {}", describe(samples));
        run.detail(name, summary(samples));
    }
    Ok(run)
}

// ---------------------------------------------------------------------
// Traced runs: the per-layer metrics.

/// The program's own span ring (what `rvp-grid --trace-out` records),
/// armed for a traced pass.
fn program_trace(on: bool) {
    if on {
        rvp_obs::span::arm(rvp_obs::span::DEFAULT_RING_CAPACITY);
    } else {
        rvp_obs::span::disarm();
    }
}

fn program_span_ms(data: &rvp_obs::span::TraceData, name: &str) -> Vec<(String, f64)> {
    data.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let cell = match s.field("cell") {
                Some(rvp_obs::span::FieldValue::Str(c)) => c.clone(),
                _ => String::new(),
            };
            (cell, s.dur_us as f64 / 1e3)
        })
        .collect()
}

struct SweepPass {
    outcome: SweepOutcome,
    program: rvp_obs::span::TraceData,
    spans: Vec<spans::Span>,
}

fn sweep_pass(cfg: &SweepConfig, work: &Path, rng: &mut Rng, traced: bool) -> SweepPass {
    spans::set_enabled(traced);
    program_trace(traced);
    let outcome = sweep::run_sweep(cfg, &work.join("sweep"), nproc(), rng);
    let program = rvp_obs::span::drain();
    program_trace(false);
    spans::set_enabled(false);
    let spans = if traced { spans::drain() } else { Vec::new() };
    SweepPass { outcome, program, spans }
}

struct ServePass {
    rounds: Vec<f64>,
    traffic: serve::Traffic,
    program: rvp_obs::span::TraceData,
    hit_ratio: f64,
    problems: Vec<String>,
    /// The storage probes, run on the live state directory after the
    /// rounds of a traced pass.
    storage: Metrics,
}

fn serve_pass(
    a: &Args,
    mix: &serve::Mix,
    work: &Path,
    rounds: usize,
    traced: bool,
) -> Result<ServePass, String> {
    spans::set_enabled(traced);
    let daemon = serve::setup(mix, &work.join("serve-state"), &mut Rng::new(a.seed))?;
    let mut rng = Rng::new(a.seed ^ 0x5e);
    let mut fresh = serve::MissSource::new();
    let mut conns = serve::Conns::new();
    let mut walls = Vec::new();
    let mut traffic = serve::Traffic::default();
    for _ in 0..rounds {
        let r = serve::round(&daemon, mix, &mut rng, &mut fresh, &mut conns);
        walls.push(r.wall_s);
        traffic.absorb(r.traffic);
    }
    let counters = daemon.handle().metrics();
    let hits = counters.cache_hits.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let misses = counters.cache_misses.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let mut storage = Metrics::default();
    if traced {
        layers::serve_storage(
            daemon.state_dir(),
            &daemon.hit_keys,
            &work.join("journal-probe"),
            &mut storage,
        );
    }
    let problems = serve::verify_sample(&daemon, mix, &traffic, &mut rng);
    drop(conns);
    daemon.shutdown();
    let program = rvp_obs::span::drain();
    program_trace(false);
    spans::set_enabled(false);
    Ok(ServePass {
        rounds: walls,
        traffic,
        program,
        hit_ratio: hits / (hits + misses),
        problems,
        storage,
    })
}

fn traced_run(a: &Args, work: &Path) -> Result<(Run, Vec<spans::Span>), String> {
    let grid = SweepConfig::grid_detailed(a.size);
    let sampled = SweepConfig::sweep_sampled(a.size);
    let mix = serve::Mix::new(a.size);
    let grid_digests = load_digests(&a.data, a.size, grid.name)?;
    let sampled_digests = load_digests(&a.data, a.size, sampled.name)?;
    let reference = load_reference(&a.data, a.size)?;
    let serve_rounds = if a.size == Size::Full { 30 } else { 2 };
    let mut run = Run::default();
    let mut all_spans = Vec::new();
    let mut rng = Rng::new(a.seed);

    // The workload under test: untraced and traced passes, alternating.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut grid_pass = None;
    let mut sampled_pass = None;
    let mut serve_passes = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        for on in [false, true] {
            let seconds = match a.workload.as_str() {
                "serve_mixed" => {
                    let pass = serve_pass(a, &mix, work, serve_rounds, on)?;
                    let s = median(&pass.rounds);
                    serve_passes.push((on, pass));
                    s
                }
                name => {
                    let (cfg, digests) = if name == "grid_detailed" {
                        (&grid, &grid_digests)
                    } else {
                        (&sampled, &sampled_digests)
                    };
                    let mut pass = sweep_pass(cfg, work, &mut rng, on);
                    run.absorb_sweep(cfg, &pass.outcome, digests);
                    all_spans.append(&mut pass.spans);
                    let s = pass.outcome.wall_s;
                    if on {
                        if name == "grid_detailed" {
                            grid_pass = Some(pass)
                        } else {
                            sampled_pass = Some(pass)
                        }
                    }
                    s
                }
            };
            if on {
                traced.push(seconds)
            } else {
                plain.push(seconds)
            }
        }
    }
    let overhead = median(&traced) / median(&plain);

    // One traced pass of each other workload, for the layers it owns.
    let grid_pass = match grid_pass {
        Some(p) => p,
        None => {
            let mut p = sweep_pass(&grid, work, &mut rng, true);
            run.absorb_sweep(&grid, &p.outcome, &grid_digests);
            all_spans.append(&mut p.spans);
            p
        }
    };
    let sampled_pass = match sampled_pass {
        Some(p) => p,
        None => {
            let mut p = sweep_pass(&sampled, work, &mut rng, true);
            run.absorb_sweep(&sampled, &p.outcome, &sampled_digests);
            all_spans.append(&mut p.spans);
            p
        }
    };
    let serve = match serve_passes.iter().rposition(|(on, _)| *on) {
        Some(i) => serve_passes.remove(i).1,
        None => serve_pass(a, &mix, work, serve_rounds, true)?,
    };
    for p in serve_passes.iter().map(|(_, p)| p).chain([&serve]) {
        run.absorb_traffic(&p.traffic);
        run.problems.extend(p.problems.iter().cloned());
    }
    let mut m = Metrics::default();
    m.0.extend(serve.storage.0.iter().cloned());

    // Probes.
    spans::set_enabled(true);
    layers::emu(&sampled, &mut m);
    layers::profile_and_realloc(&grid, &mut m);
    layers::trace(&mix, &mut m);
    let uarch_workloads: &[&str] = if a.size == Size::Full { &["li", "m88ksim"] } else { &["li"] };
    // The probe builds its cells with a copy of `Runner::run`'s plan
    // derivation; every probed cell the grid pass also ran (all of them
    // at full size) must come out the same.
    let mut twins = 0;
    for (label, stats) in layers::uarch_schemes(&grid, uarch_workloads, &mut m) {
        let Some(cell) = grid_pass.outcome.cells.iter().find(|c| c.label == label) else {
            continue;
        };
        twins += 1;
        if cell.result.stats != stats {
            run.problems.push(format!(
                "{label}: the uarch probe's cell differs from the sweep's; the probe's copy \
                 of Runner::run's plan derivation has drifted"
            ));
        }
    }
    if twins == 0 {
        run.problems.push("no uarch probe cell has a twin in the grid pass".to_owned());
    }
    layers::sampling(&sampled, 1_000_000.min(sampled.measure_insts), &mut m);
    layers::replays(&grid, &mut m);
    spans::set_enabled(false);
    all_spans.extend(spans::drain());

    // Layers measured on the workload passes.
    let g = &grid_pass.outcome;
    let run_ms: Vec<f64> = program_span_ms(&grid_pass.program, "grid.cell.attempt")
        .into_iter()
        .map(|(_, ms)| ms)
        .collect();
    m.push("core.run_ms_p50", median(&run_ms), "ms");
    m.push("core.run_ms_p99", quantile(&run_ms, 0.99), "ms");
    let fed = g.sources.shared_hits + g.sources.live_fallbacks;
    m.push("core.shared_hit_ratio", g.sources.shared_hits as f64 / fed.max(1) as f64, "ratio");
    let s = &sampled_pass.outcome;
    m.push("core.prewarm_ms", s.prewarm_s * 1e3, "ms");
    m.push("core.prewarm_share", s.prewarm_s / s.wall_s, "ratio");
    let prewarm_busy_s: f64 =
        grid_pass.spans.iter().filter(|sp| sp.name == "core.prewarm").map(|sp| sp.ms() / 1e3).sum();
    let busy_s = prewarm_busy_s + g.cells.iter().map(|c| c.ms / 1e3).sum::<f64>();
    m.push("grid.makespan_s", g.wall_s, "s");
    m.push("grid.busy_s", busy_s, "s");
    m.push("grid.parallel_eff", busy_s / (g.wall_s * g.workers as f64), "ratio");
    let mut write_ms: BTreeMap<String, f64> = BTreeMap::new();
    for (cell, ms) in program_span_ms(&grid_pass.program, "grid.cell.write") {
        *write_ms.entry(cell).or_default() += ms;
    }
    for sp in grid_pass.spans.iter().filter(|sp| sp.name == "grid.journal") {
        *write_ms.entry(sp.label.clone()).or_default() += sp.ms();
    }
    m.push("grid.write_ms_p50", median(&write_ms.into_values().collect::<Vec<_>>()), "ms");
    let err = sweep::ipc_error_max(s, &reference).map_or(0.0, |(e, _)| e);
    m.push("sample.ipc_err_max", err, "ratio");
    let ms_of = |name| {
        program_span_ms(&serve.program, name).into_iter().map(|(_, ms)| ms).collect::<Vec<_>>()
    };
    m.push("serve.queue_wait_ms_p50", median(&ms_of("serve.queue.wait")), "ms");
    m.push("serve.exec_ms_p50", median(&ms_of("serve.cell.exec")), "ms");
    m.push("serve.cache_hit_ratio", serve.hit_ratio, "ratio");
    let t = &serve.traffic;
    m.push("serve.hit_ms_p50", median(&t.hit_ms), "ms");
    m.push("serve.hit_ms_p99", quantile(&t.hit_ms, 0.99), "ms");
    m.push("serve.miss_ms_p50", median(&t.miss_ms), "ms");
    m.push("serve.miss_ms_p90", quantile(&t.miss_ms, 0.9), "ms");
    m.push("obs.trace_overhead", overhead, "ratio");
    run.detail(
        "overhead_passes_s",
        Json::obj([
            ("untraced", Json::arr(plain.iter().map(|&x| x.into()))),
            ("traced", Json::arr(traced.iter().map(|&x| x.into()))),
        ]),
    );
    println!(
        "traced {}: obs.trace_overhead {overhead:.4} (untraced {plain:?} s, traced {traced:?} s)",
        a.workload
    );
    println!(
        "sweep_sampled: prewarm {:.3} s of a {:.3} s sweep ({:.1}%)",
        s.prewarm_s,
        s.wall_s,
        100.0 * s.prewarm_s / s.wall_s
    );
    run.metrics = m;
    Ok((run, all_spans))
}

// ---------------------------------------------------------------------

fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ])
            .args(["--trace", if a.traced { "1" } else { "0" }, "--size", a.size.name()])
            .arg("--data")
            .arg(&a.data)
            .output()
            .expect("run one workload");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(last) = last else {
            correct = false;
            continue;
        };
        correct &=
            out.status.success() && last.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += last.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += last.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, v) in last.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics.push((format!("{w}.{name}"), v.clone()));
        }
    }
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    sys::clear_rvp_env();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root_manifest = if Path::new("perfbench/Cargo.toml").is_file() {
        PathBuf::from("Cargo.toml")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml")
    };
    if let Err(e) = sys::check_release_profile(&root_manifest) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if a.workload == "all" {
        return run_all(&a);
    }
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let result = run(&a, &out_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(a: &Args, out_dir: &Path, work: &Path) -> Result<ExitCode, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    match a.command.as_deref() {
        Some("regen-digests") => return regen_digests(a, work).map(|()| ExitCode::SUCCESS),
        Some("regen-reference") => return regen_reference(a, work).map(|()| ExitCode::SUCCESS),
        Some("setup-sample") => {
            println!("{}", sweep_setup_in_process(&sweep_config(&a.workload, a.size)));
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    let provenance = sys::provenance(&a.workload, a.seed, a.traced, a.size.name());
    println!("provenance {provenance}");
    let (run, spans) = if a.traced {
        traced_run(a, work)?
    } else if a.workload == "serve_mixed" {
        (serve_untraced(a, work)?, Vec::new())
    } else {
        (sweep_untraced(a, &a.workload, work)?, Vec::new())
    };
    let correct = run.problems.is_empty();
    for p in run.problems.iter().take(20) {
        println!("INCORRECT {p}");
    }
    for (name, value, unit) in &run.metrics.0 {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    let fail_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    println!("fail_ratio {fail_ratio} ({} of {} operations)", run.failed, run.attempted);
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.traced));
    if a.traced {
        for (name, (count, self_ms)) in spans::self_time_by_name(&spans) {
            println!("  self {name:<16} {self_ms:>12.3} ms over {count} spans");
        }
        write_json(&out_dir.join(format!("spans-{stem}.json")), &spans::to_json(&spans))?;
    }
    let report = Json::obj([
        ("provenance", provenance),
        ("correct", Json::from(correct)),
        ("attempted", run.attempted.into()),
        ("failed", run.failed.into()),
        ("fail_ratio", fail_ratio.into()),
        ("problems", Json::arr(run.problems.iter().map(|p| Json::from(p.as_str())))),
        ("metrics", run.metrics.to_json()),
        ("details", Json::obj(run.details)),
    ]);
    write_json(&out_dir.join(format!("result-{stem}.json")), &report)?;
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", run.attempted.into()),
        ("failed", run.failed.into()),
        ("metrics", run.metrics.to_json()),
    ]);
    println!("{line}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
