//! `rvp-grid`: the full (workload × scheme) grid, in parallel and
//! crash-safe.
//!
//! Runs every paper scheme over every workload on a work-stealing pool
//! of OS threads, streaming one JSON file per cell to the output
//! directory as it completes, then prints a throughput summary.
//!
//! ```text
//! rvp-grid [OUT_DIR] [--workloads A,B,...] [--schemes A,B,...] \
//!          [--source MODE] [--sample SPEC] [--scale N] \
//!          [--metrics-out FILE] [--trace-out FILE] \
//!          [--resume] [--retries N] [--cell-timeout SECS]
//! ```
//!
//! `OUT_DIR` defaults to `RVP_JSON_DIR`, then `results/`.
//! `--workloads` restricts the grid to the named workloads and
//! `--schemes` to the named registry schemes — any label the scheme
//! registry knows, paper or zoo, optionally with predictor parameters
//! (`drvp_all:entries=4096`); the default is the paper's 15 (CI runs a
//! small subset of both this way). `--source` picks the committed-stream
//! source for measurement runs: `shared` (default — each workload's
//! trace is captured once up front and fanned out in memory to every
//! scheme cell), `replay` (stream each cell from the on-disk trace
//! cache) or `live` (re-emulate inside every cell, the pre-refactor
//! behaviour). `--metrics-out` enables the optional instrumentation
//! (time series + per-PC telemetry) on every cell — the artifacts land
//! inside the cell JSONs — and writes a grid-level summary (throughput,
//! trace-cache and per-workload source counters, failures) to FILE.
//! `--sample SPEC` measures every cell by SimPoint-style sampled
//! simulation (`auto`, or `interval=N,warmup=N,dims=N,max_k=N,seed=N`)
//! and `--scale N` multiplies every workload's outer pass counts —
//! together they make paper-scale sweeps (100M+ committed instructions
//! per cell) tractable. Sampled cells land in
//! `<workload>-<scheme>.sampled.json` files and the manifest
//! fingerprint covers both knobs, so sampled and detailed sweeps never
//! resume into each other.
//! `--trace-out` arms the span tracer for the whole run and writes the
//! collected spans (prewarm, schedule, per-cell run/attempt/write, and
//! the simulator's phase spans) to FILE: Chrome trace-event JSON by
//! default — open it in Perfetto or `chrome://tracing` — or
//! folded-stack text when FILE ends in `.folded`.
//!
//! ## Crash safety and containment
//!
//! Every cell JSON and the summary are written atomically (temp file +
//! fsync + rename), and each completed cell is journaled — durably,
//! with a checksum — into `OUT_DIR/grid_manifest.jsonl` as it lands.
//! After a crash or SIGKILL, `--resume` re-verifies the journal against
//! the bytes on disk and re-runs only the missing cells. A cell that
//! fails is contained, not fatal: panics are caught, a `--cell-timeout`
//! watchdog bounds hangs, transient I/O faults are retried (up to
//! `--retries` extra attempts with backoff), and a still-failing cell
//! walks the source degradation ladder (shared → replay → live) before
//! being recorded as *poisoned* in the summary's `failures` section.
//! The sweep always finishes; a poisoned cell turns the exit code into
//! 20 and emits a one-line JSON diagnostic on stderr.
//!
//! ## Cost-model scheduling
//!
//! Every run records per-cell wall times into `OUT_DIR/grid_summary.json`
//! (under `"cell_seconds"`), and the next run schedules the grid
//! longest-job-first from those timings: on a work-stealing pool the
//! makespan is set by whatever is still running at the end, so the
//! expensive cells must start first. Cells with no recorded timing are
//! estimated from their instruction budget at the observed
//! seconds-per-instruction rate (or run first when no history exists at
//! all, which degrades to the stable grid order).
//!
//! The usual budget overrides (`RVP_MEASURE_INSTS`,
//! `RVP_PROFILE_INSTS`) apply, `RVP_TRACE_DIR` enables the
//! committed-trace cache, `RVP_SOURCE` is the env equivalent of
//! `--source`, `RVP_THREADS` caps the worker count, and `RVP_FAIL`
//! arms the deterministic fault-injection schedule (chaos testing).
//! Failures and cache counters are also emitted as structured events
//! through the `RVP_LOG` facade.

use std::collections::HashMap;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rvp_bench::grid::{
    grid_config_fnv, load_manifest, run_one_cell, verify_manifest_cell, write_atomic, CellOptions,
    CellSuccess, GridCell, Manifest, ManifestCell, PoisonedCell,
};
use rvp_bench::runner_from_env;
use rvp_core::{
    all_workloads, by_name_or_err, fatal, log, paper_schemes, Json, ObsConfig, Runner, SampleSpec,
    SchemeSpec, SourceMode, ToJson, Workload, EXIT_CONFIG, EXIT_IO, EXIT_POISONED, EXIT_USAGE,
};

fn worker_count(cells: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cap = std::env::var("RVP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw);
    cap.min(cells).max(1)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rvp-grid [OUT_DIR] [--workloads A,B,...] [--schemes A,B,...] \
         [--source live|replay|shared] [--sample auto|interval=N,...] [--scale N] \
         [--metrics-out FILE] [--trace-out FILE] \
         [--resume] [--retries N] [--cell-timeout SECS]"
    );
    ExitCode::from(EXIT_USAGE)
}

/// The file (in the output directory) per-cell wall times persist in,
/// read back by the next run's longest-job-first schedule.
const SUMMARY_FILE: &str = "grid_summary.json";

/// Per-cell wall times from a previous run's summary, if any.
fn prior_timings(out_dir: &Path) -> HashMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(out_dir.join(SUMMARY_FILE)) else {
        return HashMap::new();
    };
    let Ok(json) = Json::parse(&text) else {
        log::warn(
            "rvp-grid",
            "unreadable prior grid summary; scheduling from instruction budgets",
            &[("path", out_dir.join(SUMMARY_FILE).display().to_string().into())],
        );
        return HashMap::new();
    };
    json.get("cell_seconds")
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(label, v)| v.as_f64().map(|secs| (label.clone(), secs)))
                .collect()
        })
        .unwrap_or_default()
}

/// Orders `cells` longest-estimated-first. Known cells carry their
/// measured wall time; unknown ones are estimated from the instruction
/// budget at the mean observed seconds-per-instruction (when nothing is
/// known the estimates are uniform and the stable sort preserves the
/// nominal grid order).
fn schedule(cells: &mut Vec<GridCell>, prior: &HashMap<String, f64>, budget: u64) {
    let known: Vec<f64> = cells.iter().filter_map(|c| prior.get(&c.label()).copied()).collect();
    let secs_per_inst = match known.len() {
        0 => 1.0 / budget.max(1) as f64,
        n => known.iter().sum::<f64>() / n as f64 / budget.max(1) as f64,
    };
    let mut keyed: Vec<(f64, GridCell)> = cells
        .drain(..)
        .map(|c| {
            let est = prior.get(&c.label()).copied().unwrap_or(budget as f64 * secs_per_inst);
            (est, c)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    *cells = keyed.into_iter().map(|(_, c)| c).collect();
}

fn main() -> ExitCode {
    let mut out_dir: Option<PathBuf> = None;
    let mut only: Option<Vec<String>> = None;
    let mut only_schemes: Option<Vec<String>> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut source: Option<SourceMode> = None;
    let mut sample: Option<SampleSpec> = None;
    let mut scale: Option<u64> = None;
    let mut resume = false;
    let mut opts = CellOptions::default();

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workloads" => match it.next() {
                Some(list) => {
                    only = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
                }
                None => return usage(),
            },
            "--schemes" => match it.next() {
                Some(list) => {
                    only_schemes = Some(list.split(',').map(|s| s.trim().to_owned()).collect());
                }
                None => return usage(),
            },
            "--source" => match it.next().as_deref().and_then(SourceMode::parse) {
                Some(mode) => source = Some(mode),
                None => return usage(),
            },
            "--sample" => match it.next().as_deref().map(SampleSpec::parse) {
                Some(Ok(spec)) => sample = Some(spec),
                Some(Err(e)) => {
                    return fatal(
                        "rvp-grid",
                        "bad --sample spec",
                        EXIT_USAGE,
                        &[("error", e.into())],
                    );
                }
                None => return usage(),
            },
            "--scale" => match it.next().and_then(|v| v.parse::<u64>().ok()).filter(|&n| n > 0) {
                Some(n) => scale = Some(n),
                None => return usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p.into()),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.into()),
                None => return usage(),
            },
            "--resume" => resume = true,
            "--retries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.retries = n,
                None => return usage(),
            },
            "--cell-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(secs) => opts.timeout_secs = secs,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') && out_dir.is_none() => out_dir = Some(a.into()),
            _ => return usage(),
        }
    }
    let out_dir = out_dir
        .or_else(|| std::env::var("RVP_JSON_DIR").ok().filter(|d| !d.is_empty()).map(Into::into))
        .unwrap_or_else(|| "results".into());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        return fatal(
            "rvp-grid",
            "cannot create output directory",
            EXIT_IO,
            &[("dir", out_dir.display().to_string().into()), ("error", e.to_string().into())],
        );
    }

    let workloads: Vec<Workload> = match &only {
        None => all_workloads().to_vec(),
        Some(names) => {
            let mut selected = Vec::new();
            for name in names {
                // The registry-listing error, mirroring unknown-scheme UX.
                match by_name_or_err(name) {
                    Ok(wl) => selected.push(wl),
                    Err(e) => {
                        return fatal(
                            "rvp-grid",
                            "unknown workload",
                            EXIT_CONFIG,
                            &[("error", e.into())],
                        );
                    }
                }
            }
            selected
        }
    };

    // Default to the paper's 15 figure configurations; `--schemes`
    // accepts anything in the registry, predictor parameters included.
    let schemes: Vec<SchemeSpec> = match &only_schemes {
        None => paper_schemes(),
        Some(names) => {
            let mut selected = Vec::new();
            for name in names {
                match SchemeSpec::parse(name) {
                    Ok(spec) => selected.push(spec),
                    Err(e) => {
                        return fatal(
                            "rvp-grid",
                            "unknown scheme",
                            EXIT_CONFIG,
                            &[("error", e.into())],
                        );
                    }
                }
            }
            selected
        }
    };

    let mut runner = runner_from_env();
    if let Some(mode) = source {
        runner.source_mode = mode;
    }
    if let Some(spec) = sample {
        runner.sampling = Some(spec);
    }
    if let Some(n) = scale {
        runner.workload_scale = n;
    }
    if metrics_out.is_some() {
        runner.obs = ObsConfig::standard();
    }
    if trace_out.is_some() {
        rvp_core::span::arm(rvp_core::span::DEFAULT_RING_CAPACITY);
    }
    let mut cells: Vec<GridCell> = workloads
        .iter()
        .flat_map(|wl| {
            schemes.iter().map(|scheme| GridCell { workload: wl.clone(), scheme: scheme.clone() })
        })
        .collect();

    // Resume: re-verify the journal of the crashed/killed run against
    // the bytes on disk and lift anything that checks out straight into
    // this run's results.
    let config_fnv = grid_config_fnv(&workloads, &schemes, &runner);
    let mut kept: Vec<ManifestCell> = Vec::new();
    if resume {
        let planned: HashSet<String> = cells.iter().map(GridCell::label).collect();
        for cell in load_manifest(&out_dir, config_fnv) {
            if !planned.contains(&cell.label) {
                continue;
            }
            if verify_manifest_cell(&out_dir, &cell) {
                kept.push(cell);
            } else {
                log::warn(
                    "rvp-grid",
                    "journaled cell failed verification; re-running it",
                    &[("cell", cell.label.as_str().into()), ("file", cell.file.as_str().into())],
                );
            }
        }
        let done: HashSet<&str> = kept.iter().map(|c| c.label.as_str()).collect();
        cells.retain(|c| !done.contains(c.label().as_str()));
    }
    let manifest = match Manifest::start(&out_dir, config_fnv, &kept) {
        Ok(m) => m,
        Err(e) => {
            return fatal(
                "rvp-grid",
                "cannot start run manifest",
                EXIT_IO,
                &[
                    (
                        "path",
                        out_dir.join(rvp_bench::grid::MANIFEST_FILE).display().to_string().into(),
                    ),
                    ("error", e.to_string().into()),
                ],
            );
        }
    };

    let prior = prior_timings(&out_dir);
    let known = cells.iter().filter(|c| prior.contains_key(&c.label())).count();
    {
        let _span = rvp_core::span!("grid.schedule", { cells: cells.len(), known });
        schedule(&mut cells, &prior, runner.measure_insts);
    }
    let workers = worker_count(cells.len());

    println!(
        "rvp-grid: {} workloads x {} schemes = {} cells on {} threads ({} source) -> {}",
        workloads.len(),
        schemes.len(),
        cells.len() + kept.len(),
        workers,
        runner.source_mode.name(),
        out_dir.display()
    );
    if let Some(spec) = &runner.sampling {
        let (interval, warmup) = spec.resolve(runner.measure_insts);
        println!(
            "sampling: {interval}-inst intervals, {warmup}-inst warmup, \
             dims {}, max_k {}, workload scale x{}",
            spec.dims, spec.max_k, runner.workload_scale
        );
    } else if runner.workload_scale > 1 {
        println!("workload scale: x{}", runner.workload_scale);
    }
    if resume {
        println!("resume: {} cells verified from the manifest, {} to run", kept.len(), cells.len());
        log::info(
            "rvp-grid",
            "resuming from manifest",
            &[("verified", (kept.len() as u64).into()), ("remaining", (cells.len() as u64).into())],
        );
    }
    println!(
        "schedule: longest-job-first, {known}/{} cells from prior timings, \
         the rest from instruction budgets",
        cells.len()
    );

    let start = Instant::now();

    // Pay every workload's trace capture — or, sampled, its sampling
    // plan and windows — up front, in parallel, so the cell fan-out
    // below is pure timing simulation (skipped for workloads fully
    // restored from the manifest; `prewarm_trace` itself is a no-op for
    // an unsampled live source). A failed prewarm is not fatal: the cell
    // itself will retry or fall back and report properly.
    let pending: Vec<&Workload> = workloads
        .iter()
        .filter(|wl| cells.iter().any(|c| c.workload.name() == wl.name()))
        .collect();
    if !pending.is_empty() {
        let next_wl = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(pending.len()) {
                scope.spawn(|| loop {
                    let i = next_wl.fetch_add(1, Ordering::Relaxed);
                    let Some(wl) = pending.get(i) else { return };
                    let _span = rvp_core::span!("grid.prewarm", { workload: wl.name() });
                    if let Err(e) = runner.prewarm_trace(wl) {
                        log::warn(
                            "rvp-grid",
                            "prewarm failed",
                            &[("workload", wl.name().into()), ("error", e.to_string().into())],
                        );
                    }
                });
            }
        });
        let what = match (&runner.sampling, runner.source_mode) {
            (Some(_), _) => "sampling plans",
            (None, SourceMode::Live) => "nothing, live source",
            (None, _) => "committed traces",
        };
        println!(
            "prewarmed {what}: {} workloads in {:.2}s",
            pending.len(),
            start.elapsed().as_secs_f64()
        );
    }
    let next = AtomicUsize::new(0);
    let successes: Mutex<Vec<CellSuccess>> = Mutex::new(Vec::new());
    let poisoned: Mutex<Vec<PoisonedCell>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                run_cells(&runner, &cells, opts, &next, &out_dir, &manifest, &successes, &poisoned)
            });
        }
    });

    let elapsed = start.elapsed();
    let mut successes = successes.into_inner().expect("successes lock");
    let mut poisoned = poisoned.into_inner().expect("poisoned lock");
    // The cells restored from the manifest count as completed work.
    successes.extend(kept.iter().map(|c| CellSuccess {
        label: c.label.clone(),
        result: None,
        committed: c.committed,
        file: c.file.clone(),
        file_fnv: c.file_fnv,
        seconds: c.seconds,
        retries: c.retries,
        source: "manifest",
        resumed: true,
    }));
    successes.sort_by(|a, b| a.label.cmp(&b.label));
    poisoned.sort_by(|a, b| a.label.cmp(&b.label));

    let simulated: u64 = successes.iter().map(|s| s.committed).sum();
    let resumed_cells = successes.iter().filter(|s| s.resumed).count();
    let total_retries: u64 = successes.iter().map(|s| s.retries).sum::<u64>()
        + poisoned.iter().map(|p| p.attempts.saturating_sub(1)).sum::<u64>();
    println!(
        "\n{} cells in {:.2}s ({:.1} cells/s, {:.1}M simulated insts/s overall)",
        successes.len(),
        elapsed.as_secs_f64(),
        successes.len() as f64 / elapsed.as_secs_f64(),
        simulated as f64 / elapsed.as_secs_f64() / 1e6,
    );
    println!("profiles collected: {}", runner.profiles.len());
    // Printed even when nothing was tallied: a sampled sweep reads no
    // committed trace, and its "0 captures" is checked.
    let sources = runner.source_counters.snapshot();
    let t = runner.source_counters.total();
    println!(
        "committed-stream sources ({}): {} captures, {} shared hits, {} live fallbacks",
        runner.source_mode.name(),
        t.captures,
        t.shared_hits,
        t.live_fallbacks
    );
    let quarantined = runner.traces.as_ref().map_or(0, |s| s.counters().quarantined());
    let injected = rvp_fail::snapshot();
    let failures = Json::obj([
        ("count", (poisoned.len() as u64).into()),
        ("poisoned", Json::Arr(poisoned.iter().map(PoisonedCell::to_json).collect())),
        ("retries", total_retries.into()),
        ("quarantined", quarantined.into()),
        (
            "injected",
            Json::Obj(injected.iter().map(|(site, n)| (site.clone(), (*n).into())).collect()),
        ),
    ]);
    let mut summary: Vec<(String, Json)> = vec![
        ("cells".into(), (successes.len() as u64).into()),
        ("failures".into(), failures),
        ("resumed_cells".into(), (resumed_cells as u64).into()),
        ("elapsed_s".into(), elapsed.as_secs_f64().into()),
        ("simulated_insts".into(), simulated.into()),
        ("profiles".into(), (runner.profiles.len() as u64).into()),
        ("source_mode".into(), runner.source_mode.name().into()),
        (
            "cell_seconds".into(),
            Json::Obj(successes.iter().map(|s| (s.label.clone(), s.seconds.into())).collect()),
        ),
        (
            "trace_sources".into(),
            Json::Obj(
                sources.iter().map(|(wl, tally)| ((*wl).to_owned(), tally.to_json())).collect(),
            ),
        ),
    ];
    if let Some(store) = &runner.traces {
        let c = store.counters();
        println!(
            "trace cache ({}): {} hits, {} captures, {} fallbacks, {} quarantined",
            store.dir().display(),
            c.hits(),
            c.captures(),
            c.fallbacks(),
            c.quarantined()
        );
        log::info(
            "rvp-grid",
            "trace cache counters",
            &[
                ("dir", store.dir().display().to_string().into()),
                ("hits", c.hits().into()),
                ("captures", c.captures().into()),
                ("fallbacks", c.fallbacks().into()),
                ("quarantined", c.quarantined().into()),
            ],
        );
        summary.push((
            "trace_cache".into(),
            Json::obj([
                ("hits", c.hits().into()),
                ("captures", c.captures().into()),
                ("fallbacks", c.fallbacks().into()),
                ("quarantined", c.quarantined().into()),
            ]),
        ));
    }
    log::info(
        "rvp-grid",
        "grid complete",
        &[
            ("cells", (successes.len() as u64).into()),
            ("failures", (poisoned.len() as u64).into()),
            ("resumed", (resumed_cells as u64).into()),
            ("elapsed_s", elapsed.as_secs_f64().into()),
            ("simulated_insts", simulated.into()),
        ],
    );
    let summary = Json::Obj(summary);
    // The on-disk summary feeds the next run's schedule; `--metrics-out`
    // additionally mirrors it wherever CI wants the artifact.
    if let Err(e) = write_atomic(&out_dir.join(SUMMARY_FILE), format!("{summary}\n").as_bytes()) {
        log::warn(
            "rvp-grid",
            "cannot write grid summary",
            &[
                ("path", out_dir.join(SUMMARY_FILE).display().to_string().into()),
                ("error", e.to_string().into()),
            ],
        );
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = write_atomic(path, format!("{summary}\n").as_bytes()) {
            return fatal(
                "rvp-grid",
                "cannot write metrics file",
                EXIT_IO,
                &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
            );
        }
        println!("grid metrics written: {}", path.display());
    }
    if let Some(path) = &trace_out {
        let data = rvp_core::span::drain();
        match rvp_core::span::write_trace_file(path, &data) {
            Ok(()) => println!(
                "grid trace written: {} ({} spans, {} dropped)",
                path.display(),
                data.spans.len(),
                data.dropped
            ),
            Err(e) => {
                return fatal(
                    "rvp-grid",
                    "cannot write trace file",
                    EXIT_IO,
                    &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
                );
            }
        }
    }
    if !poisoned.is_empty() {
        return fatal(
            "rvp-grid",
            "sweep completed with poisoned cells",
            EXIT_POISONED,
            &[
                ("poisoned", (poisoned.len() as u64).into()),
                ("cells", Json::Arr(poisoned.iter().map(|p| p.label.as_str().into()).collect())),
            ],
        );
    }
    ExitCode::SUCCESS
}

#[allow(clippy::too_many_arguments)]
fn run_cells(
    runner: &Runner,
    cells: &[GridCell],
    opts: CellOptions,
    next: &AtomicUsize,
    out_dir: &Path,
    manifest: &Manifest,
    successes: &Mutex<Vec<CellSuccess>>,
    poisoned: &Mutex<Vec<PoisonedCell>>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(i) else { return };
        match run_one_cell(runner, cell, opts, out_dir) {
            Ok(done) => {
                if let Some(result) = &done.result {
                    println!(
                        "  {:<28} ipc {:.3}  coverage {:5.1}%  accuracy {:5.1}%",
                        done.label,
                        result.stats.ipc(),
                        100.0 * result.stats.coverage(),
                        100.0 * result.stats.accuracy()
                    );
                }
                let journaled = ManifestCell {
                    label: done.label.clone(),
                    file: done.file.clone(),
                    file_fnv: done.file_fnv,
                    committed: done.committed,
                    seconds: done.seconds,
                    retries: done.retries,
                    source: done.source.to_owned(),
                };
                if let Err(e) = manifest.append(&journaled) {
                    // The cell JSON is durable; worst case a resume
                    // re-runs this one cell.
                    log::warn(
                        "rvp-grid",
                        "cannot journal cell",
                        &[("cell", done.label.as_str().into()), ("error", e.to_string().into())],
                    );
                }
                successes.lock().expect("successes lock").push(done);
            }
            Err(p) => poisoned.lock().expect("poisoned lock").push(p),
        }
    }
}
