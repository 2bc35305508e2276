//! The two sweep workloads, `grid_detailed` and `sweep_sampled`.
//!
//! A sweep follows the path `rvp-grid` users run: a fresh runner and a
//! fresh output directory (no resume, no cost-model history), the
//! committed-stream prewarm fanned over the workloads, longest-job-first
//! cell order, and per cell the contained `run_one_cell` (atomic cell
//! write) followed by a durable manifest append.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rvp_bench::grid::{
    grid_config_fnv, run_one_cell, CellOptions, GridCell, Manifest, ManifestCell,
};
use rvp_core::{
    all_workloads, by_name, paper_schemes, Input, RunResult, Runner, SampleSpec, SchemeSpec,
    SourceTally, Workload,
};

use crate::spans;
use crate::sys::{cpu_seconds, Rng};
use crate::Size;

/// What one sweep workload simulates.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub name: &'static str,
    pub workloads: Vec<Workload>,
    pub schemes: Vec<SchemeSpec>,
    pub measure_insts: u64,
    pub profile_insts: u64,
    pub scale: u64,
    pub sampling: Option<SampleSpec>,
}

fn named(names: &[&str]) -> Vec<Workload> {
    names.iter().map(|n| by_name(n).expect("registered workload")).collect()
}

impl SweepConfig {
    /// Every workload × the 15 paper schemes at `Runner` default
    /// budgets, every instruction in detail.
    pub fn grid_detailed(size: Size) -> SweepConfig {
        let base = Runner::default();
        match size {
            Size::Full => SweepConfig {
                name: "grid_detailed",
                workloads: all_workloads(),
                schemes: paper_schemes(),
                measure_insts: base.measure_insts,
                profile_insts: base.profile_insts,
                scale: 1,
                sampling: None,
            },
            Size::Tiny => SweepConfig {
                name: "grid_detailed",
                workloads: named(&["li", "go"]),
                schemes: paper_schemes().into_iter().step_by(5).collect(),
                measure_insts: 20_000,
                profile_insts: 50_000,
                scale: 1,
                sampling: None,
            },
        }
    }

    /// `m88ksim,ijpeg,go` × the 15 paper schemes under `--sample auto`.
    /// Scale 20 is the smallest at which all three commit at least the
    /// 8M-instruction budget (`go` commits 6.4M at scale 16).
    pub fn sweep_sampled(size: Size) -> SweepConfig {
        match size {
            Size::Full => SweepConfig {
                name: "sweep_sampled",
                workloads: named(&["m88ksim", "ijpeg", "go"]),
                schemes: paper_schemes(),
                measure_insts: 8_000_000,
                profile_insts: Runner::default().profile_insts,
                scale: 20,
                sampling: Some(SampleSpec::default()),
            },
            Size::Tiny => SweepConfig {
                name: "sweep_sampled",
                workloads: named(&["m88ksim"]),
                schemes: paper_schemes().into_iter().step_by(7).collect(),
                measure_insts: 200_000,
                profile_insts: 50_000,
                scale: 1,
                sampling: Some(SampleSpec::default()),
            },
        }
    }

    /// A fresh runner for one sweep: fresh profile, trace, plan and
    /// window memos, shared committed stream, no trace store.
    pub fn runner(&self) -> Runner {
        Runner {
            measure_insts: self.measure_insts,
            profile_insts: self.profile_insts,
            workload_scale: self.scale,
            sampling: self.sampling,
            ..Runner::default()
        }
    }

    /// The same cells measured in full detail: the reference for the
    /// sampled sweep's IPC error.
    pub fn detailed_reference(&self) -> SweepConfig {
        SweepConfig { sampling: None, ..self.clone() }
    }

    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.schemes.len()
    }

    /// Builds every program the sweep's cells build — each cell
    /// generates its ref and train programs — and returns their total
    /// instruction count.
    pub fn generate_programs(&self) -> usize {
        let runner = self.runner();
        let mut insts = 0;
        for wl in &self.workloads {
            for _ in &self.schemes {
                for input in [Input::Ref, Input::Train] {
                    insts += std::hint::black_box(runner.program_for(wl, input)).len();
                }
            }
        }
        insts
    }
}

/// One completed cell.
pub struct CellDone {
    pub label: String,
    /// FNV-1a of the cell JSON written to disk.
    pub file_fnv: u64,
    pub result: RunResult,
    /// Benchmark-clock wall time of the cell (run, write, journal).
    pub ms: f64,
}

/// Everything one sweep produced.
pub struct SweepOutcome {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall time of the prewarm phase.
    pub prewarm_s: f64,
    pub cells: Vec<CellDone>,
    /// Labels and errors of poisoned cells.
    pub poisoned: Vec<(String, String)>,
    pub sources: SourceTally,
    pub workers: usize,
}

/// Runs one sweep into `out_dir` (created fresh) on `workers` threads.
/// Cells run workload by workload, as `rvp-grid` lists them; `rng` only
/// picks which workload comes first. With no timing history every
/// longest-job-first estimate is the same instruction budget, and
/// `rvp-grid`'s stable sort keeps this order, so no sort is needed.
pub fn run_sweep(cfg: &SweepConfig, out_dir: &Path, workers: usize, rng: &mut Rng) -> SweepOutcome {
    let _ = std::fs::remove_dir_all(out_dir);
    std::fs::create_dir_all(out_dir).expect("create sweep output directory");
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let sweep_span = spans::enter_group("grid.sweep", cfg.name, 0);
    let sweep_id = sweep_span.as_ref().map_or(0, spans::Guard::id);

    let runner = cfg.runner();
    let mut workloads = cfg.workloads.clone();
    let first = rng.below(workloads.len());
    workloads.rotate_left(first);
    let cells: Vec<GridCell> = workloads
        .iter()
        .flat_map(|wl| {
            cfg.schemes.iter().map(|s| GridCell { workload: wl.clone(), scheme: s.clone() })
        })
        .collect();
    let manifest =
        Manifest::start(out_dir, grid_config_fnv(&cfg.workloads, &cfg.schemes, &runner), &[])
            .expect("start grid manifest");

    let next_wl = AtomicUsize::new(0);
    {
        let _phase = spans::enter("grid.prewarm", cfg.name);
        let phase_id = _phase.as_ref().map_or(0, spans::Guard::id);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(workloads.len()) {
                scope.spawn(|| loop {
                    let i = next_wl.fetch_add(1, Ordering::Relaxed);
                    let Some(wl) = workloads.get(i) else { return };
                    let _span = spans::enter_group("core.prewarm", wl.name(), phase_id);
                    runner.prewarm_trace(wl).expect("prewarm committed trace");
                });
            }
        });
    }
    let prewarm_s = t0.elapsed().as_secs_f64();

    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<CellDone>> = Mutex::new(Vec::new());
    let poisoned: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { return };
                let label = cell.label();
                let started = Instant::now();
                let _cell = spans::enter_group("grid.cell", label.as_str(), sweep_id);
                match run_one_cell(&runner, cell, CellOptions::default(), out_dir) {
                    Ok(ok) => {
                        {
                            let _journal = spans::enter("grid.journal", label.as_str());
                            manifest
                                .append(&ManifestCell {
                                    label: ok.label.clone(),
                                    file: ok.file.clone(),
                                    file_fnv: ok.file_fnv,
                                    committed: ok.committed,
                                    seconds: ok.seconds,
                                    retries: ok.retries,
                                    source: ok.source.to_owned(),
                                })
                                .expect("journal cell in manifest");
                        }
                        let result = ok.result.expect("a fresh sweep resumes nothing");
                        done.lock().expect("cell list").push(CellDone {
                            label,
                            file_fnv: ok.file_fnv,
                            result,
                            ms: started.elapsed().as_secs_f64() * 1e3,
                        });
                    }
                    Err(p) => poisoned.lock().expect("poison list").push((p.label, p.error)),
                }
            });
        }
    });
    drop(sweep_span);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let mut cells = done.into_inner().expect("cell list");
    cells.sort_by(|a, b| a.label.cmp(&b.label));
    let _ = std::fs::remove_dir_all(out_dir);
    SweepOutcome {
        wall_s,
        cpu_s,
        prewarm_s,
        cells,
        poisoned: poisoned.into_inner().expect("poison list"),
        sources: runner.source_counters.total(),
        workers,
    }
}

/// Per-cell digests: label → FNV-1a of the cell JSON.
pub type Digests = BTreeMap<String, u64>;

/// Checks every cell of a sweep against the stored digests. Returns one
/// line per problem (missing, unexpected or mismatching cells).
pub fn check_digests(outcome: &SweepOutcome, expected: &Digests) -> Vec<String> {
    let mut problems = Vec::new();
    for cell in &outcome.cells {
        match expected.get(&cell.label) {
            Some(&want) if want == cell.file_fnv => {}
            Some(&want) => problems.push(format!(
                "{}: cell digest {:016x} != stored {want:016x}",
                cell.label, cell.file_fnv
            )),
            None => problems.push(format!("{}: no stored digest", cell.label)),
        }
    }
    for (label, err) in &outcome.poisoned {
        problems.push(format!("{label}: poisoned: {err}"));
    }
    for label in expected.keys() {
        if !outcome.cells.iter().any(|c| &c.label == label)
            && !outcome.poisoned.iter().any(|(l, _)| l == label)
        {
            problems.push(format!("{label}: stored cell was not produced"));
        }
    }
    problems
}

/// The largest relative IPC error of any cell against its full-detail
/// reference IPC, and the cell it belongs to.
pub fn ipc_error_max(
    outcome: &SweepOutcome,
    reference: &BTreeMap<String, f64>,
) -> Option<(f64, String)> {
    outcome
        .cells
        .iter()
        .filter_map(|c| {
            let want = *reference.get(&c.label)?;
            Some(((c.result.stats.ipc() - want).abs() / want, c.label.clone()))
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
}
