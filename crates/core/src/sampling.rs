//! Runner-side plumbing for SimPoint-style sampled measurement.
//!
//! The [`rvp_sample`] crate owns the methodology (BBV profiling,
//! clustering, window extraction, weighted reconstruction); this module
//! owns the *caching*: a sampling plan is a pure function of
//! (committed stream, budget, [`SampleSpec`]), so it is memoized in
//! memory across the scheme cells of a grid — every cell of a workload
//! column shares one plan and one set of extracted windows, static-RVP
//! cells included — and persisted content-addressed next to the trace
//! store, so re-running a sweep skips the profiling pass entirely.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rvp_emu::Emulator;
use rvp_isa::Program;
use rvp_json::{Json, ToJson};
use rvp_obs::log;
use rvp_sample::{extract_windows, BbvConfig, BbvProfiler, SamplePlan, SampleSpec, SampleWindow};
use rvp_uarch::SimError;

/// Content key for a sampling plan (and the windows extracted under
/// it): everything the plan is a function of, hashed. `program_hash` is
/// the hash of the program that defines the committed stream, so it
/// covers the workload, input, scale factor *and* any register
/// reallocation. Static marking is left out of it — the runner hashes
/// the unmarked program for a marked cell — because `rvp_` opcodes do
/// not change the committed stream. The resolved interval/warmup cover
/// the auto knobs.
pub(crate) fn sample_key(
    workload: &str,
    budget: u64,
    program_hash: u64,
    interval: u64,
    warmup: u64,
    spec: &SampleSpec,
) -> u64 {
    let key = format!(
        "{workload}|{budget}|{program_hash:016x}|{interval}|{warmup}|{}",
        spec.fingerprint_component()
    );
    rvp_trace::fnv1a(key.as_bytes())
}

type PlanSlot = Arc<Mutex<Option<Arc<SamplePlan>>>>;
type WindowSlot = Arc<Mutex<Option<Arc<Vec<SampleWindow>>>>>;

/// Thread-safe memos of sampling plans and extracted windows, keyed by
/// `sample_key` and shared by clones of a [`crate::Runner`] exactly
/// like its profile and trace caches: entries are locked individually,
/// so grid threads racing on the same workload profile it once while
/// different workloads proceed in parallel. One entry serves every cell
/// of a workload that reads the unmarked ref stream, and a sampled
/// `Runner::prewarm_trace` fills it before the cells run.
#[derive(Clone, Default)]
pub struct SamplingCaches {
    plans: Arc<Mutex<HashMap<u64, PlanSlot>>>,
    windows: Arc<Mutex<HashMap<u64, WindowSlot>>>,
}

impl SamplingCaches {
    /// The plan for `key`, from (in order) the in-memory memo, the
    /// content-addressed file under `dir`, or `build`. A freshly built
    /// plan is persisted to `dir` best-effort — a read-only store slows
    /// the next sweep down but never fails this one.
    pub(crate) fn plan(
        &self,
        key: u64,
        dir: Option<&Path>,
        build: impl FnOnce() -> Result<SamplePlan, SimError>,
    ) -> Result<Arc<SamplePlan>, SimError> {
        let slot = {
            let mut slots = self.plans.lock().expect("plan cache poisoned");
            slots.entry(key).or_default().clone()
        };
        let mut entry = slot.lock().expect("plan slot poisoned");
        if let Some(plan) = entry.as_ref() {
            return Ok(Arc::clone(plan));
        }
        let path = dir.map(|d| plan_path(d, key));
        if let Some(plan) = path.as_ref().and_then(|p| load_plan(p)) {
            let plan = Arc::new(plan);
            *entry = Some(Arc::clone(&plan));
            return Ok(plan);
        }
        let plan = Arc::new(build()?);
        if let Some(p) = &path {
            store_plan(p, &plan);
        }
        *entry = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// The extracted windows for `key`, memoized like [`Self::plan`].
    /// Windows are a few MB of committed records — worth sharing across
    /// a workload's scheme cells, not worth persisting (re-extraction is
    /// one streaming emulation pass).
    pub(crate) fn windows(
        &self,
        key: u64,
        extract: impl FnOnce() -> Result<Vec<SampleWindow>, SimError>,
    ) -> Result<Arc<Vec<SampleWindow>>, SimError> {
        let slot = {
            let mut slots = self.windows.lock().expect("window cache poisoned");
            slots.entry(key).or_default().clone()
        };
        let mut entry = slot.lock().expect("window slot poisoned");
        if let Some(windows) = entry.as_ref() {
            return Ok(Arc::clone(windows));
        }
        let windows = Arc::new(extract()?);
        *entry = Some(Arc::clone(&windows));
        Ok(windows)
    }

    /// Number of cached plans.
    pub fn plans_len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Number of cached window sets.
    pub fn windows_len(&self) -> usize {
        self.windows.lock().expect("window cache poisoned").len()
    }
}

impl fmt::Debug for SamplingCaches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SamplingCaches({} plans, {} window sets)", self.plans_len(), self.windows_len())
    }
}

/// The content-addressed path of a plan: `<dir>/plan-<key>.json`.
pub(crate) fn plan_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("plan-{key:016x}.json"))
}

fn load_plan(path: &Path) -> Option<SamplePlan> {
    let text = std::fs::read_to_string(path).ok()?;
    match Json::parse(&text).ok().as_ref().map(SamplePlan::from_json) {
        Some(Ok(plan)) => Some(plan),
        _ => {
            log::warn(
                "rvp_core::sampling",
                "cached sampling plan unreadable; rebuilding",
                &[("path", path.display().to_string().into())],
            );
            None
        }
    }
}

fn store_plan(path: &Path, plan: &SamplePlan) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        crate::journal::write_atomic(path, plan.to_json().to_string().as_bytes())
    };
    if let Err(e) = write() {
        log::warn(
            "rvp_core::sampling",
            "failed to persist sampling plan; it will be rebuilt next sweep",
            &[("path", path.display().to_string().into()), ("error", e.to_string().into())],
        );
    }
}

/// One full pipeline run up to the plan: stream the committed
/// instructions through the BBV profiler ([`sample.profile`] span),
/// then cluster ([`sample.cluster`] span inside
/// [`SamplePlan::build`]).
/// Cancel polls in the streaming emulation passes happen every
/// `CANCEL_CHECK_MASK + 1` committed records — the same amortization
/// idea as the cycle loop's, so a sampled cell squashes within
/// milliseconds of its token firing even while profiling.
const CANCEL_CHECK_MASK: u64 = 0x1FFF;

pub(crate) fn build_plan(
    workload: &'static str,
    program: &Program,
    budget: u64,
    interval: u64,
    warmup: u64,
    spec: &SampleSpec,
    cancel: Option<&rvp_obs::CancelToken>,
) -> Result<SamplePlan, SimError> {
    let profile = {
        let _span = rvp_obs::span!("sample.profile", { workload, budget, interval });
        let cfg = BbvConfig { interval_insts: interval, dims: spec.dims, seed: spec.seed };
        let mut prof = BbvProfiler::new(program.len(), cfg);
        let mut emu = Emulator::new(program);
        let mut seen = 0u64;
        while seen < budget {
            if seen & CANCEL_CHECK_MASK == 0 {
                if let Some(reason) = cancel.and_then(rvp_obs::CancelToken::poll) {
                    return Err(SimError::Cancelled { cycle: 0, committed: seen, reason });
                }
            }
            match emu.step().map_err(SimError::Emu)? {
                Some(rec) => {
                    prof.observe(rec.pc, rec.next_pc);
                    seen += 1;
                }
                None => break,
            }
        }
        prof.finish()
    };
    Ok(SamplePlan::build(&profile, spec, warmup))
}

/// The second streaming pass: re-emulate the program and pull out just
/// the planned windows. A fired cancel token ends the stream early and
/// surfaces as [`SimError::Cancelled`] rather than a short-trace error.
pub(crate) fn extract_plan_windows(
    plan: &SamplePlan,
    program: &Program,
    cancel: Option<&rvp_obs::CancelToken>,
) -> Result<Vec<SampleWindow>, SimError> {
    let mut emu = Emulator::new(program);
    let mut seen = 0u64;
    let result = extract_windows(
        plan,
        std::iter::from_fn(|| {
            if seen & CANCEL_CHECK_MASK == 0
                && cancel.and_then(rvp_obs::CancelToken::poll).is_some()
            {
                return None;
            }
            seen += 1;
            emu.step().transpose()
        }),
    );
    if let Some(reason) = cancel.and_then(|t| t.reason()) {
        return Err(SimError::Cancelled { cycle: 0, committed: seen, reason });
    }
    result.map_err(SimError::Emu)
}
