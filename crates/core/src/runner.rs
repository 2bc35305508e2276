use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rvp_emu::Committed;
use rvp_isa::Program;
use rvp_json::{Json, ToJson};
use rvp_obs::log;
use rvp_profile::{Fig1Row, PlanScope, Profile, ProfileConfig};
use rvp_realloc::{reallocate, ReallocOptions};
use rvp_sample::{combine_weighted, SamplePlan, SampleSpec, SampleWindow};
use rvp_trace::{TraceInput, TraceMeta, TraceStore};
use rvp_uarch::TraceColumns;
use rvp_uarch::{
    CommittedSource, ObsConfig, PlanMode, Recovery, ReplaySource, Scheme, SharedSource, SimError,
    SimStats, Simulator, UarchConfig,
};
use rvp_workloads::{Input, Workload};

use crate::sampling::{build_plan, extract_plan_windows, sample_key, SamplingCaches};
use crate::schemes::{PlanSource, SchemeSpec};

/// Result of one (workload, scheme) simulation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Label of the scheme simulated ([`SchemeSpec::label`]).
    pub scheme: String,
    /// Timing and prediction statistics.
    pub stats: SimStats,
    /// The sampling plan behind the stats, when the cell was measured
    /// by sampled simulation ([`Runner::sampling`]); `None` for a full
    /// detailed run.
    pub sampling: Option<Arc<SamplePlan>>,
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload", self.workload.into()),
            ("scheme", self.scheme.as_str().into()),
            ("stats", self.stats.to_json()),
        ];
        if let Some(plan) = &self.sampling {
            fields.push(("sampling", plan.to_json()));
        }
        Json::obj(fields)
    }
}

/// Cache key for a collected profile: (workload, input, instruction
/// budget, workload scale). The program itself is a pure function of
/// (workload, input, scale), so it needs no separate key component.
type ProfileKey = (&'static str, Input, u64, u64);

/// A thread-safe memo of collected [`Profile`]s, shared by clones of a
/// [`Runner`].
///
/// `Runner::run` needs the train profile for most schemes, and a figure
/// column runs every scheme over the same workload — without the cache
/// the (expensive) profile is recollected per scheme. Entries are locked
/// individually, so two grid threads asking for the *same* profile
/// compute it once while profiles of different workloads proceed in
/// parallel.
#[derive(Clone, Default)]
pub struct ProfileCache {
    slots: Arc<Mutex<HashMap<ProfileKey, ProfileSlot>>>,
}

/// One cache entry, locked independently of the map.
type ProfileSlot = Arc<Mutex<Option<Arc<Profile>>>>;

impl ProfileCache {
    /// Returns the cached profile for `key`, collecting it with
    /// `collect` on first use. Failures are returned and not cached.
    fn get_or_collect(
        &self,
        key: ProfileKey,
        collect: impl FnOnce() -> Result<Profile, SimError>,
    ) -> Result<Arc<Profile>, SimError> {
        let slot = {
            let mut slots = self.slots.lock().expect("profile cache poisoned");
            slots.entry(key).or_default().clone()
        };
        let mut entry = slot.lock().expect("profile slot poisoned");
        if let Some(profile) = entry.as_ref() {
            return Ok(Arc::clone(profile));
        }
        let profile = Arc::new(collect()?);
        *entry = Some(Arc::clone(&profile));
        Ok(profile)
    }

    /// Number of cached profiles.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("profile cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for ProfileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProfileCache({} entries)", self.len())
    }
}

/// Where a measurement run's committed-instruction stream comes from.
///
/// Value misprediction never changes architectural state, so every
/// scheme × recovery cell of a workload consumes the *same* committed
/// stream; all three modes produce bit-identical [`SimStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// Re-emulate the workload inside every cell (the pre-refactor
    /// behaviour, and the fallback whenever no trace can serve).
    Live,
    /// Stream each cell from the on-disk trace cache ([`TraceStore`]),
    /// degrading to live emulation mid-run on corruption.
    Replay,
    /// Decode the committed trace once per workload into an
    /// columnar [`TraceColumns`] shared by every cell — the default: a grid
    /// pays for functional emulation once per workload, not per cell.
    #[default]
    Shared,
}

impl SourceMode {
    /// Stable lowercase name (CLI flag values and summary JSON).
    pub fn name(self) -> &'static str {
        match self {
            SourceMode::Live => "live",
            SourceMode::Replay => "replay",
            SourceMode::Shared => "shared",
        }
    }

    /// Parses a [`SourceMode::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<SourceMode> {
        match s {
            "live" => Some(SourceMode::Live),
            "replay" => Some(SourceMode::Replay),
            "shared" => Some(SourceMode::Shared),
            _ => None,
        }
    }
}

/// Cache key for a shared decoded trace: (workload, input, budget,
/// scale) — the same key shape as [`ProfileKey`], and for the same
/// reason.
type TraceKey = (&'static str, Input, u64, u64);

/// One shared-trace entry, locked independently of the map.
type TraceSlot = Arc<Mutex<Option<Arc<TraceColumns>>>>;

/// A thread-safe memo of decoded in-memory traces, shared by clones of
/// a [`Runner`] exactly like [`ProfileCache`]: entries are locked
/// individually, so grid threads racing on the *same* workload decode
/// it once while different workloads decode in parallel.
///
/// With a byte budget set ([`SharedTraceCache::set_budget_bytes`],
/// accounted via [`TraceColumns::approx_bytes`]), the least-recently
/// used traces are dropped after each materialization until the cache
/// fits — threads still holding an evicted trace keep their `Arc` (the
/// memory frees when the last one drops); the next request for that
/// key simply re-materializes.
#[derive(Clone, Default)]
pub struct SharedTraceCache {
    slots: Arc<Mutex<HashMap<TraceKey, (TraceSlot, u64)>>>,
    tick: Arc<AtomicU64>,
    budget_bytes: Arc<AtomicU64>,
    evicted: Arc<AtomicU64>,
}

impl SharedTraceCache {
    /// Returns the cached trace for `key`, materializing it with
    /// `capture` on first use; the flag reports whether this call did
    /// the capture. Failures are returned and not cached.
    fn get_or_capture(
        &self,
        key: TraceKey,
        capture: impl FnOnce() -> Result<Arc<TraceColumns>, SimError>,
    ) -> Result<(Arc<TraceColumns>, bool), SimError> {
        let slot = {
            let mut slots = self.slots.lock().expect("trace cache poisoned");
            let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            let entry = slots.entry(key).or_default();
            entry.1 = tick;
            entry.0.clone()
        };
        let mut entry = slot.lock().expect("trace slot poisoned");
        if let Some(trace) = entry.as_ref() {
            return Ok((Arc::clone(trace), false));
        }
        let trace = capture()?;
        *entry = Some(Arc::clone(&trace));
        drop(entry);
        self.evict_to_budget(&key);
        Ok((trace, true))
    }

    /// Sets the resident-byte budget (`0` = ungoverned). Shared across
    /// clones, so one call governs every runner of a grid or daemon.
    pub fn set_budget_bytes(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Traces dropped by the budget governor so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Drops least-recently-used traces until resident bytes fit the
    /// budget, never dropping `keep` (just materialized). Slots being
    /// filled right now hold their own lock — `try_lock` skips them,
    /// which is correct: an in-progress fill is by definition in use.
    fn evict_to_budget(&self, keep: &TraceKey) {
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        let slots = self.slots.lock().expect("trace cache poisoned");
        let mut resident: Vec<(u64, TraceKey, u64)> = Vec::new();
        for (key, (slot, last_use)) in slots.iter() {
            if let Ok(guard) = slot.try_lock() {
                if let Some(trace) = guard.as_ref() {
                    resident.push((*last_use, *key, trace.approx_bytes()));
                }
            }
        }
        let mut total: u64 = resident.iter().map(|(_, _, bytes)| bytes).sum();
        if total <= budget {
            return;
        }
        resident.sort_by_key(|(last_use, _, _)| *last_use);
        let mut dropped = 0u64;
        for (_, key, bytes) in resident {
            if total <= budget {
                break;
            }
            if key == *keep {
                continue;
            }
            if let Some((slot, _)) = slots.get(&key) {
                if let Ok(mut guard) = slot.try_lock() {
                    *guard = None;
                    total -= bytes;
                    dropped += 1;
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if dropped > 0 && rvp_obs::span::armed() {
            rvp_obs::span::record(
                "cache.evict",
                rvp_obs::span::current(),
                rvp_obs::span::now_us(),
                rvp_obs::span::now_us(),
                vec![("cache".into(), "shared.traces".into()), ("evicted".into(), dropped.into())],
            );
        }
    }

    /// Number of materialized traces.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("trace cache poisoned")
            .values()
            .filter(|(slot, _)| slot.try_lock().map(|g| g.is_some()).unwrap_or(true))
            .count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for SharedTraceCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedTraceCache({} entries)", self.len())
    }
}

/// Per-workload tally of how measurement runs were fed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceTally {
    /// Traces materialized (decoded into memory, or captured to disk
    /// on behalf of replay runs) for this workload.
    pub captures: u64,
    /// Measurement runs served from a captured trace (shared memory or
    /// clean disk replay).
    pub shared_hits: u64,
    /// Measurement runs that fell back to live emulation despite a
    /// trace-backed mode: register-reallocated programs (no trace
    /// describes the transformed stream), missing stores, or mid-run
    /// trace corruption.
    pub live_fallbacks: u64,
}

impl ToJson for SourceTally {
    fn to_json(&self) -> Json {
        Json::obj([
            ("captures", self.captures.into()),
            ("shared_hits", self.shared_hits.into()),
            ("live_fallbacks", self.live_fallbacks.into()),
        ])
    }
}

/// Thread-safe per-workload [`SourceTally`] counters, shared by clones
/// of a [`Runner`] (and so across grid threads).
#[derive(Clone, Default)]
pub struct SourceCounters {
    tallies: Arc<Mutex<HashMap<&'static str, SourceTally>>>,
}

impl SourceCounters {
    fn bump(&self, workload: &'static str, f: impl FnOnce(&mut SourceTally)) {
        let mut tallies = self.tallies.lock().expect("source counters poisoned");
        f(tallies.entry(workload).or_default());
    }

    /// All tallies, sorted by workload name.
    pub fn snapshot(&self) -> Vec<(&'static str, SourceTally)> {
        let tallies = self.tallies.lock().expect("source counters poisoned");
        let mut out: Vec<_> = tallies.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The tallies as unified-registry samples (`rvp_source_*_total`,
    /// one labelled sample per workload).
    pub fn metrics(&self) -> Vec<rvp_obs::Metric> {
        let mut out = Vec::new();
        for (workload, tally) in self.snapshot() {
            out.push(
                rvp_obs::Metric::counter("rvp_source_captures_total", tally.captures)
                    .with_label("workload", workload),
            );
            out.push(
                rvp_obs::Metric::counter("rvp_source_shared_hits_total", tally.shared_hits)
                    .with_label("workload", workload),
            );
            out.push(
                rvp_obs::Metric::counter("rvp_source_live_fallbacks_total", tally.live_fallbacks)
                    .with_label("workload", workload),
            );
        }
        out
    }

    /// Sum over all workloads.
    pub fn total(&self) -> SourceTally {
        self.snapshot().into_iter().fold(SourceTally::default(), |mut acc, (_, t)| {
            acc.captures += t.captures;
            acc.shared_hits += t.shared_hits;
            acc.live_fallbacks += t.live_fallbacks;
            acc
        })
    }
}

impl fmt::Debug for SourceCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        write!(
            f,
            "SourceCounters(captures {}, shared_hits {}, live_fallbacks {})",
            t.captures, t.shared_hits, t.live_fallbacks
        )
    }
}

/// Executes paper experiments: profile on train, measure on ref.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Machine configuration (Table 1 by default).
    pub config: UarchConfig,
    /// Value-misprediction recovery model (the paper uses selective
    /// reissue everywhere except Figure 4).
    pub recovery: Recovery,
    /// Profile threshold for candidate selection (0.80; Figure 4 uses
    /// 0.90).
    pub threshold: f64,
    /// Committed-instruction budget for profiling runs.
    pub profile_insts: u64,
    /// Committed-instruction budget for measurement runs.
    pub measure_insts: u64,
    /// When set, measurement runs are *sampled*: the committed stream
    /// is BBV-profiled and clustered into phases, one representative
    /// interval per phase is simulated in detail after functional
    /// warmup, and whole-run stats are reconstructed by weight. `None`
    /// (the default) measures every committed instruction in detail.
    pub sampling: Option<SampleSpec>,
    /// Multiplier on every workload's outer pass counts
    /// ([`Workload::program_scaled`]); 1 (the default) is the seed-era
    /// program. A few hundred reaches the paper's 100M+ committed
    /// instructions — pair with [`Runner::sampling`] to keep such runs
    /// tractable.
    pub workload_scale: u64,
    /// Memos of sampling plans and extracted windows, shared across
    /// clones (and therefore across the threads of a parallel grid).
    pub samples: SamplingCaches,
    /// Memo of collected profiles, shared across clones (and therefore
    /// across the threads of a parallel grid).
    pub profiles: ProfileCache,
    /// On-disk committed-trace cache; when present, profiles are
    /// collected by replaying traces instead of re-running the emulator.
    /// Defaults to the `RVP_TRACE_DIR` environment variable.
    pub traces: Option<TraceStore>,
    /// Where measurement runs get their committed stream (shared
    /// in-memory traces by default).
    pub source_mode: SourceMode,
    /// Memo of decoded in-memory traces, shared across clones (and
    /// therefore across the threads of a parallel grid).
    pub shared_traces: SharedTraceCache,
    /// Per-workload capture / shared-hit / live-fallback telemetry,
    /// shared across clones.
    pub source_counters: SourceCounters,
    /// Optional instrumentation for measurement runs (time-series
    /// sampling and per-PC telemetry). Off by default; the CPI stack is
    /// always collected.
    pub obs: ObsConfig,
    /// Cooperative cancellation handle. When set, measurement cycle
    /// loops and the sampling passes poll it on an amortized schedule
    /// and fail fast with [`SimError::Cancelled`]; `None` (the default)
    /// costs nothing.
    pub cancel: Option<rvp_obs::CancelToken>,
}

impl Default for Runner {
    fn default() -> Runner {
        let shared_traces = SharedTraceCache::default();
        // Resource governance knob: cap the resident bytes of decoded
        // shared traces (`RVP_SHARED_TRACE_BUDGET_MB`); unset or 0
        // leaves the cache ungoverned, the seed-era behavior.
        if let Some(mb) = std::env::var("RVP_SHARED_TRACE_BUDGET_MB")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|mb| *mb > 0)
        {
            shared_traces.set_budget_bytes(mb * 1024 * 1024);
        }
        Runner {
            config: UarchConfig::table1(),
            recovery: Recovery::Selective,
            threshold: 0.8,
            profile_insts: 1_500_000,
            measure_insts: 400_000,
            sampling: None,
            workload_scale: 1,
            samples: SamplingCaches::default(),
            profiles: ProfileCache::default(),
            traces: TraceStore::from_env(),
            source_mode: SourceMode::default(),
            shared_traces,
            source_counters: SourceCounters::default(),
            obs: ObsConfig::off(),
            cancel: None,
        }
    }
}

impl Runner {
    /// A runner for the 16-wide machine of Figure 8.
    pub fn wide16() -> Runner {
        Runner { config: UarchConfig::wide16(), ..Runner::default() }
    }

    /// The workload's program at this runner's [`Runner::workload_scale`].
    pub fn program_for(&self, wl: &Workload, input: Input) -> Program {
        wl.program_scaled(input, self.workload_scale)
    }

    /// Fails fast with [`SimError::Cancelled`] if this runner's token
    /// has fired — called between the coarse stages of a cell (profile,
    /// plan, window, measure) so cancellation lands promptly even when
    /// the current stage is not a polled cycle loop.
    fn check_cancel(&self) -> Result<(), SimError> {
        if let Some(token) = &self.cancel {
            if let Some(reason) = token.poll() {
                return Err(SimError::Cancelled { cycle: 0, committed: 0, reason });
            }
        }
        Ok(())
    }

    /// The train-input profile used by every profile-guided scheme,
    /// memoized in [`Runner::profiles`] (and served from the trace cache
    /// when one is configured).
    ///
    /// # Errors
    ///
    /// Propagates emulator errors from a live profiling run.
    pub fn train_profile(&self, wl: &Workload) -> Result<Arc<Profile>, SimError> {
        self.train_profile_for(wl, &self.program_for(wl, Input::Train))
    }

    fn train_profile_for(&self, wl: &Workload, train: &Program) -> Result<Arc<Profile>, SimError> {
        let key = (wl.name(), Input::Train, self.profile_insts, self.workload_scale);
        self.profiles.get_or_collect(key, || {
            self.collect_profile(wl.name(), Input::Train, train, self.profile_insts)
        })
    }

    /// Collects a profile, replaying a cached trace when a [`TraceStore`]
    /// is configured. Any trouble with the trace path — capture failure,
    /// corruption discovered mid-replay — falls back to live emulation;
    /// the trace subsystem can slow an experiment down but never fail it.
    fn collect_profile(
        &self,
        name: &'static str,
        input: Input,
        program: &Program,
        budget: u64,
    ) -> Result<Profile, SimError> {
        let _span = rvp_obs::span!("runner.profile", { workload: name, budget });
        let cfg = ProfileConfig { max_insts: budget, min_execs: 32 };
        if let Some(store) = &self.traces {
            let meta = TraceMeta::for_program(name, trace_input(input), budget, program);
            match store
                .open_or_capture(program, &meta)
                .and_then(|reader| Profile::collect_stream(program, &cfg, reader))
            {
                Ok(profile) => return Ok(profile),
                Err(e) => {
                    log::warn(
                        "rvp_core::runner",
                        "trace replay failed; falling back to live emulation",
                        &[("workload", name.into()), ("error", e.to_string().into())],
                    );
                }
            }
        }
        Profile::collect(program, &cfg).map_err(SimError::Emu)
    }

    /// Runs one (workload, scheme) cell.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; these indicate workload or model
    /// bugs, not expected outcomes.
    pub fn run(&self, wl: &Workload, scheme: &SchemeSpec) -> Result<RunResult, SimError> {
        self.check_cancel()?;
        let info = scheme.info();
        let base = self.program_for(wl, Input::Ref);
        let train = self.program_for(wl, Input::Train);
        if base.len() != train.len() {
            return Err(SimError::StructureMismatch {
                train_len: train.len(),
                ref_len: base.len(),
            });
        }

        let profile =
            if scheme.needs_profile() { Some(self.train_profile_for(wl, &train)?) } else { None };

        let mut sim_scheme = match scheme.build_predictor() {
            Some(p) => Scheme::new(scheme.label().to_owned(), info.scope, p),
            None => Scheme::no_predict(),
        };
        // The program the cell simulates, when the scheme rewrites the
        // ref program's text.
        let rewritten = match info.plan {
            PlanSource::NoPlan => None,
            PlanSource::Static(level) => {
                let profile = profile.as_ref().expect("profiled");
                let plan = profile.static_plan(&train, self.threshold, level);
                // Mark the loads in the program text (`rvp_` opcodes).
                let marked = base.map_insts(|pc, inst| {
                    if plan.contains(pc) {
                        inst.clone().with_rvp()
                    } else {
                        inst.clone()
                    }
                });
                sim_scheme = sim_scheme.with_plan(plan, PlanMode::Exhaustive);
                Some(marked)
            }
            PlanSource::Assist(assist) => {
                let profile = profile.as_ref().expect("profiled");
                let plan = profile.assist_plan(&train, self.threshold, info.scope, assist);
                sim_scheme = sim_scheme.with_plan(plan, PlanMode::Overlay);
                None
            }
            PlanSource::Realloc => {
                // Actually transform the program; the hardware then runs
                // the plain predictor with no oracle plan.
                let profile = profile.as_ref().expect("profiled");
                let opts = ReallocOptions {
                    threshold: self.threshold,
                    scope: PlanScope::AllInsts,
                    use_dead: true,
                    use_lv: true,
                };
                Some(reallocate(&base, profile, &opts).program)
            }
        };
        let program = rewritten.as_ref().unwrap_or(&base);

        let reallocated = info.plan == PlanSource::Realloc;
        let (stats, sampling) = match self.sampling {
            Some(spec) => {
                // Marking leaves the committed stream as it is, so only a
                // reallocated program needs a plan of its own.
                let stream = if reallocated { program } else { &base };
                let (stats, plan) = self.measure_sampled(wl, stream, program, sim_scheme, &spec)?;
                (stats, Some(plan))
            }
            None => (self.measure(wl, program, sim_scheme, reallocated)?, None),
        };
        Ok(RunResult { workload: wl.name(), scheme: scheme.label().to_owned(), stats, sampling })
    }

    /// Runs one timing simulation, feeding the committed stream per
    /// [`Runner::source_mode`]. A register-reallocated program always
    /// runs live — the transformation changes the instruction stream
    /// itself, so no captured trace describes it. (Profile-marked
    /// `rvp_` opcodes are fine: marking does not change semantics, so
    /// the unmarked base trace still matches.)
    fn measure(
        &self,
        wl: &Workload,
        program: &Program,
        sim_scheme: Scheme,
        reallocated: bool,
    ) -> Result<SimStats, SimError> {
        let name = wl.name();
        let mut sim = Simulator::new(self.config.clone(), sim_scheme, self.recovery)
            .with_obs(self.obs.clone());
        if let Some(token) = &self.cancel {
            sim = sim.with_cancel(token.clone());
        }
        let mode = if reallocated { SourceMode::Live } else { self.source_mode };
        let _span = rvp_obs::span!("runner.measure", { workload: name, source: mode.name() });

        match mode {
            SourceMode::Live => {
                if self.source_mode != SourceMode::Live {
                    self.source_counters.bump(name, |t| t.live_fallbacks += 1);
                }
                sim.run(program, self.measure_insts)
            }
            SourceMode::Shared => {
                let trace = self.shared_ref_trace(wl)?;
                self.source_counters.bump(name, |t| t.shared_hits += 1);
                let mut source = SharedSource::new(trace);
                sim.run_with_source(program, &mut source, self.measure_insts)
            }
            SourceMode::Replay => {
                let reader = self.traces.as_ref().and_then(|store| {
                    let base = self.program_for(wl, Input::Ref);
                    let meta =
                        TraceMeta::for_program(name, TraceInput::Ref, self.measure_insts, &base);
                    match store.open(&meta) {
                        Ok(reader) => Some(reader),
                        Err(_) => match store.capture(&base, &meta).and_then(|_| store.open(&meta))
                        {
                            Ok(reader) => {
                                self.source_counters.bump(name, |t| t.captures += 1);
                                Some(reader)
                            }
                            Err(e) => {
                                log::warn(
                                    "rvp_core::runner",
                                    "trace unavailable for replay; running live",
                                    &[("workload", name.into()), ("error", e.to_string().into())],
                                );
                                None
                            }
                        },
                    }
                });
                let Some(reader) = reader else {
                    self.source_counters.bump(name, |t| t.live_fallbacks += 1);
                    return sim.run(program, self.measure_insts);
                };
                let mut source = ReplaySource::new(program, reader);
                let stats = sim.run_with_source(program, &mut source, self.measure_insts)?;
                if source.degraded() {
                    self.source_counters.bump(name, |t| t.live_fallbacks += 1);
                } else {
                    self.source_counters.bump(name, |t| t.shared_hits += 1);
                }
                Ok(stats)
            }
        }
    }

    /// Runs one *sampled* timing simulation: plan and windows from
    /// [`Runner::sample_windows`] over `stream`, then per window run
    /// functional warmup of `program` followed by a detailed simulation
    /// of just that interval, and reconstruct whole-run stats by cluster
    /// weight.
    ///
    /// `stream` is the program whose committed stream the cell
    /// consumes: the unmarked ref program for every scheme but
    /// register reallocation, whose transformed `program` is its own
    /// stream and so gets its own plan and windows.
    fn measure_sampled(
        &self,
        wl: &Workload,
        stream: &Program,
        program: &Program,
        sim_scheme: Scheme,
        spec: &SampleSpec,
    ) -> Result<(SimStats, Arc<SamplePlan>), SimError> {
        let name = wl.name();
        let _span = rvp_obs::span!("runner.measure", { workload: name, source: "sampled" });
        let (plan, windows) = self.sample_windows(name, stream, spec)?;

        let mut parts = Vec::with_capacity(windows.len());
        for w in windows.iter() {
            self.check_cancel()?;
            let _span = rvp_obs::span!("sample.interval", {
                workload: name,
                index: w.index as u64,
                start: w.start,
                insts: w.detail.len() as u64
            });
            let mut sim = Simulator::new(self.config.clone(), sim_scheme.clone(), self.recovery);
            if let Some(token) = &self.cancel {
                sim = sim.with_cancel(token.clone());
            }
            let warm = sim.functional_warmup(program, &w.warmup);
            let mut source = SharedSource::new(Arc::clone(&w.detail));
            let stats =
                sim.run_warmed_with_source(program, &mut source, w.detail.len() as u64, &warm)?;
            parts.push((w.weight, stats));
        }
        Ok((combine_weighted(plan.total_insts, &parts), plan))
    }

    /// The sampling plan for `stream`'s committed stream (cached in
    /// memory and content-addressed on disk next to the trace store) and
    /// its extracted representative windows (cached in memory), shared
    /// by every cell that consumes that stream.
    fn sample_windows(
        &self,
        name: &'static str,
        stream: &Program,
        spec: &SampleSpec,
    ) -> Result<(Arc<SamplePlan>, Arc<Vec<SampleWindow>>), SimError> {
        let (interval, warmup) = spec.resolve(self.measure_insts);
        let key = sample_key(
            name,
            self.measure_insts,
            rvp_trace::program_hash(stream),
            interval,
            warmup,
            spec,
        );
        let plan_dir = self.traces.as_ref().map(|s| s.dir().join("plans"));
        let plan = self.samples.plan(key, plan_dir.as_deref(), || {
            build_plan(
                name,
                stream,
                self.measure_insts,
                interval,
                warmup,
                spec,
                self.cancel.as_ref(),
            )
        })?;
        let windows = self
            .samples
            .windows(key, || extract_plan_windows(&plan, stream, self.cancel.as_ref()))?;
        Ok((plan, windows))
    }

    /// The shared decoded ref trace for `wl`, materialized on first use
    /// (per (workload, input, budget) key): decoded from the on-disk
    /// store when one is configured — a decode failure falls back to
    /// direct in-memory capture — else captured straight from the
    /// emulator.
    fn shared_ref_trace(&self, wl: &Workload) -> Result<Arc<TraceColumns>, SimError> {
        let name = wl.name();
        let key = (name, Input::Ref, self.measure_insts, self.workload_scale);
        let (trace, captured) = self.shared_traces.get_or_capture(key, || {
            let _span = rvp_obs::span!("runner.trace.load", { workload: name });
            let base = self.program_for(wl, Input::Ref);
            if let Some(store) = &self.traces {
                let meta = TraceMeta::for_program(name, TraceInput::Ref, self.measure_insts, &base);
                match store
                    .open_or_capture(&base, &meta)
                    .and_then(|reader| reader.collect::<Result<Vec<Committed>, _>>())
                {
                    Ok(records) => return Ok(Arc::new(TraceColumns::from_records(&records))),
                    Err(e) => log::warn(
                        "rvp_core::runner",
                        "trace decode failed; capturing shared trace live",
                        &[("workload", name.into()), ("error", e.to_string().into())],
                    ),
                }
            }
            SharedSource::capture(&base, self.measure_insts)
        })?;
        if captured {
            self.source_counters.bump(name, |t| t.captures += 1);
        }
        Ok(trace)
    }

    /// Materializes what `wl`'s measurement runs read ahead of time, so
    /// a grid can pay it up front before fanning cells out to threads.
    ///
    /// A sampled runner ([`Runner::sampling`]) builds the sampling plan
    /// and extracted windows of the unmarked ref program — the ones every
    /// cell but register reallocation reads — whatever the source mode,
    /// and captures no committed trace: sampled cells never read one.
    /// Otherwise it materializes the committed trace per
    /// [`Runner::source_mode`], a no-op in [`SourceMode::Live`].
    ///
    /// # Errors
    ///
    /// Propagates emulator errors from a live capture or a plan's
    /// streaming passes. (A replay-mode store failure is *not* an error:
    /// measurement will fall back to live emulation.)
    pub fn prewarm_trace(&self, wl: &Workload) -> Result<(), SimError> {
        if let Some(spec) = &self.sampling {
            let base = self.program_for(wl, Input::Ref);
            return self.sample_windows(wl.name(), &base, spec).map(drop);
        }
        match self.source_mode {
            SourceMode::Live => Ok(()),
            SourceMode::Shared => self.shared_ref_trace(wl).map(drop),
            SourceMode::Replay => {
                if let Some(store) = &self.traces {
                    let base = self.program_for(wl, Input::Ref);
                    let meta = TraceMeta::for_program(
                        wl.name(),
                        TraceInput::Ref,
                        self.measure_insts,
                        &base,
                    );
                    if store.open(&meta).is_err() {
                        match store.capture(&base, &meta) {
                            Ok(_) => {
                                self.source_counters.bump(wl.name(), |t| t.captures += 1);
                            }
                            Err(e) => log::warn(
                                "rvp_core::runner",
                                "trace prewarm failed; replay will run live",
                                &[("workload", wl.name().into()), ("error", e.to_string().into())],
                            ),
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Figure 1 measurement: register-value reuse of loads on the ref
    /// input.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors.
    pub fn fig1(&self, wl: &Workload) -> Result<Fig1Row, SimError> {
        let program = self.program_for(wl, Input::Ref);
        let key = (wl.name(), Input::Ref, self.measure_insts, self.workload_scale);
        let profile = self.profiles.get_or_collect(key, || {
            self.collect_profile(wl.name(), Input::Ref, &program, self.measure_insts)
        })?;
        Ok(profile.fig1())
    }
}

/// A fingerprint of everything that makes two runs of a (workload ×
/// scheme) grid comparable: the workloads, the schemes, the
/// committed-stream source, the instruction budgets, the profile
/// threshold and the recovery model. The grid manifest journals it in
/// its header (a manifest written under a different configuration must
/// not be resumed from), and the serve daemon keys its
/// content-addressed result cache with the single-cell case.
pub fn grid_config_fnv(workloads: &[Workload], schemes: &[SchemeSpec], runner: &Runner) -> u64 {
    let mut key = String::new();
    for wl in workloads {
        key.push_str(wl.name());
        key.push(',');
    }
    key.push('|');
    for s in schemes {
        key.push_str(s.label());
        key.push(',');
    }
    key.push_str(&format!(
        "|{}|{}|{}|{:.6}|{:?}",
        runner.source_mode.name(),
        runner.measure_insts,
        runner.profile_insts,
        runner.threshold,
        runner.recovery,
    ));
    // Sampled and scaled configurations extend the key *only when
    // active*, so every pre-sampling fingerprint — and the manifests
    // and cached results journalled under them — stays valid.
    if let Some(spec) = &runner.sampling {
        key.push('|');
        key.push_str(&spec.fingerprint_component());
    }
    if runner.workload_scale > 1 {
        key.push_str(&format!("|scale={}", runner.workload_scale));
    }
    rvp_trace::fnv1a(key.as_bytes())
}

fn trace_input(input: Input) -> TraceInput {
    match input {
        Input::Train => TraceInput::Train,
        Input::Ref => TraceInput::Ref,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvp_workloads::by_name;

    fn quick_runner() -> Runner {
        Runner { profile_insts: 250_000, measure_insts: 120_000, ..Runner::default() }
    }

    fn spec(label: &str) -> SchemeSpec {
        SchemeSpec::parse(label).unwrap()
    }

    #[test]
    fn m88ksim_has_much_more_reuse_than_go() {
        let r = quick_runner();
        let m88k = r.run(&by_name("m88ksim").unwrap(), &spec("drvp_all")).unwrap();
        let go = r.run(&by_name("go").unwrap(), &spec("drvp_all")).unwrap();
        assert!(
            m88k.stats.coverage() > 2.0 * go.stats.coverage(),
            "m88k {:.3} vs go {:.3}",
            m88k.stats.coverage(),
            go.stats.coverage()
        );
    }

    #[test]
    fn drvp_accuracy_is_high() {
        let r = quick_runner();
        for name in ["m88ksim", "hydro2d"] {
            let res = r.run(&by_name(name).unwrap(), &spec("drvp_all")).unwrap();
            assert!(res.stats.accuracy() > 0.9, "{name}: accuracy {:.3}", res.stats.accuracy());
        }
    }

    #[test]
    fn dead_lv_assistance_increases_coverage() {
        let r = quick_runner();
        let wl = by_name("hydro2d").unwrap();
        let plain = r.run(&wl, &spec("drvp_all")).unwrap();
        let assisted = r.run(&wl, &spec("drvp_all_dead_lv")).unwrap();
        assert!(
            assisted.stats.coverage() >= plain.stats.coverage(),
            "assisted {:.3} < plain {:.3}",
            assisted.stats.coverage(),
            plain.stats.coverage()
        );
    }

    #[test]
    fn gabbay_has_lower_coverage_than_drvp() {
        // The paper's key comparison: register-indexed counters suffer
        // destructive interference that PC-indexed counters avoid.
        let r = quick_runner();
        let wl = by_name("m88ksim").unwrap();
        let drvp = r.run(&wl, &spec("drvp_all")).unwrap();
        let grp = r.run(&wl, &spec("Grp_all")).unwrap();
        assert!(
            grp.stats.coverage() < drvp.stats.coverage(),
            "Grp {:.3} !< dRVP {:.3}",
            grp.stats.coverage(),
            drvp.stats.coverage()
        );
    }

    #[test]
    fn prediction_never_changes_committed_count() {
        let r = quick_runner();
        let wl = by_name("ijpeg").unwrap();
        let base = r.run(&wl, &spec("no_predict")).unwrap();
        for scheme in [&spec("lvp"), &spec("drvp_all"), &spec("srvp_dead")] {
            let res = r.run(&wl, scheme).unwrap();
            assert_eq!(res.stats.committed, base.stats.committed, "{scheme:?}");
        }
    }

    #[test]
    fn fig1_fractions_are_monotone() {
        let r = quick_runner();
        for name in ["li", "mgrid"] {
            let row = r.fig1(&by_name(name).unwrap()).unwrap();
            let [same, dead, any, lvp] = row.fractions();
            assert!(same <= dead + 1e-12, "{name}");
            assert!(dead <= any + 1e-12, "{name}");
            assert!(any <= lvp + 1e-12, "{name}");
            assert!(lvp <= 1.0);
        }
    }

    #[test]
    fn train_profiles_are_memoized_per_workload() {
        let r = quick_runner();
        let wl = by_name("li").unwrap();
        r.run(&wl, &spec("drvp_all")).unwrap();
        r.run(&wl, &spec("srvp_dead")).unwrap();
        assert_eq!(r.profiles.len(), 1, "two runs must share one train profile");
    }

    #[test]
    fn trace_replay_run_matches_live_run() {
        let dir =
            std::env::temp_dir().join(format!("rvp-runner-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("li").unwrap();
        let scheme = &spec("drvp_all_dead_lv");

        let live = Runner { traces: None, source_mode: SourceMode::Live, ..quick_runner() };
        let want = live.run(&wl, scheme).unwrap();

        // First traced runner captures train (profile) and ref
        // (measurement) traces, then replays them.
        let traced = Runner { traces: Some(store.clone()), ..quick_runner() };
        let replayed = traced.run(&wl, scheme).unwrap();
        assert_eq!(want.stats, replayed.stats);
        assert_eq!(store.counters().captures(), 2);

        // A fresh runner (empty profile and trace caches) hits the
        // on-disk traces.
        let warm = Runner { traces: Some(store.clone()), ..quick_runner() };
        let from_disk = warm.run(&wl, scheme).unwrap();
        assert_eq!(want.stats, from_disk.stats);
        assert!(store.counters().hits() >= 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_source_modes_agree_and_are_counted() {
        let dir =
            std::env::temp_dir().join(format!("rvp-runner-source-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("m88ksim").unwrap();

        let run_mode = |mode: SourceMode| {
            let r = Runner { traces: Some(store.clone()), source_mode: mode, ..quick_runner() };
            r.prewarm_trace(&wl).unwrap();
            let a = r.run(&wl, &spec("drvp_all")).unwrap();
            let b = r.run(&wl, &spec("no_predict")).unwrap();
            let fallback = r.run(&wl, &spec("drvp_all_realloc")).unwrap();
            (a.stats, b.stats, fallback.stats, r.source_counters.total())
        };

        let (la, lb, lf, lt) = run_mode(SourceMode::Live);
        let (ra, rb, rf, rt) = run_mode(SourceMode::Replay);
        let (sa, sb, sf, st) = run_mode(SourceMode::Shared);
        assert_eq!(la, ra);
        assert_eq!(la, sa);
        assert_eq!(lb, rb);
        assert_eq!(lb, sb);
        assert_eq!(lf, rf);
        assert_eq!(lf, sf);

        // Live mode counts nothing; trace-backed modes each capture one
        // trace at prewarm (replay to disk, shared into memory — served
        // from the disk file replay already wrote), serve two runs from
        // it, and fall back to live for the reallocated cell.
        assert_eq!(lt, SourceTally::default());
        assert_eq!(rt, SourceTally { captures: 1, shared_hits: 2, live_fallbacks: 1 });
        assert_eq!(st, SourceTally { captures: 1, shared_hits: 2, live_fallbacks: 1 });

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Paper-scale methodology gate: for every paper scheme, sampled
    /// measurement must land within 2% relative IPC error of the full
    /// detailed run on multiple workloads.
    #[test]
    fn sampled_ipc_tracks_full_ipc_for_all_paper_schemes() {
        let full = quick_runner();
        let sampled = Runner {
            sampling: Some(SampleSpec {
                interval_insts: 20_000,
                max_k: 4,
                ..SampleSpec::default()
            }),
            ..quick_runner()
        };
        for name in ["m88ksim", "ijpeg"] {
            let wl = by_name(name).unwrap();
            for scheme in crate::schemes::paper_schemes() {
                let want = full.run(&wl, &scheme).unwrap();
                let got = sampled.run(&wl, &scheme).unwrap();
                let plan = got.sampling.as_ref().expect("sampled cell must carry its plan");
                assert!(
                    plan.sampled_insts() < full.measure_insts,
                    "{name}/{}: plan simulates the whole run in detail",
                    scheme.label()
                );
                assert_eq!(got.stats.committed, want.stats.committed);
                let err = (got.stats.ipc() - want.stats.ipc()).abs() / want.stats.ipc();
                assert!(
                    err <= 0.02,
                    "{name}/{}: sampled IPC {:.4} vs full {:.4} ({:.2}% error)",
                    scheme.label(),
                    got.stats.ipc(),
                    want.stats.ipc(),
                    100.0 * err
                );
            }
        }
    }

    /// Sampled cells reconstruct a CPI stack that still sums to the
    /// cycle count, and the plan/window memos are shared across scheme
    /// cells of a workload — static marking included, since it leaves
    /// the committed stream as it is.
    #[test]
    fn sampled_cells_share_one_plan_per_workload() {
        let r = Runner {
            sampling: Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() }),
            ..quick_runner()
        };
        let wl = by_name("li").unwrap();
        let a = r.run(&wl, &spec("no_predict")).unwrap();
        let b = r.run(&wl, &spec("drvp_all")).unwrap();
        let same = r.run(&wl, &spec("srvp_same")).unwrap();
        let dead = r.run(&wl, &spec("srvp_dead")).unwrap();
        assert_eq!(a.sampling, b.sampling, "scheme cells must share the workload's plan");
        for marked in [&same, &dead] {
            assert_eq!(
                a.sampling, marked.sampling,
                "{}: marking must reuse the plan",
                marked.scheme
            );
        }
        assert_eq!(r.samples.plans_len(), 1);
        assert_eq!(r.samples.windows_len(), 1);
        for res in [&a, &b, &same, &dead] {
            let s = &res.stats;
            let stack = s.cpi.base
                + s.cpi.reissue
                + s.cpi.dcache
                + s.cpi.queue_full
                + s.cpi.value_refetch
                + s.cpi.branch_mispredict
                + s.cpi.icache
                + s.cpi.fetch_stall;
            assert_eq!(s.cycles, stack, "combined CPI stack must sum to cycles");
        }
        // The reallocated variant transforms the program, so it gets
        // its own plan under a distinct content key.
        r.run(&wl, &spec("drvp_all_realloc")).unwrap();
        assert_eq!(r.samples.plans_len(), 2);
        assert_eq!(r.samples.windows_len(), 2);
    }

    /// A sampled runner's prewarm builds the plan and windows its cells
    /// read and captures no committed trace; a cell run afterwards is
    /// the same as on a cold runner.
    #[test]
    fn sampled_prewarm_builds_the_plan_instead_of_a_trace() {
        let sampled = || Runner {
            sampling: Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() }),
            traces: None,
            ..quick_runner()
        };
        let wl = by_name("m88ksim").unwrap();
        let warm = sampled();
        warm.prewarm_trace(&wl).unwrap();
        assert!(warm.shared_traces.is_empty(), "sampled prewarm must capture no trace");
        assert_eq!(warm.source_counters.total().captures, 0);
        assert_eq!(warm.samples.plans_len(), 1);
        assert_eq!(warm.samples.windows_len(), 1);

        for scheme in [spec("no_predict"), spec("srvp_dead")] {
            let got = warm.run(&wl, &scheme).unwrap();
            let want = sampled().run(&wl, &scheme).unwrap();
            assert_eq!(got.stats, want.stats, "{}", scheme.label());
            assert_eq!(got.sampling, want.sampling, "{}", scheme.label());
        }
        assert_eq!(warm.samples.plans_len(), 1, "cells must read the prewarmed plan");
        assert!(warm.shared_traces.is_empty());
    }

    /// The sampling plan is persisted content-addressed next to the
    /// trace store and reloaded by a fresh runner; a corrupt file is
    /// rebuilt, not trusted.
    #[test]
    fn sample_plan_is_cached_on_disk_and_reloaded() {
        let dir = std::env::temp_dir().join(format!("rvp-runner-plan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("li").unwrap();
        let sampled = || Runner {
            traces: Some(store.clone()),
            sampling: Some(SampleSpec { interval_insts: 20_000, ..SampleSpec::default() }),
            ..quick_runner()
        };

        let first = sampled().run(&wl, &spec("no_predict")).unwrap();
        let plans: Vec<_> = std::fs::read_dir(dir.join("plans"))
            .expect("plan dir exists after a sampled run")
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(plans.len(), 1, "one content-addressed plan file");

        // A fresh runner (cold in-memory caches) must load the same
        // plan from disk.
        let reloaded = sampled().run(&wl, &spec("no_predict")).unwrap();
        assert_eq!(first.sampling, reloaded.sampling);
        assert_eq!(first.stats, reloaded.stats);

        // Corruption is detected (plans are parsed, not trusted) and
        // the plan is rebuilt to the same content.
        std::fs::write(&plans[0], b"{ not a plan").unwrap();
        let rebuilt = sampled().run(&wl, &spec("no_predict")).unwrap();
        assert_eq!(first.sampling, rebuilt.sampling);
        assert_eq!(first.stats, rebuilt.stats);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sampled and scaled grids must never share a fingerprint with
    /// detailed seed-era grids (resume and the serve result cache key
    /// on it) — while an inactive sampling/scale config leaves the
    /// seed-era fingerprint untouched.
    #[test]
    fn sampled_and_scaled_cells_fingerprint_distinctly() {
        let wls = vec![by_name("li").unwrap()];
        let schemes = vec![spec("no_predict")];
        let base = quick_runner();
        let sampled = Runner { sampling: Some(SampleSpec::default()), ..quick_runner() };
        let scaled = Runner { workload_scale: 8, ..quick_runner() };
        let both =
            Runner { sampling: Some(SampleSpec::default()), workload_scale: 8, ..quick_runner() };
        let f = |r: &Runner| grid_config_fnv(&wls, &schemes, r);
        let fps = [f(&base), f(&sampled), f(&scaled), f(&both)];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
        // Different sampling knobs → different fingerprints too.
        let other_spec = Runner {
            sampling: Some(SampleSpec { max_k: 3, ..SampleSpec::default() }),
            ..quick_runner()
        };
        assert_ne!(f(&sampled), f(&other_spec));
    }

    /// The columnar (SoA) trace view must be bit-identical, record for
    /// record, with the AoS `Committed` streams all three source modes
    /// are built on — the structure-of-arrays split is a layout change,
    /// never a value change.
    #[test]
    fn source_equivalence_soa_view_matches_aos_records() {
        use rvp_uarch::EmuSource;

        let dir = std::env::temp_dir().join(format!("rvp-runner-soa-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let wl = by_name("li").unwrap();
        let budget = 50_000u64;
        let program = wl.program(Input::Ref);

        // AoS reference stream straight from the live emulator source.
        let mut live = EmuSource::new(&program);
        let mut live_records: Vec<Committed> = Vec::new();
        while (live_records.len() as u64) < budget {
            match live.next_record().unwrap() {
                Some(rec) => live_records.push(rec),
                None => break,
            }
        }

        // AoS stream decoded back from the on-disk trace container.
        let meta = TraceMeta::for_program(wl.name(), TraceInput::Ref, budget, &program);
        store.capture(&program, &meta).unwrap();
        let replay_records: Vec<Committed> =
            store.open(&meta).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(live_records, replay_records);

        // The SoA view the shared source serves: identical records, and
        // the hot PC column agrees with the assembled record at every
        // index (the fetch stage trusts `peek_pc` alone).
        let columns = SharedSource::capture(&program, budget).unwrap();
        assert_eq!(columns.len(), live_records.len());
        let soa_records: Vec<Committed> = columns.records().collect();
        assert_eq!(soa_records, live_records);

        let mut shared = SharedSource::new(columns.clone());
        for want in &live_records {
            assert_eq!(shared.peek_pc().unwrap(), Some(want.pc));
            assert_eq!(shared.next_record().unwrap().as_ref(), Some(want));
        }
        assert_eq!(shared.next_record().unwrap(), None);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
