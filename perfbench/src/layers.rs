//! Per-layer probes: direct calls into each crate's public functions,
//! timed by the benchmark, over the committed streams of the workloads
//! the layer serves. Predictors, branch unit and caches are replayed
//! over real committed streams with no pipeline around them (the shape
//! of a CBP-style trace replay).

use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

use rvp_bpred::BranchKind;
use rvp_core::{
    list_value_predictors, new_value_predictor, paper_schemes, reallocate, BbvConfig, BbvProfiler,
    BpredConfig, BranchUnit, Committed, Emulator, Hierarchy, Input, Json, MemConfig, PlanMode,
    PlanScope, PlanSource, Profile, ProfileConfig, Program, ReallocOptions, Recovery, SamplePlan,
    Scheme, SchemeSpec, SharedSource, SimStats, Simulator, TraceInput, TraceMeta, TraceReader,
    TraceWriter, UarchConfig,
};
use rvp_isa::{Flow, NUM_REGS};
use rvp_sample::extract_windows;
use rvp_serve::{JobJournal, ResultCache};
use rvp_vpred::{Decision, Outcome};

use crate::serve::Mix;
use crate::spans;
use crate::stats::median;
use crate::sweep::SweepConfig;
use crate::Metrics;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The first `budget` committed records of `program`.
fn committed(program: &Program, budget: u64) -> Vec<Committed> {
    let mut emu = Emulator::new(program);
    let mut out = Vec::with_capacity(budget as usize);
    while (out.len() as u64) < budget {
        match emu.step().expect("workload emulates") {
            Some(rec) => out.push(rec),
            None => break,
        }
    }
    out
}

/// The program and simulator scheme of one cell, derived exactly as
/// `Runner::run` derives them.
fn build_cell(
    spec: &SchemeSpec,
    profile: &Profile,
    train: &Program,
    program: &Program,
    threshold: f64,
) -> (Program, Scheme) {
    let info = spec.info();
    let mut program = program.clone();
    let mut scheme = match spec.build_predictor() {
        Some(p) => Scheme::new(spec.label().to_owned(), info.scope, p),
        None => Scheme::no_predict(),
    };
    match info.plan {
        PlanSource::NoPlan => {}
        PlanSource::Static(level) => {
            let plan = profile.static_plan(train, threshold, level);
            program = program.map_insts(|pc, inst| {
                if plan.contains(pc) {
                    inst.clone().with_rvp()
                } else {
                    inst.clone()
                }
            });
            scheme = scheme.with_plan(plan, PlanMode::Exhaustive);
        }
        PlanSource::Assist(assist) => {
            let plan = profile.assist_plan(train, threshold, info.scope, assist);
            scheme = scheme.with_plan(plan, PlanMode::Overlay);
        }
        PlanSource::Realloc => {
            let opts = ReallocOptions {
                threshold,
                scope: PlanScope::AllInsts,
                use_dead: true,
                use_lv: true,
            };
            program = reallocate(&program, profile, &opts).program;
        }
    }
    (program, scheme)
}

/// `emu`: functional emulation rate on the sampled sweep's programs.
pub fn emu(sampled: &SweepConfig, m: &mut Metrics) {
    let _span = spans::enter("layer.emu", "");
    let runner = sampled.runner();
    let (mut insts, mut secs) = (0u64, 0.0);
    for wl in &sampled.workloads {
        let program = runner.program_for(wl, Input::Ref);
        let t = Instant::now();
        let run = Emulator::new(&program).run(sampled.measure_insts).expect("workload emulates");
        secs += t.elapsed().as_secs_f64();
        insts += run.committed;
    }
    m.push("emu.minsts_per_s", insts as f64 / secs / 1e6, "Minst/s");
}

/// `profile` and `realloc`: one train-input profile per grid workload
/// at the grid's budget, and the register reallocation it drives.
pub fn profile_and_realloc(grid: &SweepConfig, m: &mut Metrics) {
    let _span = spans::enter("layer.profile", "");
    let runner = grid.runner();
    let cfg = ProfileConfig { max_insts: grid.profile_insts, min_execs: 32 };
    let (mut collect_ms, mut realloc_ms) = (Vec::new(), Vec::new());
    for wl in &grid.workloads {
        let train = runner.program_for(wl, Input::Train);
        let t = Instant::now();
        let profile = Profile::collect(&train, &cfg).expect("workload profiles");
        collect_ms.push(ms_since(t));
        let program = runner.program_for(wl, Input::Ref);
        let opts = ReallocOptions {
            threshold: runner.threshold,
            scope: PlanScope::AllInsts,
            use_dead: true,
            use_lv: true,
        };
        let t = Instant::now();
        std::hint::black_box(reallocate(&program, &profile, &opts));
        realloc_ms.push(ms_since(t));
    }
    m.push("profile.collect_ms", collect_ms.iter().sum::<f64>() / collect_ms.len() as f64, "ms");
    m.push("realloc.ms", realloc_ms.iter().sum::<f64>() / realloc_ms.len() as f64, "ms");
}

/// `trace`: encode and decode of the train streams the serve daemon's
/// trace store captures, in memory.
pub fn trace(mix: &Mix, m: &mut Metrics) {
    let _span = spans::enter("layer.trace", "");
    let runner = mix.runner();
    let (mut recs, mut bytes, mut enc_ns, mut dec_ns) = (0u64, 0u64, 0.0, 0.0);
    for name in &mix.workloads {
        let wl = rvp_core::by_name(name).expect("registered workload");
        let program = runner.program_for(&wl, Input::Train);
        let records = committed(&program, runner.profile_insts);
        let meta =
            TraceMeta::for_program(wl.name(), TraceInput::Train, runner.profile_insts, &program);
        let t = Instant::now();
        let mut sink = Cursor::new(Vec::new());
        let mut writer = TraceWriter::new(&mut sink, &meta).expect("in-memory trace");
        for rec in &records {
            writer.append(rec).expect("in-memory trace");
        }
        let n = writer.finish().expect("in-memory trace");
        enc_ns += ns_since(t);
        let buf = sink.into_inner();
        let t = Instant::now();
        let reader = TraceReader::new(Cursor::new(&buf[..])).expect("trace header decodes");
        let mut decoded = 0u64;
        for rec in reader {
            std::hint::black_box(rec.expect("trace record decodes"));
            decoded += 1;
        }
        dec_ns += ns_since(t);
        assert_eq!(decoded, n, "trace round trip lost records");
        recs += n;
        bytes += buf.len() as u64;
    }
    m.push("trace.encode_ns_per_rec", enc_ns / recs as f64, "ns/rec");
    m.push("trace.decode_ns_per_rec", dec_ns / recs as f64, "ns/rec");
    m.push("trace.bytes_per_rec", bytes as f64 / recs as f64, "B/rec");
}

/// `uarch`: host time per simulated instruction of each paper scheme,
/// over a committed stream captured before the clock starts, on the grid
/// sweep's budgets. Returns each probed cell's label and statistics, so
/// the caller can hold them against the sweep's own cells: the probe
/// builds its cells with a copy of `Runner::run`'s plan derivation, and
/// a copy that drifted would time a cell the program no longer runs.
pub fn uarch_schemes(
    grid: &SweepConfig,
    workloads: &[&str],
    m: &mut Metrics,
) -> Vec<(String, SimStats)> {
    let _span = spans::enter("layer.uarch", "");
    let runner = grid.runner();
    let budget = grid.measure_insts;
    let schemes = paper_schemes();
    let mut ns = vec![0.0; schemes.len()];
    let mut insts = vec![0u64; schemes.len()];
    let mut cells = Vec::new();
    for name in workloads {
        let wl = rvp_core::by_name(name).expect("registered workload");
        let train = runner.program_for(&wl, Input::Train);
        let base = runner.program_for(&wl, Input::Ref);
        let profile = runner.train_profile(&wl).expect("workload profiles");
        let base_trace = SharedSource::capture(&base, budget).expect("capture committed stream");
        for (i, spec) in schemes.iter().enumerate() {
            let (program, scheme) = build_cell(spec, &profile, &train, &base, runner.threshold);
            // Marking loads does not change the committed stream; a
            // reallocated program has a stream of its own (the program
            // emulates it live inside the cell, which this figure leaves
            // out).
            let trace = if spec.info().plan == PlanSource::Realloc {
                SharedSource::capture(&program, budget).expect("capture committed stream")
            } else {
                Arc::clone(&base_trace)
            };
            let mut sim = Simulator::new(runner.config.clone(), scheme, runner.recovery);
            let mut source = SharedSource::new(trace);
            let t = Instant::now();
            let stats = sim.run_with_source(&program, &mut source, budget).expect("cell simulates");
            ns[i] += ns_since(t);
            insts[i] += stats.committed;
            cells.push((format!("{name}/{}", spec.label()), stats));
        }
    }
    for (i, spec) in schemes.iter().enumerate() {
        m.push(format!("uarch.ns_per_inst.{}", spec.label()), ns[i] / insts[i] as f64, "ns/inst");
    }
    cells
}

/// `uarch` capture, `sample` and functional warmup on the sampled
/// sweep's programs: the passes a sampled cell pays outside its detailed
/// windows, done step by step as the runner does them.
pub fn sampling(sampled: &SweepConfig, capture_insts: u64, m: &mut Metrics) {
    let _span = spans::enter("layer.sample", "");
    let runner = sampled.runner();
    let spec = sampled.sampling.unwrap_or_default();
    let (interval, warmup) = spec.resolve(sampled.measure_insts);
    let warm_scheme = SchemeSpec::parse("drvp_all").expect("registered scheme");
    let (mut cap_ns, mut cap_insts) = (0.0, 0u64);
    let (mut bbv_ns, mut bbv_insts) = (0.0, 0u64);
    let (mut k_ms, mut x_ms) = (Vec::new(), Vec::new());
    let (mut sampled_insts, mut total_insts) = (0u64, 0u64);
    let (mut warm_ns, mut warm_insts) = (0.0, 0u64);
    for wl in &sampled.workloads {
        let program = runner.program_for(wl, Input::Ref);

        let t = Instant::now();
        let trace =
            SharedSource::capture(&program, capture_insts).expect("capture committed stream");
        cap_ns += ns_since(t);
        cap_insts += trace.len() as u64;
        drop(trace);

        let t = Instant::now();
        let cfg = BbvConfig { interval_insts: interval, dims: spec.dims, seed: spec.seed };
        let mut bbv = BbvProfiler::new(program.len(), cfg);
        let mut emu = Emulator::new(&program);
        let mut seen = 0u64;
        while seen < sampled.measure_insts {
            match emu.step().expect("workload emulates") {
                Some(rec) => bbv.observe(rec.pc, rec.next_pc),
                None => break,
            }
            seen += 1;
        }
        let profile = bbv.finish();
        bbv_ns += ns_since(t);
        bbv_insts += seen;

        let t = Instant::now();
        let plan = SamplePlan::build(&profile, &spec, warmup);
        k_ms.push(ms_since(t));
        sampled_insts += plan.sampled_insts();
        total_insts += plan.total_insts;

        let t = Instant::now();
        let mut emu = Emulator::new(&program);
        let windows = extract_windows(&plan, std::iter::from_fn(|| emu.step().transpose()))
            .expect("windows extract");
        x_ms.push(ms_since(t));

        let predictor = warm_scheme.build_predictor().expect("drvp_all predicts");
        let scheme =
            Scheme::new(warm_scheme.label().to_owned(), warm_scheme.info().scope, predictor);
        for w in &windows {
            let mut sim =
                Simulator::new(UarchConfig::table1(), scheme.clone(), Recovery::Selective);
            let t = Instant::now();
            std::hint::black_box(sim.functional_warmup(&program, &w.warmup));
            warm_ns += ns_since(t);
            warm_insts += w.warmup.len() as u64;
        }
    }
    m.push("uarch.capture_ns_per_inst", cap_ns / cap_insts as f64, "ns/inst");
    m.push("uarch.warmup_ns_per_inst", warm_ns / warm_insts.max(1) as f64, "ns/inst");
    m.push("sample.bbv_ns_per_inst", bbv_ns / bbv_insts as f64, "ns/inst");
    m.push("sample.choose_k_ms", k_ms.iter().sum::<f64>() / k_ms.len() as f64, "ms");
    m.push("sample.extract_ms", x_ms.iter().sum::<f64>() / x_ms.len() as f64, "ms");
    m.push("sample.detail_share", sampled_insts as f64 / total_insts as f64, "ratio");
}

/// Static facts the replays need per PC.
struct PcInfo {
    branch: Option<BranchKind>,
    load: bool,
    store: bool,
}

fn pc_info(program: &Program) -> Vec<PcInfo> {
    program
        .insts()
        .iter()
        .map(|inst| PcInfo {
            branch: match inst.flow() {
                Flow::FallThrough | Flow::Halt => None,
                Flow::Always(target) if inst.is_call() => Some(BranchKind::Call { target }),
                Flow::Always(target) => Some(BranchKind::UncondDirect { target }),
                Flow::Conditional(target) => Some(BranchKind::CondDirect { target }),
                Flow::Indirect(_) => Some(BranchKind::Indirect),
                Flow::Return => Some(BranchKind::Return),
            },
            load: inst.is_load(),
            store: inst.is_store(),
        })
        .collect()
}

#[derive(Default)]
struct Replay {
    ns: f64,
    ops: u64,
    predicted: u64,
    correct: u64,
}

/// Decide and train one value predictor over a committed stream, the
/// way the pipeline's dispatch and commit points drive it.
fn replay_predictor(spec: &str, records: &[Committed], acc: &mut Replay) {
    let mut p = new_value_predictor(spec).expect("registered predictor");
    let value_training = p.wants_value_training();
    let observes = p.observes_registers();
    let mut shadow = [0u64; NUM_REGS];
    let t = Instant::now();
    for rec in records {
        let Some(dst) = rec.dst else { continue };
        let read = |r: rvp_core::Reg| if r == dst { rec.old_value } else { shadow[r.index()] };
        let (used, candidate) = match p.decide(rec.pc, dst) {
            Decision::Idle => (false, None),
            Decision::Track => (false, Some(rec.old_value)),
            Decision::Predict => (true, Some(rec.old_value)),
            Decision::Value(v) => (true, Some(v)),
            Decision::TrackReg(r) => (false, Some(read(r))),
            Decision::PredictReg(r) => (true, Some(read(r))),
        };
        acc.ops += 1;
        if used {
            acc.predicted += 1;
            acc.correct += u64::from(candidate == Some(rec.new_value));
        }
        if value_training {
            p.train_value(rec.pc, rec.new_value);
        }
        let observed = if !observes {
            None
        } else if rec.old_value == rec.new_value {
            Some(dst)
        } else {
            (0..rvp_isa::NUM_REGS_PER_CLASS)
                .map(|n| rvp_core::Reg::new(dst.class(), n))
                .find(|r| !r.is_zero() && shadow[r.index()] == rec.new_value)
        };
        p.train_outcome(&Outcome {
            pc: rec.pc,
            dst,
            predicted: candidate,
            actual: rec.new_value,
            prior: rec.old_value,
            observed,
        });
        shadow[dst.index()] = rec.new_value;
    }
    acc.ns += ns_since(t);
}

/// `vpred`, `bpred` and `mem`: every registered value predictor, the
/// Table 1 branch unit and the Table 1 cache hierarchy, replayed over
/// each grid workload's committed ref stream.
pub fn replays(grid: &SweepConfig, m: &mut Metrics) {
    let _span = spans::enter("layer.replay", "");
    let runner = grid.runner();
    let predictors: Vec<&str> = list_value_predictors().iter().map(|p| p.name).collect();
    let mut vp: Vec<Replay> = predictors.iter().map(|_| Replay::default()).collect();
    let (mut br_ns, mut branches) = (0.0, 0u64);
    let (mut mem_ns, mut accesses) = (0.0, 0u64);
    let (mut l1d_acc, mut l1d_miss) = (0u64, 0u64);
    let (mut cond, mut cond_miss) = (0u64, 0u64);
    for wl in &grid.workloads {
        let program = runner.program_for(wl, Input::Ref);
        let info = pc_info(&program);
        let records = committed(&program, grid.measure_insts);
        for (name, acc) in predictors.iter().zip(&mut vp) {
            replay_predictor(name, &records, acc);
        }

        let mut unit = BranchUnit::new(BpredConfig::table1());
        let t = Instant::now();
        for rec in &records {
            if let Some(kind) = info[rec.pc].branch {
                unit.update(rec.pc, kind, rec.taken.unwrap_or(true), rec.next_pc);
                branches += 1;
            }
        }
        br_ns += ns_since(t);
        cond += unit.stats().cond_branches;
        cond_miss += unit.stats().cond_mispredicts;

        let mut mem = Hierarchy::new(MemConfig::table1());
        let t = Instant::now();
        for rec in &records {
            if let Some(addr) = rec.eff_addr {
                let pc = &info[rec.pc];
                if pc.load || pc.store {
                    mem.access_data(addr, pc.store);
                    accesses += 1;
                }
            }
        }
        mem_ns += ns_since(t);
        l1d_acc += mem.stats().l1d.accesses;
        l1d_miss += mem.stats().l1d.misses;
    }
    for (name, acc) in predictors.iter().zip(&vp) {
        m.push(format!("vpred.ns_per_op.{name}"), acc.ns / acc.ops as f64, "ns/op");
        m.push(format!("vpred.coverage.{name}"), acc.predicted as f64 / acc.ops as f64, "ratio");
        let accuracy =
            if acc.predicted == 0 { 0.0 } else { acc.correct as f64 / acc.predicted as f64 };
        m.push(format!("vpred.accuracy.{name}"), accuracy, "ratio");
    }
    m.push("bpred.ns_per_branch", br_ns / branches as f64, "ns/branch");
    m.push("bpred.direction_accuracy", 1.0 - cond_miss as f64 / cond.max(1) as f64, "ratio");
    m.push("mem.ns_per_access", mem_ns / accesses as f64, "ns/access");
    m.push("mem.l1d_miss_ratio", l1d_miss as f64 / l1d_acc.max(1) as f64, "ratio");
}

/// `serve` storage: a result-cache read of each hit-set key through a
/// freshly opened cache (the first read per key comes from disk, the
/// rest from memory), and durable job-journal appends.
pub fn serve_storage(
    state_dir: &std::path::Path,
    keys: &[u64],
    scratch: &std::path::Path,
    m: &mut Metrics,
) {
    let _span = spans::enter("layer.serve", "");
    let cache = ResultCache::open(state_dir).expect("open result cache");
    let mut get_us = Vec::new();
    for _ in 0..50 {
        for &key in keys {
            let t = Instant::now();
            let hit = cache.get(key).expect("result cache read");
            get_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert!(hit.is_some(), "hit-set key {key:016x} missing from the result cache");
        }
    }
    m.push("serve.cache_get_us", median(&get_us), "us");

    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("create journal directory");
    let (journal, _) = JobJournal::open(scratch).expect("open job journal");
    let spec = Json::obj([
        ("workloads", Json::arr([Json::from("li")])),
        ("schemes", Json::arr([Json::from("lvp")])),
    ]);
    let mut append_ms = Vec::new();
    for id in 1..=40u64 {
        let t = Instant::now();
        journal.append_job(id, &spec).expect("journal append");
        append_ms.push(ms_since(t));
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(scratch);
    m.push("serve.journal_append_ms", median(&append_ms), "ms");
}
