//! Integration tests spanning every crate: workloads -> emulator ->
//! profiler -> reallocation -> timing simulation.

use rvp_core::{
    reallocate, Emulator, Input, Profile, ProfileConfig, ReallocOptions, Runner, SchemeSpec,
    SrvpLevel,
};

fn quick_runner() -> Runner {
    Runner { profile_insts: 200_000, measure_insts: 100_000, ..Runner::default() }
}

/// The committed-instruction count is an architectural property: no
/// prediction scheme or recovery model may change it.
#[test]
fn schemes_never_change_architectural_behaviour() {
    let r = quick_runner();
    for name in ["li", "mgrid"] {
        let wl = rvp_core::by_name(name).unwrap();
        let base = r.run(&wl, &SchemeSpec::parse("no_predict").unwrap()).unwrap();
        for label in [
            "lvp",
            "lvp_all",
            "srvp_dead",
            "drvp_all",
            "drvp_all_dead_lv",
            "Grp_all",
            "drvp_all_realloc",
        ] {
            let res = r.run(&wl, &SchemeSpec::parse(label).unwrap()).unwrap();
            assert_eq!(
                res.stats.committed, base.stats.committed,
                "{name}/{label} changed the committed count"
            );
        }
    }
}

/// Store-stream equivalence: register reallocation may change register
/// names only — every memory write must be identical.
#[test]
fn reallocation_preserves_the_store_stream() {
    for wl in rvp_core::all_workloads() {
        let program = wl.program(Input::Train);
        let profile =
            Profile::collect(&program, &ProfileConfig { max_insts: 150_000, min_execs: 32 })
                .unwrap();
        let transformed = reallocate(&program, &profile, &ReallocOptions::default()).program;

        let stores = |p: &rvp_core::Program| -> Vec<(u64, u64)> {
            let mut emu = Emulator::new(p);
            let mut out = Vec::new();
            let mut n = 0u64;
            while let Some(c) = emu.step().unwrap() {
                if let Some(addr) = c.eff_addr {
                    if p.insts()[c.pc].is_store() {
                        out.push((addr, emu.memory().read_u64(addr & !7)));
                    }
                }
                n += 1;
                if n > 400_000 {
                    break;
                }
            }
            out
        };
        assert_eq!(
            stores(&program),
            stores(&transformed),
            "{}: reallocation changed a store",
            wl.name()
        );
    }
}

/// Figure 1's categories are cumulative by construction; verify on every
/// workload.
#[test]
fn fig1_categories_are_cumulative_everywhere() {
    let r = quick_runner();
    for wl in rvp_core::all_workloads() {
        let row = r.fig1(&wl).unwrap();
        let [same, dead, any, lvp] = row.fractions();
        assert!(same <= dead && dead <= any && any <= lvp && lvp <= 1.0, "{}", wl.name());
        assert!(row.loads > 1_000, "{} barely loads", wl.name());
    }
}

/// The paper's headline orderings, averaged over the suite.
#[test]
fn paper_shapes_hold_on_average() {
    let r = quick_runner();
    let speedup = |label: &str| -> (f64, f64) {
        let scheme = SchemeSpec::parse(label).unwrap();
        let base_scheme = SchemeSpec::parse("no_predict").unwrap();
        let mut ipcs = Vec::new();
        let mut covs = Vec::new();
        for wl in rvp_core::all_workloads() {
            let base = r.run(&wl, &base_scheme).unwrap();
            let res = r.run(&wl, &scheme).unwrap();
            ipcs.push(res.stats.ipc() / base.stats.ipc());
            covs.push(res.stats.coverage());
        }
        (ipcs.iter().sum::<f64>() / ipcs.len() as f64, covs.iter().sum::<f64>() / covs.len() as f64)
    };
    let (drvp, drvp_cov) = speedup("drvp_all");
    let (dead_lv, dead_lv_cov) = speedup("drvp_all_dead_lv");
    let (grp, grp_cov) = speedup("Grp_all");

    // Dynamic RVP gains a few percent on average.
    assert!(drvp > 1.02, "drvp_all average speedup {drvp:.4}");
    // Compiler assistance adds coverage and performance.
    assert!(dead_lv_cov > drvp_cov, "{dead_lv_cov:.3} !> {drvp_cov:.3}");
    assert!(dead_lv >= drvp - 1e-9, "{dead_lv:.4} !>= {drvp:.4}");
    // The Gabbay register predictor trails PC-indexed dRVP in coverage.
    assert!(grp_cov < drvp_cov, "G&M coverage {grp_cov:.3} !< {drvp_cov:.3}");
    assert!(grp <= dead_lv + 1e-9);
}

/// Static marking writes `rvp_` opcodes into the program text.
#[test]
fn static_marking_is_visible_in_the_disassembly() {
    let wl = rvp_core::by_name("m88ksim").unwrap();
    let train = wl.program(Input::Train);
    let profile =
        Profile::collect(&train, &ProfileConfig { max_insts: 150_000, min_execs: 32 }).unwrap();
    let plan = profile.static_plan(&train, 0.8, rvp_core::SrvpLevel::Dead);
    assert!(!plan.is_empty(), "m88ksim must have static candidates");
    let marked =
        train.map_insts(|pc, i| if plan.contains(pc) { i.clone().with_rvp() } else { i.clone() });
    assert!(marked.disassemble().contains("rvp_ld"));
}

/// Static marking leaves the committed stream as it is: at every static
/// RVP level, the marked ref program commits the same records as the
/// unmarked one. Sampled cells rest on this — a marked cell reads the
/// sampling plan and windows of the unmarked program.
#[test]
fn static_marking_leaves_the_committed_stream_unchanged() {
    const RECORDS: usize = 200_000;
    let runner = quick_runner();
    let stream = |program: &rvp_core::Program| {
        let mut emu = Emulator::new(program);
        let mut records = Vec::with_capacity(RECORDS);
        while records.len() < RECORDS {
            match emu.step().unwrap() {
                Some(rec) => records.push(rec),
                None => break,
            }
        }
        records
    };
    for name in ["m88ksim", "li"] {
        let wl = rvp_core::by_name(name).unwrap();
        let train = runner.program_for(&wl, Input::Train);
        let base = runner.program_for(&wl, Input::Ref);
        let profile = runner.train_profile(&wl).unwrap();
        let want = stream(&base);
        assert_eq!(want.len(), RECORDS, "{name}: ref run ends early");
        // A level may mark nothing (m88ksim has no same-register
        // candidates); every workload must mark something at some level.
        let mut marked_loads = 0;
        for level in [SrvpLevel::Same, SrvpLevel::Dead, SrvpLevel::Live, SrvpLevel::LiveLv] {
            let plan = profile.static_plan(&train, runner.threshold, level);
            marked_loads += plan.len();
            let marked =
                base.map_insts(
                    |pc, i| if plan.contains(pc) { i.clone().with_rvp() } else { i.clone() },
                );
            assert!(stream(&marked) == want, "{name}/{level:?}: marking changed the stream");
        }
        assert!(marked_loads > 0, "{name}: no level marks a load");
    }
}

/// The 16-wide machine amplifies value prediction (Figure 8's point).
#[test]
fn wide_machine_amplifies_rvp() {
    let narrow = quick_runner();
    let wide = Runner {
        config: rvp_core::UarchConfig::wide16(),
        profile_insts: 200_000,
        measure_insts: 100_000,
        ..Runner::default()
    };
    let wl = rvp_core::by_name("m88ksim").unwrap();
    let gain = |r: &Runner| {
        let base = r.run(&wl, &SchemeSpec::parse("no_predict").unwrap()).unwrap();
        let rvp = r.run(&wl, &SchemeSpec::parse("drvp_all_dead_lv").unwrap()).unwrap();
        rvp.stats.ipc() / base.stats.ipc()
    };
    let g_narrow = gain(&narrow);
    let g_wide = gain(&wide);
    assert!(g_wide > g_narrow, "wide gain {g_wide:.4} !> narrow gain {g_narrow:.4}");
}

/// Every workload round-trips through the textual assembler: parse(to_asm)
/// reproduces the instructions, data, procedures and entry point exactly.
#[test]
fn workloads_round_trip_through_the_assembler() {
    for wl in rvp_core::all_workloads() {
        let p1 = wl.program(Input::Train);
        let text = p1.to_asm();
        let p2 = rvp_core::parse_asm(&text).unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
        assert_eq!(p1.insts(), p2.insts(), "{}", wl.name());
        assert_eq!(p1.data(), p2.data(), "{}", wl.name());
        assert_eq!(p1.entry(), p2.entry(), "{}", wl.name());
        assert_eq!(p1.procedures(), p2.procedures(), "{}", wl.name());
    }
}

/// Profiles transfer across inputs: the train-derived plan must keep its
/// accuracy on ref (the paper's cross-input methodology).
#[test]
fn train_profile_predicts_ref_behaviour() {
    let r = quick_runner();
    for name in ["m88ksim", "hydro2d", "turb3d"] {
        let wl = rvp_core::by_name(name).unwrap();
        let res = r.run(&wl, &SchemeSpec::parse("drvp_all_dead_lv").unwrap()).unwrap();
        assert!(
            res.stats.accuracy() > 0.85,
            "{name}: train-derived plan only {:.1}% accurate on ref",
            100.0 * res.stats.accuracy()
        );
    }
}
