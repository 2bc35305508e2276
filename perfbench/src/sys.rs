//! Host facts and process-level measurements: CPU time, peak memory,
//! the hermetic environment, a seeded generator and the provenance block.

use std::path::Path;
use std::process::Command;

use rvp_json::Json;

/// Removes every inherited `RVP_*` variable. `Runner::default()` and
/// the failpoint and log layers read them (`RVP_TRACE_DIR`,
/// `RVP_MEASURE_INSTS`, `RVP_PROFILE_INSTS`, `RVP_SOURCE`,
/// `RVP_THREADS`, `RVP_FAIL`, `RVP_SHARED_TRACE_BUDGET_MB`, ...), so a
/// stray one would silently change what is measured. Called first in
/// `main`, before any thread exists.
pub fn clear_rvp_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("RVP_"))
        .collect();
    for k in keys {
        std::env::remove_var(k);
    }
}

/// The `[profile.release]` tables of a Cargo manifest (the table and
/// any `[profile.release.*]` sub-table), one setting per line in file
/// order, with comments and white space dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut inside = false;
    let mut lines = Vec::new();
    for line in manifest.lines() {
        let line: String = line.split('#').next().unwrap_or("").split_whitespace().collect();
        if line.starts_with('[') {
            inside = line == "[profile.release]" || line.starts_with("[profile.release.");
        }
        if inside && !line.is_empty() {
            lines.push(line);
        }
    }
    lines
}

/// The benchmark is a workspace of its own, so Cargo builds it with its
/// own `[profile.release]`, not the repository's. Fails when the two
/// differ: the benchmark would then measure a build that `rvp-grid` and
/// `rvp-serve` users do not run, and a change to the repository's
/// profile would neither show a gain nor catch a loss.
pub fn check_release_profile(root_manifest: &Path) -> Result<(), String> {
    let root = std::fs::read_to_string(root_manifest)
        .map_err(|e| format!("{}: {e}", root_manifest.display()))?;
    if release_profile(&root) == release_profile(include_str!("../Cargo.toml")) {
        Ok(())
    } else {
        Err(format!(
            "the [profile.release] of perfbench/Cargo.toml differs from that of {}; \
             copy it over so the benchmark builds the program as its users do",
            root_manifest.display()
        ))
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a Linux constant;
    // clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `cpu_set_t` (1024 CPUs), as `sched_getaffinity` and
/// `sched_setaffinity` take it.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and every thread it starts while this is
/// held, on the lowest CPU it may run on; the thread's own CPUs come
/// back on drop (threads started meanwhile stay on the one CPU).
pub struct OneCpu(CpuSet);

impl OneCpu {
    pub fn pin() -> Result<OneCpu, String> {
        let size = std::mem::size_of::<CpuSet>();
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a writable buffer of `size` bytes, laid out
        // as the kernel's `cpu_set_t`; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut all) } != 0 {
            return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
        }
        let word = all.iter().position(|&w| w != 0).ok_or("sched_getaffinity: no CPU")?;
        let mut one: CpuSet = [0; 16];
        one[word] = all[word] & all[word].wrapping_neg();
        // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes.
        if unsafe { sched_setaffinity(0, size, &one) } != 0 {
            return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
        }
        Ok(OneCpu(all))
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`; the set is the one the kernel returned.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.0) };
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulation threads and client connections the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: every seeded choice the benchmark makes comes from here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over every source and manifest file under `crates/` (sorted
/// by path): identifies the code measured even where the checkout is
/// not a git repository.
fn source_fnv(root: &Path) -> Option<String> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    Some(format!("{:016x}", rvp_core::fnv1a(&bytes)))
}

/// Where and how a result was produced, so two results that are not
/// comparable (other code, host, build or mode) can be told apart.
pub fn provenance(workload: &str, seed: u64, traced: bool, size: &str) -> Json {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev.as_ref().and_then(|_| git(&["status", "--porcelain", "--", "crates"]));
    let root = std::env::current_dir().unwrap_or_default();
    Json::obj([
        ("git_rev", rev.map_or(Json::Null, Json::from)),
        ("git_dirty", dirty.map_or(Json::Null, |s| Json::from(!s.is_empty()))),
        ("source_fnv", source_fnv(&root).map_or(Json::Null, Json::from)),
        ("cpu_model", cpu_model().into()),
        ("nproc", nproc().into()),
        ("build_profile", if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("traced", traced.into()),
        ("size", size.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_keeps_settings_and_drops_comments() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = true\n\
                        lto  = \"thin\" # inline\n[profile.release.package.a]\nopt-level = 3\n\
                        [profile.bench]\nlto = false\n";
        assert_eq!(
            release_profile(manifest),
            [
                "[profile.release]",
                "debug=true",
                "lto=\"thin\"",
                "[profile.release.package.a]",
                "opt-level=3"
            ]
        );
    }

    #[test]
    fn release_profile_matches_the_repository_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        check_release_profile(&root).unwrap();
    }
}
