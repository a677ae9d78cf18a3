//! Where and on what a result was measured: read at run time, never baked in.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own directory (`benchmark/` of the checkout it was
/// built in): golden files are read from it and `out/` is written under it.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on first use.
///
/// # Errors
///
/// Propagates the directory-creation failure.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The code path `pheig_linalg::kernels::with_simd` dispatches to on this
/// host (same feature tests, same order).
pub fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx512f") && has!("avx512dq") && has!("avx512vl") {
            return "avx512";
        }
        if has!("avx2") && has!("fma") {
            return "avx2-fma";
        }
    }
    "baseline"
}

/// Extracts the `VmHWM` line (peak resident set, kB) of a
/// `/proc/<pid>/status` text as MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// First `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host block stamped into every result file.
pub fn host_block() -> Value {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(unknown);
    let rustc = command_line("rustc", &["--version"], bench_dir()).unwrap_or_else(unknown);
    // The driver's checkout is not a git repository: the revision is then
    // honestly unknown instead of a stale stamp.
    let rev =
        command_line("git", &["rev-parse", "--short", "HEAD"], bench_dir()).unwrap_or_else(unknown);
    let dirty = command_line("git", &["status", "--porcelain"], bench_dir()).is_some();
    Value::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu)
        .with("rustc", rustc)
        .with("git_rev", rev)
        .with("git_dirty", dirty)
        .with("simd_tier", simd_tier())
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_kb_to_mib() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("VmHWM: 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmRSS: 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM: lots kB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info =
            "processor\t: 0\nmodel name\t: Fast CPU @ 2GHz\nprocessor\t: 1\nmodel name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Fast CPU @ 2GHz"));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }
}
