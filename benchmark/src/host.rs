//! What the harness asks of the host: peak memory, a fingerprint to print
//! with every run, and scratch directories inside the checkout.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

/// The benchmark's own directory, fixed at build time: the binary is built
/// in the checkout it measures.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where span files and temporary inputs go (`benchmark/out/`, ignored).
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// `VmHWM` (peak resident set) in kB out of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim();
    rest.strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Reset the peak-RSS mark to the current resident set, so that the next
/// `peak_rss_mb` reads the peak since now. False where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The width of the multi-threaded workloads: `min(nproc, 4)`.
pub fn host_threads() -> usize {
    nproc().min(4)
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(benchmark_dir())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// One line naming the host and the code: results from different
/// fingerprints are not comparable.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // A driver checkout is not a git repository; say so rather than fail.
    let git = command_line("git", &["describe", "--always", "--dirty"])
        .unwrap_or_else(|| "not a git checkout".into());
    format!(
        "host: nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\" git=\"{git}\"",
        nproc()
    )
}

/// A directory under `benchmark/out/` that is removed when the guard drops,
/// on success, error return and panic alike.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = out_dir().join(format!(
            "tmp-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_proc_format() {
        let status = "Name:\tpi2m\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let path = {
            let t = TempDir::new("test").unwrap();
            std::fs::write(t.path().join("x.pim"), b"x").unwrap();
            t.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
