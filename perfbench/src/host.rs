//! What a result was measured on: the host fingerprint printed with
//! every run, and the process's peak resident memory.

use std::path::Path;

/// Host and build facts that make a timing readable elsewhere.
pub struct Host {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// CPU brand string.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the measured tree (`unknown` outside a git checkout).
    pub commit: String,
}

impl Host {
    /// Probe the host. Reads only CPUID, the build's compiler version
    /// and `.git` under the working directory.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_brand().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> Option<String> {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86-64 processor, and the extended
    // brand leaves are only read after leaf 0x8000_0000 reports them.
    #[allow(unused_unsafe)]
    let words = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return None;
        }
        [0x8000_0002u32, 0x8000_0003, 0x8000_0004].map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
    };
    let bytes: Vec<u8> = words.iter().flatten().flat_map(|w| w.to_le_bytes()).collect();
    let brand = String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string();
    (!brand.is_empty()).then_some(brand)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> Option<String> {
    None
}

/// The commit `HEAD` names, read from the git directory without running
/// git.
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Peak resident set size of this process so far, in MiB: `VmHWM` of
/// `/proc/self/status` (`NaN` where that file does not exist). Unlike
/// `getrusage`'s `ru_maxrss`, it restarts at `exec`, so the memory of a
/// launcher such as `cargo run` does not leak into the figure.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let before = peak_rss_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= before.max(64.0), "{before} -> {}", peak_rss_mb());
    }
}
