//! Host provenance recorded with every result: what ran, on what, built
//! how.

use std::path::Path;

/// Target features the build was compiled with (it uses
/// `-C target-cpu=native`, so these describe the build host's CPU).
pub fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($feat:tt),*) => {
            $(if cfg!(target_feature = $feat) {
                f.push($feat);
            })*
        };
    }
    probe!(
        "sse2", "ssse3", "sse4.1", "sse4.2", "avx", "avx2", "fma", "bmi1", "bmi2", "aes", "sha",
        "avx512f", "avx512bw", "avx512vl", "neon"
    );
    f
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// Peak resident set size (`VmHWM`) of this process, MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
