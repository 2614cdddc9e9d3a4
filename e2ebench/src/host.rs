//! Process accounting and the host/build fingerprint, from `/proc` and
//! the source tree with the standard library only.

use std::path::Path;

/// CPU time and page-fault counters of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which is
/// 100 on every mainstream architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

impl ProcStat {
    /// Reads utime, stime and minflt from `/proc/self/stat` (all zero
    /// where `/proc` is unavailable).
    pub fn read() -> ProcStat {
        let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // The command name is parenthesised and may contain spaces;
        // fields are counted from the state letter after it (field 3).
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| -> u64 { fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0) };
        ProcStat {
            minor_faults: field(7),
            user_s: field(11) as f64 / CLOCK_TICKS_PER_S,
            sys_s: field(12) as f64 / CLOCK_TICKS_PER_S,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, the digest used for every output fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn f32s(&mut self, values: &[f32]) -> &mut Self {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Where and on what the numbers were measured, printed with every
/// result so runs from different hosts are never compared silently.
pub fn fingerprint_json(repo: &Path, pool_width: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"host\": {{\"cpu\": {}, \"nproc\": {nproc}, \"pool_width\": {pool_width}, \"simd\": \"{}\"}}, \
         \"build\": {{\"commit\": {}, \"source_digest\": \"{}\"}}}}",
        json_str(&cpu),
        oasis_tensor::simd::resolved().label(),
        json_str(&git_commit(repo).unwrap_or_else(|| "none".into())),
        source_digest(repo),
    )
}

/// Minimal JSON string literal (quotes, backslashes and control
/// characters escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an export that has no `.git` at all).
fn git_commit(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Digest of the sources the benchmark builds (workspace manifests,
/// the lock file, every crate and the benchmark itself), so an export
/// without `.git` still identifies its code.
fn source_digest(repo: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "e2ebench/src",
    ] {
        collect_files(&repo.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.bytes(
                f.strip_prefix(repo)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.bytes(&bytes);
        }
    }
    h.hex()
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            let p = entry.path();
            let is_source = p.is_dir()
                || p.extension()
                    .is_some_and(|e| e == "rs" || e == "toml" || e == "json");
            if is_source {
                collect_files(&p, out);
            }
        }
    }
}
