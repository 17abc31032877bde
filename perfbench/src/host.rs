//! The host fingerprint recorded with every result. Results are only
//! comparable when the host part (`nproc`, CPU model, rustc) matches.

use std::path::Path;
use std::process::Command;

/// Where a result was measured, and on which source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_sha: String,
    /// FNV-1a over the workspace sources, which names the code even where
    /// there is no git metadata.
    pub src_digest: String,
}

/// Keys of the host part: results differing in any of them are refused.
pub const HOST_KEYS: [&str; 3] = ["host.nproc", "host.cpu", "host.rustc"];

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

fn fnv_tree(root: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            fnv_tree(&path, hash);
        } else if let Ok(bytes) = std::fs::read(&path) {
            let name = path.to_string_lossy();
            for b in name.bytes().chain(bytes) {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

impl Fingerprint {
    /// Measures the fingerprint; `repo` is the repository root.
    #[must_use]
    pub fn of(repo: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        fnv_tree(&repo.join("crates"), &mut hash);
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: command_line("rustc", &["--version"], repo).unwrap_or_else(|| "unknown".into()),
            git_sha: command_line("git", &["rev-parse", "HEAD"], repo)
                .unwrap_or_else(|| "none".into()),
            src_digest: format!("{hash:016x}"),
        }
    }

    /// `(key, value)` pairs as recorded.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("host.nproc", self.nproc.to_string()),
            ("host.cpu", self.cpu.clone()),
            ("host.rustc", self.rustc.clone()),
            ("git_sha", self.git_sha.clone()),
            ("src_digest", self.src_digest.clone()),
        ]
    }
}
