//! The run envelope: the facts about the host and build that every result
//! depends on, recorded next to the numbers.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Cores granted by the cgroup CPU quota (`cpu.max` on cgroup v2,
/// `cpu.cfs_quota_us / cpu.cfs_period_us` on v1); `None` when unlimited
/// or unreadable.
fn cgroup_cores() -> Option<f64> {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    if let Some(max) = read("/sys/fs/cgroup/cpu.max") {
        let mut it = max.split_whitespace();
        let quota = it.next()?.parse::<f64>().ok()?;
        let period = it.next()?.parse::<f64>().ok()?;
        return (period > 0.0).then(|| quota / period);
    }
    let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?
        .trim()
        .parse::<f64>()
        .ok()?;
    let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?
        .trim()
        .parse::<f64>()
        .ok()?;
    (quota > 0.0 && period > 0.0).then(|| quota / period)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the working directory. Git may not search above the
/// working directory, so a checkout that is not a repository reports
/// `"unknown"` instead of some enclosing repository's commit.
fn git_head() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

/// Filesystem type of the mount holding `path`, from the longest matching
/// mount point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // `id parent major:minor root mountpoint opts [optional...] - fstype source superopts`
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The envelope object written into every output JSON.
pub fn envelope(seed: u64, repeat: usize, seconds: u64, quick: bool, store_dir: &Path) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("cores_available", Json::from(cores)),
        ("cores_cgroup", cgroup_cores().map_or(Json::Null, Json::Num)),
        ("simd", Json::from(hdc::simd::active_label())),
        ("git_head", Json::Str(git_head())),
        (
            "rustc",
            Json::Str(command_line(Command::new("rustc").arg("--version"))),
        ),
        ("store_fs", Json::Str(filesystem_of(store_dir))),
        ("seed", Json::from(seed)),
        ("repeat", Json::from(repeat)),
        ("seconds", Json::from(seconds)),
        ("quick", Json::from(quick)),
    ])
}
