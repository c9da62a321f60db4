//! Where results go and what is recorded about the machine.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// `bench/`, as compiled in: the harness is built in the checkout it
/// measures, and reads and writes nowhere else.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `bench/out/`: result files, the Chrome trace, and (by default) the
/// state directories of the runs.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn write_out(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// The filesystem type `path` lives on (longest mount-point prefix in
/// `/proc/mounts`): state on tmpfs and state on a disk are different
/// experiments, so every result says which it was.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit of the checkout, read from `.git` directly (the driver's
/// checkout has none, and spawning `git` would search parent
/// directories).
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// What a number from this box must be read against.
pub fn environment(state_root: &Path) -> Json {
    let or_unknown = |s: String| if s.is_empty() { "unknown".into() } else { s };
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "cpu",
            Json::Str(or_unknown(
                proc_field("/proc/cpuinfo", "model name")
                    .map(|v| v.trim_start_matches([':', ' ', '\t']).to_string())
                    .unwrap_or_default(),
            )),
        ),
        ("kernel_lane", Json::str(sssj_kernels::active_lane().name())),
        ("rustc", Json::Str(rustc_version())),
        ("git_commit", Json::Str(or_unknown(git_commit()))),
        ("state_dir", Json::Str(state_root.display().to_string())),
        ("state_fs", Json::Str(fs_type(state_root))),
    ])
}

/// The last line of standard output: the benchmark contract's result
/// object, with exactly these four keys.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(0, 0, &[("setup_s".into(), 0.8127, "s")]);
        assert_eq!(
            line,
            "{\"attempted\":1,\"correct\":true,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"unit\":\"s\",\"value\":0.8127}}}"
        );
        assert!(result_line(10, 1, &[]).contains("\"correct\":false"));
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_filesystem() {
        assert!(peak_rss_mb() > 1.0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
