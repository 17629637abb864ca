//! Host fingerprint and the process's memory counters.

use crate::json;
use std::process::Command;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A `kB` field of `/proc/self/status`, in kilobytes (0 when absent).
fn status_kb(field: &str) -> u64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l[field.len()..]
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in megabytes.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set size of this process, in megabytes.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") as f64 / 1024.0
}

pub fn load_average_1m() -> f64 {
    read("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Size of cpu0's unified or data cache at `level`, as sysfs prints it.
fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let is_level = read(&format!("{dir}/level")).is_some_and(|l| l.trim() == level.to_string());
        let is_code = read(&format!("{dir}/type")).is_some_and(|t| t.trim() == "Instruction");
        if is_level && !is_code {
            if let Some(size) = read(&format!("{dir}/size")) {
                return size.trim().to_string();
            }
        }
    }
    "unknown".into()
}

#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustc: String,
    pub git_commit: String,
    pub load_1m: f64,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            load_1m: load_average_1m(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \
             \"git_commit\": {}, \"load_1m\": {}}}",
            self.nproc,
            json::quote(&self.cpu_model),
            json::quote(&self.l2),
            json::quote(&self.l3),
            json::quote(&self.rustc),
            json::quote(&self.git_commit),
            json::number(self.load_1m)
        )
    }

    pub fn print(&self) {
        println!(
            "host: {} × {} | L2 {} | L3 {} | {} | commit {} | load(1m) {:.2}",
            self.nproc, self.cpu_model, self.l2, self.l3, self.rustc, self.git_commit, self.load_1m
        );
        if self.load_1m > 1.0 {
            println!(
                "warning: 1-minute load average is {:.2} (> 1): timings will be noisier than the \
                 bounds assume",
                self.load_1m
            );
        }
    }
}
