//! Process accounting read from `/proc/self` and the machine descriptor
//! printed with every output. Parsers take the file's text so they can be
//! tested without a `/proc`.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100 on
/// every Linux ABI; std has no `sysconf` to ask.
const TICKS_PER_SEC: f64 = 100.0;

/// `rchar` and `wchar` of `/proc/self/io`: bytes this process moved
/// through read- and write-like system calls, cached or not.
pub fn parse_io(text: &str) -> Option<(u64, u64)> {
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
    };
    Some((field("rchar")?, field("wchar")?))
}

/// User plus system CPU time of the whole process (exited threads
/// included) from `/proc/self/stat`, in milliseconds. The command name may
/// hold spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_cpu_ms(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name come state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_SEC)
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in MiB.
pub fn parse_status_mb(text: &str, field: &str) -> Option<f64> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the longest mount point that prefixes it.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU time of the whole process, exited threads included, in ms, as the
/// scheduler accounts it (nanoseconds). `/proc/self/stat` counts 10 ms
/// ticks charged to whichever thread runs when the tick fires — a coin
/// toss for a thread that wakes for 50 µs every millisecond — so it is only
/// the fallback.
#[cfg(target_pointer_width = "64")]
fn process_cpu_ms() -> Option<f64> {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`,
    // which points at a live, aligned `Timespec` with the layout 64-bit
    // Linux gives that struct (two C longs); the symbol is in the libc
    // that std links.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

#[cfg(not(target_pointer_width = "64"))]
fn process_cpu_ms() -> Option<f64> {
    None
}

/// One reading of the counters a segment reports as deltas.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_ms: f64,
    pub rchar: u64,
    pub wchar: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let (rchar, wchar) = parse_io(&read("/proc/self/io")).unwrap_or((0, 0));
        let (allocs, alloc_bytes) = crate::alloc::totals();
        Usage {
            allocs,
            alloc_bytes,
            cpu_ms: process_cpu_ms()
                .or_else(|| parse_stat_cpu_ms(&read("/proc/self/stat")))
                .unwrap_or(f64::NAN),
            rchar,
            wchar,
        }
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    parse_status_mb(&read("/proc/self/status"), "VmHWM").unwrap_or(f64::NAN)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// What the numbers were measured on. `scratch` is where logs and data
/// files of the run live.
pub fn machine(scratch: &Path) -> Json {
    let unknown = || "unknown".to_string();
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "kernel",
            Json::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"], here).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "scratch_fs",
            Json::Str(
                parse_fs_type(&read("/proc/self/mountinfo"), scratch).unwrap_or_else(unknown),
            ),
        ),
        ("scratch_dir", Json::str(scratch.display().to_string())),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], here).unwrap_or_else(unknown)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_self_io() {
        let text = "rchar: 4292496\nwchar: 1234\nsyscr: 1\nsyscw: 2\nread_bytes: 0\n\
                    write_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io(text), Some((4_292_496, 1234)));
        assert_eq!(parse_io("rchar: 1\n"), None);
        assert_eq!(parse_io(""), None);
    }

    #[test]
    fn parses_cpu_ticks_after_a_hostile_command_name() {
        // comm = "a) b (c": spaces and parentheses inside the name.
        let text = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    137 25 0 0 20 0 3 0 100 1000000 300 18446744073709551615 1 1 0";
        // utime 137 + stime 25 ticks at 100 Hz.
        assert_eq!(parse_stat_cpu_ms(text), Some(1620.0));
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ms("no parens"), None);
    }

    #[test]
    fn process_cpu_time_advances_with_work_and_agrees_with_proc_stat() {
        let before = Usage::now().cpu_ms;
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = Usage::now().cpu_ms - before;
        assert!(
            spent > 20.0 && spent < 5_000.0,
            "{spent} ms of CPU for 60 ms of spinning"
        );
        let ticks = parse_stat_cpu_ms(&read("/proc/self/stat")).unwrap();
        assert!(ticks >= 20.0, "{ticks}");
    }

    #[test]
    fn parses_vm_hwm() {
        let text =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_mb(text, "VmHWM"), Some(20.0));
        assert_eq!(parse_status_mb(text, "VmSwap"), None);
    }

    #[test]
    fn fs_type_is_the_longest_matching_mount() {
        let text = "22 1 8:1 / / rw,relatime shared:1 - ext4 /dev/root rw\n\
                    30 22 0:25 / /tmp rw,nosuid - tmpfs tmpfs rw\n\
                    31 22 0:26 / /tmpfiles rw - xfs /dev/sdb rw\n";
        let fs = |p: &str| parse_fs_type(text, Path::new(p));
        assert_eq!(fs("/tmp/x/logs").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/home/u/repo").as_deref(), Some("ext4"));
        // `/tmpfiles` is not under `/tmp`: prefixes match whole components.
        assert_eq!(fs("/tmpfiles/a").as_deref(), Some("xfs"));
    }
}
