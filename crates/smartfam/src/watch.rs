//! File-alteration monitoring (the inotify substitute).
//!
//! The paper's smartFAM uses Linux inotify to learn that a log file
//! changed. No inotify binding exists in the sanctioned offline crate set,
//! so this watcher polls file metadata (length + mtime) on a configurable
//! interval and synthesizes the same events: `Created`, `Modified`,
//! `Removed`. Event *semantics* — "when the data-intensive module's log
//! file in McSD is changed by the host, inotify informs the Daemon program"
//! — are preserved; only the detection latency differs, bounded by the poll
//! interval.

use crossbeam::channel::{unbounded, Receiver, Sender};
use mcsd_phoenix::Stopwatch;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// What happened to a watched file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// The file appeared.
    Created,
    /// The file's length or mtime changed.
    Modified,
    /// The file disappeared.
    Removed,
}

/// One filesystem event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// The file the event concerns.
    pub path: PathBuf,
    /// What happened.
    pub kind: WatchEventKind,
}

/// Watcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchConfig {
    /// Metadata poll interval. Small values give inotify-like latency at
    /// the cost of CPU; tests use 1–2 ms.
    pub poll_interval: Duration,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            poll_interval: Duration::from_millis(2),
        }
    }
}

/// Capped exponential poll pacing shared by every real-I/O wait loop in
/// the crate: the first re-check is ~1 ms away (never below 100 µs), each
/// idle sweep doubles the gap, and the gap is capped at the configured
/// poll interval — so detection latency stays bounded by the interval
/// while an idle waiter stops burning CPU. Progress resets the schedule
/// to the floor. [`crate::host::PendingCall::wait`], the pipelined
/// window, the resilient wait, and the watcher's own poll loop all pace
/// themselves with this one schedule (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollBackoff {
    floor: Duration,
    cap: Duration,
    delay: Duration,
}

impl PollBackoff {
    /// A schedule whose sleeps never exceed `poll_interval`.
    pub fn new(poll_interval: Duration) -> PollBackoff {
        let floor = Duration::from_millis(1).min(poll_interval.max(Duration::from_micros(100)));
        let cap = poll_interval.max(floor);
        PollBackoff {
            floor,
            cap,
            delay: floor,
        }
    }

    /// The sleep to take after a sweep that made no progress; the next
    /// idle gap doubles, up to the cap.
    pub fn idle_delay(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = (self.delay * 2).min(self.cap);
        delay
    }

    /// Sleep out one idle gap — the single place a real-I/O wait loop
    /// (host response waits, the watcher's metadata poll) parks its thread.
    pub fn idle(&mut self) {
        // tidy:allow(MCSD001) -- real I/O pacing: the caller polls a shared file and found nothing new; the capped backoff (1 ms floor up to poll_interval) bounds detection latency, the quantity the smartFAM experiments measure, not simulated time
        std::thread::sleep(self.idle_delay());
    }

    /// Progress observed: the next idle sleep restarts at the floor.
    pub fn reset(&mut self) {
        self.delay = self.floor;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileSig {
    len: u64,
    mtime: Option<SystemTime>,
}

fn signature(path: &Path) -> Option<FileSig> {
    let meta = std::fs::metadata(path).ok()?;
    Some(FileSig {
        len: meta.len(),
        mtime: meta.modified().ok(),
    })
}

/// A polling file watcher over a directory.
///
/// Watches every regular file directly inside `dir` (non-recursive, like
/// an inotify watch on a directory). Events are delivered on a crossbeam
/// channel.
pub struct FileWatcher {
    events: Receiver<WatchEvent>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    /// Extra paths registered after spawn.
    extra: Arc<Mutex<Vec<PathBuf>>>,
}

impl FileWatcher {
    /// Start watching `dir`.
    ///
    /// The initial census — the files whose later changes will be
    /// reported, and whose current state will not — is taken
    /// *synchronously*, before this returns. Callers can therefore order
    /// "start watching, then scan for pre-existing work" with no gap: any
    /// file that appears after `spawn` returns is guaranteed to generate a
    /// `Created` event. (The SD daemon relies on this to avoid losing
    /// requests written exactly at startup.)
    pub fn spawn(dir: impl Into<PathBuf>, config: WatchConfig) -> FileWatcher {
        let dir = dir.into();
        let (tx, rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let extra: Arc<Mutex<Vec<PathBuf>>> = Arc::new(Mutex::new(Vec::new()));
        // Synchronous census: files existing now do not generate Created
        // events (inotify semantics).
        let mut known: HashMap<PathBuf, FileSig> = HashMap::new();
        for path in list_files(&dir, &extra) {
            if let Some(sig) = signature(&path) {
                known.insert(path, sig);
            }
        }
        let handle = {
            let stop = Arc::clone(&stop);
            let extra = Arc::clone(&extra);
            std::thread::spawn(move || poll_loop(dir, config, tx, stop, extra, known))
        };
        FileWatcher {
            events: rx,
            stop,
            handle: Some(handle),
            extra,
        }
    }

    /// The event channel.
    pub fn events(&self) -> &Receiver<WatchEvent> {
        &self.events
    }

    /// Also watch a specific file outside the directory.
    pub fn add_path(&self, path: impl Into<PathBuf>) {
        self.extra.lock().push(path.into());
    }

    /// Block until an event arrives or `timeout` elapses.
    pub fn next_event(&self, timeout: Duration) -> Option<WatchEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Stop the watcher thread (also happens on drop).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FileWatcher {
    fn drop(&mut self) {
        self.stop();
    }
}

fn poll_loop(
    dir: PathBuf,
    config: WatchConfig,
    tx: Sender<WatchEvent>,
    stop: Arc<AtomicBool>,
    extra: Arc<Mutex<Vec<PathBuf>>>,
    mut known: HashMap<PathBuf, FileSig>,
) {
    // Quiet directories back off toward the configured interval (which
    // stays the worst-case detection latency); a directory that just
    // changed is re-polled at the ~1 ms floor, so bursts of log-file
    // traffic are noticed at inotify-like latency.
    let mut pace = PollBackoff::new(config.poll_interval);
    while !stop.load(Ordering::Relaxed) {
        pace.idle();
        let current = list_files(&dir, &extra);
        let mut seen: HashMap<PathBuf, FileSig> = HashMap::new();
        for path in current {
            if let Some(sig) = signature(&path) {
                seen.insert(path, sig);
            }
        }
        let mut changed = false;
        // Emit events in path order so consumers observe a deterministic
        // sequence regardless of hash-map iteration order.
        let mut arrived: Vec<(&PathBuf, &FileSig)> = seen.iter().collect();
        arrived.sort_by_key(|(path, _)| *path);
        for (path, sig) in arrived {
            match known.get(path) {
                None => {
                    changed = true;
                    let _ = tx.send(WatchEvent {
                        path: path.clone(),
                        kind: WatchEventKind::Created,
                    });
                }
                Some(old) if old != sig => {
                    changed = true;
                    let _ = tx.send(WatchEvent {
                        path: path.clone(),
                        kind: WatchEventKind::Modified,
                    });
                }
                _ => {}
            }
        }
        let mut gone: Vec<&PathBuf> = known
            .keys()
            .filter(|path| !seen.contains_key(*path))
            .collect();
        gone.sort();
        for path in gone {
            changed = true;
            let _ = tx.send(WatchEvent {
                path: path.clone(),
                kind: WatchEventKind::Removed,
            });
        }
        if changed {
            pace.reset();
        }
        known = seen;
    }
}

fn list_files(dir: &Path, extra: &Mutex<Vec<PathBuf>>) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_file() {
                files.push(path);
            }
        }
    }
    // Snapshot the extra paths first: stat-ing while holding the lock
    // would stall every registrar behind slow storage (MCSD008).
    let extras: Vec<PathBuf> = extra.lock().clone();
    for p in extras {
        if p.is_file() && !files.contains(&p) {
            files.push(p);
        }
    }
    files
}

/// Why a [`wait_for_file_outcome`] call returned. Distinguishes "the file
/// was there but never satisfied the predicate" from "we could not even
/// stat it" — a liveness probe treats those very differently (a daemon
/// whose heartbeat file is unreadable is not the same as one whose
/// heartbeat is merely old).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileWait {
    /// The predicate held before the timeout.
    Satisfied,
    /// The file was observable (stat succeeded at least once) but the
    /// predicate never held within the timeout.
    TimedOut,
    /// Every stat attempt failed; the last error kind is carried. For a
    /// file that simply does not exist this is `ErrorKind::NotFound`.
    StatFailed(std::io::ErrorKind),
}

impl FileWait {
    /// Whether the predicate was satisfied.
    pub fn satisfied(self) -> bool {
        self == FileWait::Satisfied
    }
}

/// Poll `path` until `predicate(len)` holds or `timeout` elapses,
/// reporting *why* the wait ended (see [`FileWait`]).
pub fn wait_for_file_outcome(
    path: &Path,
    timeout: Duration,
    predicate: impl Fn(u64) -> bool,
) -> FileWait {
    let waited = Stopwatch::start();
    let mut stat_ok = false;
    let mut last_err = std::io::ErrorKind::NotFound;
    let mut pace = PollBackoff::new(Duration::from_millis(10));
    loop {
        match std::fs::metadata(path) {
            Ok(meta) => {
                stat_ok = true;
                if predicate(meta.len()) {
                    return FileWait::Satisfied;
                }
            }
            Err(e) => last_err = e.kind(),
        }
        if waited.expired(timeout) {
            return if stat_ok {
                FileWait::TimedOut
            } else {
                FileWait::StatFailed(last_err)
            };
        }
        pace.idle();
    }
}

/// Poll `path` until `predicate(len)` holds or `timeout` elapses; returns
/// whether the predicate was met. A convenience for simple waiters that do
/// not need a full watcher thread; use [`wait_for_file_outcome`] when the
/// failure cause matters.
pub fn wait_for_file(path: &Path, timeout: Duration, predicate: impl Fn(u64) -> bool) -> bool {
    wait_for_file_outcome(path, timeout, predicate).satisfied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static DIR_N: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mcsd-watch-{}-{}",
            std::process::id(),
            DIR_N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fast() -> WatchConfig {
        WatchConfig {
            poll_interval: Duration::from_millis(1),
        }
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn detects_creation() {
        let dir = temp_dir();
        let w = FileWatcher::spawn(&dir, fast());
        std::thread::sleep(Duration::from_millis(10));
        std::fs::write(dir.join("new.log"), b"hello").unwrap();
        let ev = w.next_event(WAIT).expect("event");
        assert_eq!(ev.kind, WatchEventKind::Created);
        assert_eq!(ev.path.file_name().unwrap(), "new.log");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detects_modification() {
        let dir = temp_dir();
        let file = dir.join("mod.log");
        std::fs::write(&file, b"start").unwrap();
        let w = FileWatcher::spawn(&dir, fast());
        std::thread::sleep(Duration::from_millis(10));
        std::fs::write(&file, b"start plus more").unwrap();
        let ev = w.next_event(WAIT).expect("event");
        assert_eq!(ev.kind, WatchEventKind::Modified);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detects_removal() {
        let dir = temp_dir();
        let file = dir.join("gone.log");
        std::fs::write(&file, b"x").unwrap();
        let w = FileWatcher::spawn(&dir, fast());
        std::thread::sleep(Duration::from_millis(10));
        std::fs::remove_file(&file).unwrap();
        let ev = w.next_event(WAIT).expect("event");
        assert_eq!(ev.kind, WatchEventKind::Removed);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preexisting_files_are_silent() {
        let dir = temp_dir();
        std::fs::write(dir.join("old.log"), b"existing").unwrap();
        let w = FileWatcher::spawn(&dir, fast());
        assert!(w.next_event(Duration::from_millis(50)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extra_path_outside_dir_is_watched() {
        let dir = temp_dir();
        let other = temp_dir();
        let target = other.join("outside.log");
        let w = FileWatcher::spawn(&dir, fast());
        w.add_path(&target);
        std::thread::sleep(Duration::from_millis(10));
        std::fs::write(&target, b"event!").unwrap();
        let ev = w.next_event(WAIT).expect("event");
        assert_eq!(ev.path, target);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&other).unwrap();
    }

    #[test]
    fn stop_terminates_thread() {
        let dir = temp_dir();
        let mut w = FileWatcher::spawn(&dir, fast());
        w.stop();
        // After stopping, new files generate no events.
        std::fs::write(dir.join("after.log"), b"x").unwrap();
        assert!(w.next_event(Duration::from_millis(30)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poll_backoff_sequence_is_pinned() {
        // The schedule every real-I/O wait loop shares (the one
        // `PendingCall::wait` documents): 1 ms floor, gap doubling per
        // idle sweep, capped at the poll interval.
        let mut pace = PollBackoff::new(Duration::from_millis(16));
        let sleeps: Vec<u64> = (0..6)
            .map(|_| pace.idle_delay().as_millis() as u64)
            .collect();
        assert_eq!(sleeps, [1, 2, 4, 8, 16, 16]);
        // Progress restarts the schedule at the floor.
        pace.reset();
        assert_eq!(pace.idle_delay(), Duration::from_millis(1));
        assert_eq!(pace.idle_delay(), Duration::from_millis(2));
        // A sub-millisecond interval is both floor and cap: the schedule
        // degenerates to fixed-interval polling.
        let mut fine = PollBackoff::new(Duration::from_micros(300));
        assert_eq!(fine.idle_delay(), Duration::from_micros(300));
        assert_eq!(fine.idle_delay(), Duration::from_micros(300));
        // The floor never drops below 100 µs even for absurd intervals.
        let mut tiny = PollBackoff::new(Duration::from_micros(1));
        assert_eq!(tiny.idle_delay(), Duration::from_micros(100));
    }

    #[test]
    fn wait_for_file_sees_growth() {
        let dir = temp_dir();
        let file = dir.join("grow.log");
        std::fs::write(&file, b"12").unwrap();
        let f2 = file.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            std::fs::write(&f2, b"123456").unwrap();
        });
        assert!(wait_for_file(&file, WAIT, |len| len >= 6));
        t.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_for_file_times_out() {
        let dir = temp_dir();
        let file = dir.join("never.log");
        assert!(!wait_for_file(&file, Duration::from_millis(40), |_| true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wait_outcome_distinguishes_missing_from_unsatisfied() {
        let dir = temp_dir();
        // Missing file: every stat fails → StatFailed(NotFound).
        let missing = dir.join("absent.log");
        assert_eq!(
            wait_for_file_outcome(&missing, Duration::from_millis(30), |_| true),
            FileWait::StatFailed(std::io::ErrorKind::NotFound)
        );
        // Present file that never grows → TimedOut, not StatFailed.
        let present = dir.join("small.log");
        std::fs::write(&present, b"ab").unwrap();
        assert_eq!(
            wait_for_file_outcome(&present, Duration::from_millis(30), |len| len > 100),
            FileWait::TimedOut
        );
        // Present and satisfying → Satisfied.
        assert_eq!(
            wait_for_file_outcome(&present, Duration::from_millis(30), |len| len == 2),
            FileWait::Satisfied
        );
        assert!(FileWait::Satisfied.satisfied());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
