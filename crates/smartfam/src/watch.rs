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
/// to the floor. Only the watcher's own poll loop has room to double
/// (1 ms → its 2 ms default interval); the host's waits
/// ([`crate::host::PendingCall::wait`], the pipelined window, the
/// resilient wait) build it from a 1 ms interval, where floor = cap, so
/// they pace at a constant 1 ms (DESIGN.md §18).
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
        // Synchronous census: files existing now do not generate Created
        // events (inotify semantics).
        let mut known: HashMap<PathBuf, FileSig> = HashMap::new();
        for path in list_files(&dir) {
            if let Some(sig) = signature(&path) {
                known.insert(path, sig);
            }
        }
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || poll_loop(dir, config, tx, stop, known))
        };
        FileWatcher {
            events: rx,
            stop,
            handle: Some(handle),
        }
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
    mut known: HashMap<PathBuf, FileSig>,
) {
    // Quiet directories back off toward the configured interval (which
    // stays the worst-case detection latency); a directory that just
    // changed is re-polled at the ~1 ms floor, so bursts of log-file
    // traffic are noticed at inotify-like latency.
    let mut pace = PollBackoff::new(config.poll_interval);
    while !stop.load(Ordering::Relaxed) {
        pace.idle();
        let current = list_files(&dir);
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

fn list_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_file() {
                files.push(path);
            }
        }
    }
    files
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
        // The schedule every real-I/O wait loop shares: 1 ms floor, gap
        // doubling per idle sweep, capped at the poll interval.
        let mut pace = PollBackoff::new(Duration::from_millis(16));
        let sleeps: Vec<u64> = (0..6)
            .map(|_| pace.idle_delay().as_millis() as u64)
            .collect();
        assert_eq!(sleeps, [1, 2, 4, 8, 16, 16]);
        // Progress restarts the schedule at the floor.
        pace.reset();
        assert_eq!(pace.idle_delay(), Duration::from_millis(1));
        assert_eq!(pace.idle_delay(), Duration::from_millis(2));
        // An interval at or below the 1 ms floor is both floor and cap:
        // the schedule degenerates to fixed-interval polling — the host's
        // waits (1 ms) run exactly this way.
        let mut host = PollBackoff::new(Duration::from_millis(1));
        assert_eq!(host.idle_delay(), Duration::from_millis(1));
        assert_eq!(host.idle_delay(), Duration::from_millis(1));
        let mut fine = PollBackoff::new(Duration::from_micros(300));
        assert_eq!(fine.idle_delay(), Duration::from_micros(300));
        assert_eq!(fine.idle_delay(), Duration::from_micros(300));
        // The floor never drops below 100 µs even for absurd intervals.
        let mut tiny = PollBackoff::new(Duration::from_micros(1));
        assert_eq!(tiny.idle_delay(), Duration::from_micros(100));
    }
}
