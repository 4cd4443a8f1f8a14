//! File-alteration monitoring (the inotify substitute).
//!
//! The paper's smartFAM uses Linux inotify to learn that a log file
//! changed. No inotify binding exists in the sanctioned offline crate set,
//! so this watcher polls file metadata (length, mtime, inode) on a configurable
//! interval and synthesizes the same events: `Created`, `Modified`,
//! `Removed`. Event *semantics* — "when the data-intensive module's log
//! file in McSD is changed by the host, inotify informs the Daemon program"
//! — are preserved. An append through a [`crate::LogFile`] in this process
//! ends every wait at once (the *append wake*); the poll interval bounds
//! detection only of a writer in another process.
//! A sweep is one `stat` per known file plus one for the directory, which
//! is listed only when its own signature moved (DESIGN.md §3).

use crate::faults::FaultInjector;
use crate::log_file::LogRole;
use mcsd_phoenix::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// The file the event concerns: the watcher's own copy of the path,
    /// shared by every event about the file.
    pub path: Arc<Path>,
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

/// How many appends this process has made through [`crate::LogFile`].
/// A leaf lock: nothing is taken under it and no I/O runs under it.
static APPENDS: Mutex<u64> = Mutex::new(0);
/// Rung after every append, so every [`PollBackoff::idle`] returns.
static APPEND_WAKE: Condvar = Condvar::new();

fn appends() -> MutexGuard<'static, u64> {
    APPENDS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An append landed: every idle wait in the process ends now.
pub(crate) fn note_append() {
    *appends() += 1;
    APPEND_WAKE.notify_all();
}

/// Capped exponential poll pacing shared by every real-I/O wait loop in
/// the crate: the first re-check is ~1 ms away (never below 100 µs), each
/// idle sweep doubles the gap, and the gap is capped at the configured
/// poll interval — so detection latency stays bounded by the interval
/// while an idle waiter stops burning CPU. Progress resets the schedule
/// to the floor. An append in this process ends a gap early (the append
/// wake, DESIGN.md §18); the gap is what finds a writer in another
/// process. Only the watcher's own poll loop has room to double
/// (1 ms → its 2 ms default interval); the host's waits
/// ([`crate::host::PendingCall::wait`] and the window's idle step, which
/// every retried call runs through) build it from a 1 ms interval, where
/// floor = cap, so their gap is a constant 1 ms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollBackoff {
    floor: Duration,
    cap: Duration,
    delay: Duration,
    /// The append count sampled before the caller's latest check.
    seen: u64,
}

impl PollBackoff {
    /// A schedule whose waits never exceed `poll_interval`.
    pub fn new(poll_interval: Duration) -> PollBackoff {
        let floor = Duration::from_millis(1).min(poll_interval.max(Duration::from_micros(100)));
        let cap = poll_interval.max(floor);
        PollBackoff {
            floor,
            cap,
            delay: floor,
            seen: *appends(),
        }
    }

    /// The gap to wait after a sweep that made no progress; the next
    /// idle gap doubles, up to the cap.
    pub fn idle_delay(&mut self) -> Duration {
        let delay = self.delay;
        self.delay = (self.delay * 2).min(self.cap);
        delay
    }

    /// Wait out one idle gap, or until an append lands in this process —
    /// at once if one landed since [`PollBackoff::new`] or the previous
    /// `idle` returned, that is, since before the caller's check — and say
    /// whether one did. The single place a real-I/O wait loop (host
    /// response waits, the daemon's loop, the watcher's poll) parks.
    pub fn idle(&mut self) -> bool {
        let gap = self.idle_delay();
        let waited = Stopwatch::start();
        let mut appends = appends();
        while *appends == self.seen {
            let left = gap.saturating_sub(waited.elapsed());
            if left.is_zero() {
                break;
            }
            appends = APPEND_WAKE
                .wait_timeout(appends, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        std::mem::replace(&mut self.seen, *appends) != *appends
    }

    /// Progress observed: the next idle gap restarts at the floor.
    pub fn reset(&mut self) {
        self.delay = self.floor;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileSig {
    len: u64,
    mtime: Option<SystemTime>,
    /// The file's identity: another inode under the same name is another
    /// file, as inotify reports a delete and a create.
    ino: u64,
}

/// One `stat`, counted in `io`: the signature of the regular file at
/// `path` (of the directory when `dir` is set), `None` for anything else.
fn signature(io: &FaultInjector, path: &Path, dir: bool) -> Option<FileSig> {
    io.io(LogRole::Daemon, |io| io.metadata += 1);
    let meta = std::fs::metadata(path).ok()?;
    let wanted = if dir { meta.is_dir() } else { meta.is_file() };
    wanted.then(|| FileSig {
        len: meta.len(),
        mtime: meta.modified().ok(),
        ino: std::os::unix::fs::MetadataExt::ino(&meta),
    })
}

/// One row of the watcher's table.
struct Tracked {
    path: Arc<Path>,
    /// `None` once a sweep finds the file gone, until the row is dropped.
    sig: Option<FileSig>,
    /// Listed but not yet reported: the next sweep says `Created`.
    fresh: bool,
}

/// Every regular file directly inside `dir`, sorted by path — the order
/// events are emitted in. The daemon's loop sweeps one; so does a
/// [`FileWatcher`]'s thread.
pub(crate) struct Table {
    dir: PathBuf,
    /// The ledger the sweep's calls are counted in, as the daemon's.
    io: FaultInjector,
    /// The directory's signature sampled *before* the latest listing, so
    /// an entry that appeared while the listing ran moves it.
    dir_sig: Option<FileSig>,
    files: Vec<Tracked>,
    sweeps: u32,
}

/// A quiet directory is still listed every this many sweeps: an entry
/// created within the timestamp tick of the previous listing leaves the
/// directory's signature where that listing sampled it. Late, never lost.
const RELIST_EVERY: u32 = 64;

impl Table {
    /// The files in `dir` now: later changes are events, this state is not.
    pub(crate) fn census(dir: PathBuf, io: FaultInjector) -> Table {
        let mut table = Table {
            dir_sig: signature(&io, &dir, true),
            dir,
            io,
            files: Vec::new(),
            sweeps: 0,
        };
        table.list(false);
        table
    }

    /// The tracked files, in path order.
    pub(crate) fn paths(&self) -> impl Iterator<Item = &Path> {
        self.files.iter().map(|t| &*t.path)
    }

    /// Add every regular file in `dir` that is not yet in the table.
    fn list(&mut self, fresh: bool) {
        self.io.io(LogRole::Daemon, |io| io.metadata += 1);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            // The entry's own type, not a second `stat`; a symlink is
            // resolved by the `stat` that takes its signature.
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                continue;
            }
            let name = entry.file_name();
            let by_name = |t: &Tracked| t.path.file_name().cmp(&Some(name.as_os_str()));
            let Err(at) = self.files.binary_search_by(by_name) else {
                continue;
            };
            let path: Arc<Path> = entry.path().into();
            let sig = signature(&self.io, &path, false);
            if sig.is_some() {
                self.files.insert(at, Tracked { path, sig, fresh });
            }
        }
    }

    /// One poll of the directory, listed if `relist`, if its signature moved
    /// or on a quiet one's [`RELIST_EVERY`]th poll: `emit` gets `Created` and
    /// `Modified` (a replaced file `Removed` then `Created`), then `Removed`,
    /// each in path order. Whether any changed.
    pub(crate) fn sweep(
        &mut self,
        relist: bool,
        mut emit: impl FnMut(&Arc<Path>, WatchEventKind),
    ) -> bool {
        self.sweeps = self.sweeps.wrapping_add(1);
        let dir_sig = signature(&self.io, &self.dir, true);
        if relist || dir_sig != self.dir_sig || self.sweeps.is_multiple_of(RELIST_EVERY) {
            self.dir_sig = dir_sig;
            self.list(true);
        }
        let mut changed = false;
        for t in &mut self.files {
            if std::mem::take(&mut t.fresh) {
                emit(&t.path, WatchEventKind::Created);
                changed = true;
                continue;
            }
            let now = signature(&self.io, &t.path, false);
            if let Some(sig) = now.filter(|&sig| t.sig != Some(sig)) {
                if t.sig.is_some_and(|old| old.ino != sig.ino) {
                    emit(&t.path, WatchEventKind::Removed);
                    emit(&t.path, WatchEventKind::Created);
                } else {
                    emit(&t.path, WatchEventKind::Modified);
                }
                changed = true;
            }
            t.sig = now;
        }
        self.files.retain(|t| {
            if t.sig.is_none() {
                emit(&t.path, WatchEventKind::Removed);
                changed = true;
            }
            t.sig.is_some()
        });
        changed
    }
}

/// A polling file watcher over a directory.
///
/// Watches every regular file directly inside `dir` (non-recursive, like
/// an inotify watch on a directory). Events are delivered on a
/// `std::sync::mpsc` channel.
pub struct FileWatcher {
    events: Receiver<WatchEvent>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FileWatcher {
    /// Start watching `dir`. The census — the files whose later changes
    /// will be reported, and whose current state will not — is taken
    /// before this returns, so any file that appears after `spawn` returns
    /// is reported `Created`.
    pub fn spawn(dir: impl Into<PathBuf>, config: WatchConfig) -> FileWatcher {
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        // On this thread: an append made before the new one runs is not
        // missed, and files existing now are silent (inotify semantics).
        let pace = PollBackoff::new(config.poll_interval);
        let table = Table::census(dir.into(), FaultInjector::disabled());
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || poll_loop(table, pace, tx, &stop))
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

fn poll_loop(mut table: Table, mut pace: PollBackoff, tx: Sender<WatchEvent>, stop: &AtomicBool) {
    // A directory that just changed is re-polled at the ~1 ms floor; a
    // quiet one backs off toward the interval, the worst-case latency.
    while !stop.load(Ordering::Relaxed) {
        pace.idle();
        let changed = table.sweep(false, |path, kind| {
            let path = Arc::clone(path);
            let _ = tx.send(WatchEvent { path, kind });
        });
        if changed {
            pace.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir;
    use std::collections::BTreeMap;

    fn fast() -> WatchConfig {
        WatchConfig {
            poll_interval: Duration::from_millis(1),
        }
    }

    const WAIT: Duration = Duration::from_secs(5);

    fn io() -> FaultInjector {
        FaultInjector::disabled()
    }

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

    /// The sweep the table replaced — list everything, `stat` everything,
    /// diff two maps — kept as the oracle for event kinds and order.
    fn oracle_sweep(
        dir: &Path,
        known: &mut BTreeMap<PathBuf, FileSig>,
    ) -> Vec<(PathBuf, WatchEventKind)> {
        let seen: BTreeMap<PathBuf, FileSig> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter_map(|e| signature(&io(), &e.path(), false).map(|sig| (e.path(), sig)))
            .collect();
        let mut events = Vec::new();
        for (path, sig) in &seen {
            match known.get(path) {
                None => events.push((path.clone(), WatchEventKind::Created)),
                Some(old) if old.ino != sig.ino => events.extend([
                    (path.clone(), WatchEventKind::Removed),
                    (path.clone(), WatchEventKind::Created),
                ]),
                Some(old) if old != sig => events.push((path.clone(), WatchEventKind::Modified)),
                _ => {}
            }
        }
        for path in known.keys().filter(|path| !seen.contains_key(*path)) {
            events.push((path.clone(), WatchEventKind::Removed));
        }
        *known = seen;
        events
    }

    fn table_sweep(table: &mut Table) -> Vec<(PathBuf, WatchEventKind)> {
        let mut events = Vec::new();
        table.sweep(false, |path, kind| events.push((path.to_path_buf(), kind)));
        events
    }

    /// A sweep that lists whatever the directory's timestamp says: the
    /// comparison with the oracle must not depend on how fine a tick this
    /// machine's filesystem stamps a directory with.
    fn listing_sweep(table: &mut Table) -> Vec<(PathBuf, WatchEventKind)> {
        table.dir_sig = None;
        table_sweep(table)
    }

    fn append(path: &Path, bytes: &[u8]) {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        file.write_all(bytes).unwrap();
    }

    #[test]
    fn sweeps_report_what_the_list_everything_sweep_reported_in_its_order() {
        use WatchEventKind::{Created, Modified, Removed};
        let dir = temp_dir();
        std::fs::write(dir.join("old.log"), b"existing").unwrap();
        std::fs::create_dir(dir.join(".replica1")).unwrap();
        let mut table = Table::census(dir.clone(), io());
        let mut known = BTreeMap::new();
        assert_eq!(
            oracle_sweep(&dir, &mut known).len(),
            1,
            "the oracle's census"
        );
        // The census is silent, and so is a sweep over an unchanged directory.
        assert_eq!(listing_sweep(&mut table), []);
        assert_eq!(oracle_sweep(&dir, &mut known), []);
        let kinds = |events: &[(PathBuf, WatchEventKind)]| -> Vec<(String, WatchEventKind)> {
            let name = |p: &PathBuf| p.file_name().unwrap().to_string_lossy().into_owned();
            events.iter().map(|(p, k)| (name(p), *k)).collect()
        };
        // Create three — out of name order — then modify two and remove
        // one in the same interval.
        for name in ["c.log", "a.log", "b.log"] {
            append(&dir.join(name), b"new");
        }
        let events = listing_sweep(&mut table);
        assert_eq!(events, oracle_sweep(&dir, &mut known));
        let created = ["a.log", "b.log", "c.log"].map(|n| (n.to_string(), Created));
        assert_eq!(kinds(&events), created);
        append(&dir.join("c.log"), b"+");
        append(&dir.join("old.log"), b"+");
        std::fs::remove_file(dir.join("a.log")).unwrap();
        let events = listing_sweep(&mut table);
        assert_eq!(events, oracle_sweep(&dir, &mut known));
        let expected = [
            ("c.log", Modified),
            ("old.log", Modified),
            ("a.log", Removed),
        ];
        assert_eq!(kinds(&events), expected.map(|(n, k)| (n.to_string(), k)));
        // A seeded walk: every step appends to, creates, removes or
        // replaces some of six names, then both sweeps must tell the same
        // story. A replaced file is held open, as the daemon holds a log,
        // so its successor cannot take its inode number.
        let mut rng = crate::faults::SplitMix64::new(21);
        let mut replaced = 0;
        for step in 0..120 {
            let mut held = Vec::new();
            for _ in 0..rng.next_u64() % 4 {
                let path = dir.join(format!("w{}.log", rng.next_u64() % 6));
                match rng.next_u64() % 4 {
                    0 => drop(std::fs::remove_file(&path)),
                    1 => {
                        held.extend(std::fs::File::open(&path));
                        if std::fs::remove_file(&path).is_ok() {
                            append(&path, b"x");
                        }
                    }
                    _ => append(&path, b"x"),
                }
            }
            let events = listing_sweep(&mut table);
            assert_eq!(events, oracle_sweep(&dir, &mut known), "step {step}");
            replaced += events.windows(2).filter(|w| w[0].0 == w[1].0).count();
        }
        assert!(replaced > 0, "the walk replaced no file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_moved_directory_signature_triggers_the_listing() {
        let dir = temp_dir();
        let mut table = Table::census(dir.clone(), io());
        assert_eq!(table_sweep(&mut table), []);
        // Longer than any filesystem's timestamp tick.
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(dir.join("new.log"), b"x").unwrap();
        let found = table_sweep(&mut table);
        assert_eq!(found, [(dir.join("new.log"), WatchEventKind::Created)]);
        assert!(table.sweeps < RELIST_EVERY, "found by the fallback");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_creation_hidden_in_the_listing_tick_is_late_never_lost() {
        let dir = temp_dir();
        let mut table = Table::census(dir.clone(), io());
        std::fs::write(dir.join("late.log"), b"x").unwrap();
        // The same-tick case: the sample taken before the latest listing
        // already carried the timestamp this creation left behind.
        table.dir_sig = signature(&io(), &dir, true);
        for sweep in 1..RELIST_EVERY {
            assert_eq!(table_sweep(&mut table), [], "sweep {sweep}");
        }
        let found = table_sweep(&mut table);
        assert_eq!(found, [(dir.join("late.log"), WatchEventKind::Created)]);
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
        // Dropping stops too: the thread's share of the flag is gone.
        let w = FileWatcher::spawn(&dir, fast());
        let stop = Arc::clone(&w.stop);
        drop(w);
        assert_eq!(Arc::strong_count(&stop), 1);
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

    /// A schedule whose next gap is at least `gap`, advanced there by
    /// `idle_delay` alone.
    fn gap_of_at_least(gap: Duration) -> PollBackoff {
        let mut pace = PollBackoff::new(gap * 2);
        while pace.delay < gap {
            pace.idle_delay();
        }
        pace
    }

    /// A wait that ends in well under this gap was woken, not timed out.
    fn long_gap() -> PollBackoff {
        gap_of_at_least(Duration::from_secs(8))
    }

    fn append_frame(dir: &Path) {
        let log = crate::LogFile::attach_at_end(dir.join("wake.log")).unwrap();
        log.append(&crate::Frame::request(1, Vec::new())).unwrap();
    }

    #[test]
    fn an_append_in_this_process_ends_the_gap() {
        let dir = temp_dir();
        let mut pace = long_gap();
        let waiter = std::thread::spawn(move || {
            let waited = Stopwatch::start();
            pace.idle();
            waited.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        append_frame(&dir);
        let waited = waiter.join().unwrap();
        assert!(waited < Duration::from_secs(4), "woken after {waited:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_append_before_idle_is_not_lost() {
        let dir = temp_dir();
        let mut pace = long_gap();
        // Between the sample and the wait: where a poll that found
        // nothing is followed by an append, then by `idle`.
        append_frame(&dir);
        let waited = Stopwatch::start();
        pace.idle();
        let waited = waited.elapsed();
        assert!(waited < Duration::from_secs(4), "woken after {waited:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_write_from_outside_log_file_waits_for_its_poll() {
        let dir = temp_dir();
        let gap = Duration::from_millis(32);
        // Other tests in this process append through `LogFile`, and a wait
        // one of them ended says nothing: try until a gap passes without.
        for _ in 0..100 {
            let mut pace = gap_of_at_least(gap);
            let before = pace.seen;
            append(&dir.join("outside.log"), b"x");
            let waited = Stopwatch::start();
            pace.idle();
            if pace.seen == before {
                assert!(waited.elapsed() >= gap, "{:?}", waited.elapsed());
                std::fs::remove_dir_all(&dir).unwrap();
                return;
            }
        }
        panic!("every gap was ended by an append");
    }
}
