//! Append/scan access to one module's log file.
//!
//! "Each data-intensive processing module/operation has a log file in the
//! log-file folder. Thus, when a new data-intensive module is preloaded to
//! the McSD node, a corresponding log-file is created. The log file of each
//! data-intensive module is an efficient channel for the host node to
//! communicate with the smart-storage node" (§IV-A).
//!
//! Both sides append [`Frame`]s, and each side keeps **one** read cursor
//! per log: the daemon's per-log state, and the host client's response
//! stream that routes completions to its in-flight calls by id. A
//! [`LogFile`] holds its file open for its whole life (read + `O_APPEND`
//! on one descriptor), so every appended byte crosses the file boundary
//! and the decoder exactly once per side:
//!
//! - **Held handle.** A poll `fstat`s the held descriptor. Unchanged
//!   length ⇒ return at once, nothing read, nothing allocated. Grown ⇒
//!   read only `[cursor, len)` into a reused buffer and scan it from its
//!   start. Shrunk below the cursor ⇒ [`SmartFamError::Corrupt`]: an
//!   in-place truncation keeps the inode, so the held handle sees it.
//! - **Read in place.** [`LogFile::poll_each`] shows its caller every new
//!   frame as a [`FrameView`] borrowed from that buffer; what the caller
//!   passes on it copies out, nothing else is copied. [`LogFile::poll`]
//!   and [`LogFile::poll_recovering`] copy every frame out, for callers
//!   that keep them all.
//! - **Cursor alignment.** A cursor must sit on a frame boundary. A
//!   *sampled* file length is not one — another writer's batch may be half
//!   on disk when the length is read, and a stray magic byte followed by a
//!   large length field reads as an incomplete frame forever. The end
//!   offset of this handle's *own* append is one, and it precedes every
//!   reply to that append ([`LogFile::append_and_rebase`]).

use crate::codec::{decode_stream, decode_view, scan, DecodeStep, Frame, FrameView};
use crate::error::SmartFamError;
use crate::faults::{FaultAction, FaultInjector, FaultSite};
use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Where module `module`'s log lives under `dir` — the crate's one
/// spelling of `<dir>/[.replica<r>/]<module>.log`. Copy 0 is the module
/// log itself; copy `r > 0` is its `r`-th replica, in a hidden directory
/// the watcher and the replay scan never look into.
pub(crate) fn log_path(dir: &Path, module: &str, replica: usize) -> PathBuf {
    let name = format!("{module}.log");
    match replica {
        0 => dir.join(name),
        r => dir.join(format!(".replica{r}")).join(name),
    }
}

/// The inverse of [`log_path`]: the module whose log (or replica copy)
/// `path` is, `None` for any file not named `<module>.log`.
pub(crate) fn module_of(path: &Path) -> Option<Cow<'_, str>> {
    (path.extension()? == "log").then(|| path.file_stem().unwrap_or_default().to_string_lossy())
}

/// Which side of the log a handle belongs to — selects the fault-injection
/// sites its appends and polls are counted under, so host and daemon
/// traffic never race for the same occurrence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRole {
    /// The host client (appends requests, polls for responses).
    Host,
    /// The SD daemon (polls for requests, appends responses).
    Daemon,
}

impl LogRole {
    fn append_site(self) -> FaultSite {
        match self {
            LogRole::Host => FaultSite::HostAppend,
            LogRole::Daemon => FaultSite::SdAppend,
        }
    }

    fn poll_site(self) -> FaultSite {
        match self {
            LogRole::Host => FaultSite::HostPoll,
            LogRole::Daemon => FaultSite::SdPoll,
        }
    }
}

/// Read `[from, to)` of `file` into `buf`, replacing its contents. Every
/// append is `O_APPEND`, so moving the descriptor's position here never
/// disturbs one.
fn read_range_into(
    mut file: &File,
    from: u64,
    to: u64,
    buf: &mut Vec<u8>,
) -> Result<(), SmartFamError> {
    let want = to.saturating_sub(from);
    buf.clear();
    buf.reserve(want as usize);
    file.seek(SeekFrom::Start(from))?;
    file.take(want).read_to_end(buf)?;
    Ok(())
}

/// The largest read buffer a [`LogFile`] keeps between polls. A poll that
/// had to read more — a restart replaying a whole history, one huge result
/// frame — gives the buffer back, so a handle's memory follows the traffic
/// it is reading now, not the age of its log.
pub(crate) const TAIL_KEEP_BYTES: usize = 256 * 1024;

/// Done with the contents of `buf`: keep it for the next use unless this
/// one grew it past [`TAIL_KEEP_BYTES`]. The daemon's reply buffers and
/// parameter sets follow the same rule, so one huge result or parameter is
/// not held for ever either.
pub(crate) fn give_back(buf: &mut Vec<u8>) {
    if buf.capacity() > TAIL_KEEP_BYTES {
        *buf = Vec::new();
    }
}

/// Outcome of a coalesced batch append ([`LogFile::append_batch`]); the
/// default is an empty batch's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAppendOutcome {
    /// Frames of the batch fully durable on disk. A torn batch keeps a
    /// prefix; only frames whose every byte was written count.
    pub frames_durable: usize,
    /// Bytes actually written (including a torn tail's partial frame).
    pub bytes: u64,
    /// fsyncs issued — exactly one for a non-empty batch.
    pub fsyncs: u64,
    /// Whether an injected torn write cut the batch short; the caller
    /// retries only the frames past `frames_durable`.
    pub torn: bool,
}

/// Held handle to a module's log file with a private read cursor.
#[derive(Debug)]
pub struct LogFile {
    path: PathBuf,
    /// Opened read + `O_APPEND`: writes land at the end whatever the
    /// descriptor's position, which polls (`&mut self`) are free to move.
    file: File,
    cursor: u64,
    /// File length at the latest poll: the cursor may hold short of it (at
    /// an incomplete tail), and re-reading that tail before the file grows
    /// again would decode the same bytes to the same result.
    seen_len: u64,
    /// The bytes `[cursor, len)` of the latest poll that had to read; kept
    /// for reuse up to [`TAIL_KEEP_BYTES`].
    tail: Vec<u8>,
    injector: FaultInjector,
    role: LogRole,
}

impl LogFile {
    /// Open (creating if necessary) the log file at `path`, with the read
    /// cursor at the current end — a reader only sees frames appended
    /// after it opened, like the daemon attaching to a preloaded module's
    /// log. The end is a sampled length: align the cursor with
    /// [`LogFile::append_and_rebase`] when other writers may be active.
    pub fn attach_at_end(path: impl Into<PathBuf>) -> Result<LogFile, SmartFamError> {
        let mut log = LogFile::attach_at_start(path)?;
        log.cursor = log.len()?;
        log.seen_len = log.cursor;
        Ok(log)
    }

    /// Open (creating if necessary) with the cursor at the start — the
    /// reader replays the whole history.
    pub fn attach_at_start(path: impl Into<PathBuf>) -> Result<LogFile, SmartFamError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::options()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        Ok(LogFile {
            path,
            file,
            cursor: 0,
            seen_len: 0,
            tail: Vec::new(),
            injector: FaultInjector::disabled(),
            role: LogRole::Host,
        })
    }

    /// Attach a fault injector, counting this handle's appends and polls
    /// under `role`'s sites. Production code keeps the default disabled
    /// injector: a clone of one shared instance whose hooks return before
    /// touching any counter.
    pub fn with_faults(mut self, injector: FaultInjector, role: LogRole) -> LogFile {
        self.injector = injector;
        self.role = role;
        self
    }

    /// The log file's filesystem path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current read cursor (byte offset of the next unread frame).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Append one frame. Returns the number of bytes written (for NFS
    /// cost accounting).
    ///
    /// Under an active [`FaultInjector`] the write may be torn (a prefix
    /// is written and the append reports [`SmartFamError::FaultInjected`])
    /// or corrupted (one mid-body byte flipped; the append "succeeds" the
    /// way a silent NFS corruption would).
    pub fn append(&self, frame: &Frame) -> Result<u64, SmartFamError> {
        self.append_encoded(&frame.encode())
    }

    /// [`LogFile::append`] for exactly one frame its caller has already
    /// encoded — the host's submit from borrowed parameters, the daemon's
    /// reply from its kept buffer. One append-site occurrence.
    pub(crate) fn append_encoded(&self, bytes: &[u8]) -> Result<u64, SmartFamError> {
        let fault = self.injector.fire(self.role.append_site());
        let written = self.write_faulted(bytes, fault)?;
        if written < bytes.len() {
            return Err(SmartFamError::FaultInjected {
                detail: format!("torn append: wrote {written} of {} bytes", bytes.len()),
            });
        }
        Ok(written as u64)
    }

    /// Append one already-encoded frame like [`LogFile::append`], then
    /// restart the read cursor at the end offset of that append — a frame
    /// boundary that precedes every reply to the frame (see the module
    /// docs). Everything before it is skipped
    /// unread, so call this only when nothing earlier is still awaited.
    pub fn append_and_rebase(&mut self, bytes: &[u8]) -> Result<u64, SmartFamError> {
        let written = self.append_encoded(bytes)?;
        // An `O_APPEND` write leaves the descriptor at the end of the
        // bytes it wrote, wherever other writers have got to since.
        self.cursor = self.file.stream_position()?;
        self.seen_len = self.cursor;
        Ok(written)
    }

    /// Append a coalesced batch of frames with **one fsync for the whole
    /// batch**: the frames are encoded back to back into one buffer,
    /// written with one call, and made durable by a single `sync_data`.
    /// This is the daemon's batched-commit primitive — per-frame `append`
    /// never fsyncs, and a batch pays one fsync however many frames it
    /// holds, so syncs per answered call fall as batches grow.
    ///
    /// Faults are counted under [`FaultSite::BatchAppend`] (one occurrence
    /// per batch). Unlike [`LogFile::append`], a torn batch is *not* an
    /// error: the write keeps a prefix and the outcome reports how many
    /// frames of the batch are fully durable, so the caller retries only
    /// the torn suffix. An injected corruption flips one byte mid-buffer
    /// (the frame it lands in fails its checksum and the recovering
    /// reader skips exactly that frame) and "succeeds" the way a silent
    /// NFS corruption would.
    pub fn append_batch(&self, frames: &[Frame]) -> Result<BatchAppendOutcome, SmartFamError> {
        let mut bytes = Vec::with_capacity(frames.iter().map(Frame::encoded_len).sum());
        for frame in frames {
            frame.encode_into(&mut bytes);
        }
        self.append_batch_encoded(&bytes, frames.iter().map(Frame::encoded_len))
    }

    /// [`LogFile::append_batch`] for frames its caller has already encoded
    /// back to back into `bytes`, `lens` their wire lengths in order — the
    /// daemon encodes a batch once for the first write and a torn
    /// suffix's retry. One [`FaultSite::BatchAppend`] occurrence and one
    /// `sync_data`; nothing of either for an empty batch.
    pub(crate) fn append_batch_encoded(
        &self,
        bytes: &[u8],
        lens: impl IntoIterator<Item = usize>,
    ) -> Result<BatchAppendOutcome, SmartFamError> {
        if bytes.is_empty() {
            return Ok(BatchAppendOutcome::default());
        }
        let fault = self.injector.fire(FaultSite::BatchAppend);
        let written = self.write_faulted(bytes, fault)?;
        self.file.sync_data()?;
        // A frame is durable only if its last byte made it to disk.
        let mut end = 0usize;
        let frames_durable = lens
            .into_iter()
            .take_while(|len| {
                end += len;
                end <= written
            })
            .count();
        Ok(BatchAppendOutcome {
            frames_durable,
            bytes: written as u64,
            fsyncs: 1,
            torn: written < bytes.len(),
        })
    }

    /// The one write path — every byte that reaches a module log or a
    /// replica copy goes through here, and nothing else tears or corrupts.
    /// Applies an injected `fault` to the encoded `bytes` (corrupt = one
    /// byte flipped mid-buffer, so length headers still parse but a
    /// checksum fails; torn = only a prefix is written; any other action
    /// is the caller's business) and appends them through the held
    /// handle, then wakes every idle wait in the process (the append wake
    /// of `watch.rs`). Returns the bytes written, short of `bytes.len()`
    /// exactly when the write was torn. The caller owns the occurrence
    /// accounting: `fault` is what [`FaultInjector::fire`] returned at its
    /// site.
    pub(crate) fn write_faulted(
        &self,
        bytes: &[u8],
        fault: Option<FaultAction>,
    ) -> Result<usize, SmartFamError> {
        let flipped;
        let mut out = bytes;
        match fault {
            Some(FaultAction::Corrupt { xor_mask }) => {
                let pos = 5 + (bytes.len().saturating_sub(9)) / 2;
                if pos < bytes.len() {
                    let mut copy = bytes.to_vec();
                    copy[pos] ^= xor_mask.max(1);
                    flipped = copy;
                    out = &flipped;
                }
            }
            Some(FaultAction::Torn { keep_sixteenths }) => {
                let keep = (bytes.len() * keep_sixteenths.min(15) as usize / 16)
                    .clamp(1, bytes.len().saturating_sub(1).max(1));
                out = &bytes[..keep];
            }
            _ => {}
        }
        (&self.file).write_all(out)?;
        crate::watch::note_append();
        Ok(out.len())
    }

    /// The bytes `[from, to)` of the file (fewer when it is shorter) — how
    /// a replication group reads back the frame it just wrote, or copies
    /// a verified prefix, without re-reading the copy's whole history.
    /// For handles with a single owner: two threads reading through one
    /// shared handle would race on the descriptor position.
    pub(crate) fn read_range(&self, from: u64, to: u64) -> Result<Vec<u8>, SmartFamError> {
        let mut buf = Vec::new();
        read_range_into(&self.file, from, to, &mut buf)?;
        Ok(buf)
    }

    /// Cut the file back to `len` bytes — how a replication group drops
    /// an unverified tail. The next append lands at the new end.
    pub(crate) fn truncate_to(&self, len: u64) -> Result<(), SmartFamError> {
        Ok(self.file.set_len(len)?)
    }

    /// Bring the bytes appended since the last poll, `[cursor, len)`, into
    /// `self.tail`. `false` — without reading or allocating — when the
    /// file has not grown since the last poll.
    fn read_tail(&mut self) -> Result<bool, SmartFamError> {
        let len = self.len()?;
        if len < self.cursor {
            // The file shrank under us — treat as corruption.
            return Err(SmartFamError::Corrupt {
                offset: self.cursor,
                detail: "log file was truncated".into(),
            });
        }
        if len == self.seen_len {
            return Ok(false);
        }
        read_range_into(&self.file, self.cursor, len, &mut self.tail)?;
        self.seen_len = len;
        Ok(true)
    }

    /// Read every complete frame appended since the last poll, advancing
    /// the cursor past them. An incomplete trailing frame (a concurrent
    /// append in progress) is left for the next poll.
    pub fn poll(&mut self) -> Result<Vec<Frame>, SmartFamError> {
        if !self.read_tail()? {
            return Ok(Vec::new());
        }
        let decoded = decode_stream(&self.tail, 0);
        self.release_poll();
        match decoded {
            Ok((frames, used)) => {
                self.cursor += used as u64;
                Ok(frames)
            }
            Err(detail) => {
                // Corruption is never self-healing: the next poll must
                // re-read and report it again, not see "nothing new".
                self.seen_len = self.cursor;
                Err(SmartFamError::Corrupt {
                    offset: self.cursor,
                    detail: format!("past the cursor, {detail}"),
                })
            }
        }
    }

    /// The recovering poll, in place: show `each` every complete frame
    /// appended since the last poll — borrowed from the read buffer, with
    /// its offset in this poll's bytes — and advance the cursor past them.
    /// Corruption does not poison the cursor: provably-corrupt bytes are
    /// skipped (scan-ahead to the next valid frame) and their count is
    /// returned. An injected stale read (NFS-visibility delay) makes the
    /// poll see no new data; the bytes stay for later.
    ///
    /// The bytes stay readable ([`LogFile::frame_at`]) until the caller
    /// ends the poll with [`LogFile::release_poll`].
    pub fn poll_each(
        &mut self,
        each: impl FnMut(usize, FrameView<'_>),
    ) -> Result<u64, SmartFamError> {
        // `Hide` is the only action valid at a poll site.
        let hidden = self.injector.fire(self.role.poll_site()).is_some();
        if hidden || !self.read_tail()? {
            return Ok(0);
        }
        let end = scan(&self.tail, 0, true, each);
        self.cursor += end.new_pos as u64;
        Ok(end.skipped_bytes as u64)
    }

    /// The frame the latest [`LogFile::poll_each`] showed at `offset`,
    /// again: a caller that decides from ids first comes back for the few
    /// frames it copies out.
    pub fn frame_at(&self, offset: usize) -> Option<FrameView<'_>> {
        match decode_view(self.tail.get(offset..)?) {
            DecodeStep::Complete { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// Done with the bytes of the latest poll: the buffer is kept for the
    /// next one unless this poll grew it past 256 KiB.
    pub fn release_poll(&mut self) {
        give_back(&mut self.tail);
    }

    /// [`LogFile::poll_each`] with every frame copied out: the new frames
    /// and the number of bytes skipped by this poll.
    pub fn poll_recovering(&mut self) -> Result<(Vec<Frame>, u64), SmartFamError> {
        let mut frames = Vec::new();
        let skipped = self.poll_each(|_, view| frames.push(view.to_frame()))?;
        self.release_poll();
        Ok((frames, skipped))
    }

    /// Current length of the log file in bytes.
    pub fn len(&self) -> Result<u64, SmartFamError> {
        Ok(self.file.metadata()?.len())
    }

    /// Whether the log file has no content.
    pub fn is_empty(&self) -> Result<bool, SmartFamError> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameBody;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn temp_log() -> PathBuf {
        std::env::temp_dir().join(format!(
            "mcsd-log-{}-{}.log",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn append_then_poll() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec!["x".into()])).unwrap();
        writer.append(&Frame::request(2, vec!["y".into()])).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].id, 1);
        assert_eq!(frames[1].id, 2);
        // Nothing new on a second poll.
        assert!(reader.poll().unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn attach_at_end_skips_history() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        let mut reader = LogFile::attach_at_end(&path).unwrap();
        assert!(reader.poll().unwrap().is_empty());
        writer.append(&Frame::request(2, vec![])).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mixed_frames_in_one_log() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer
            .append(&Frame::request(1, vec!["in".into()]))
            .unwrap();
        writer.append(&Frame::response_ok(1, vec![42u8])).unwrap();
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 2);
        assert!(frames[0].is_request());
        assert!(matches!(frames[1].body, FrameBody::Response { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_append_is_deferred() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        // Simulate a torn concurrent write: append half a frame by hand.
        let bytes = Frame::request(2, vec!["big-parameter".into()]).encode();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&bytes[..bytes.len() / 2]).unwrap();
        }
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 1);
        // Complete the torn frame; the reader picks it up next poll.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&bytes[bytes.len() / 2..]).unwrap();
        }
        let frames = reader.poll().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        reader.poll().unwrap();
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(reader.poll(), Err(SmartFamError::Corrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_reported_by_every_plain_poll() {
        let path = temp_log();
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        std::fs::write(&path, b"not a frame").unwrap();
        for _ in 0..2 {
            assert!(matches!(reader.poll(), Err(SmartFamError::Corrupt { .. })));
            assert_eq!(reader.cursor(), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rebase_starts_the_cursor_at_the_end_of_the_own_append() {
        let path = temp_log();
        let other = LogFile::attach_at_start(&path).unwrap();
        other.append(&Frame::request(1, vec![])).unwrap();
        let mut log = LogFile::attach_at_end(&path).unwrap();
        // The file grows between the attach (a sampled length) and the
        // own append; the rebased cursor is past both.
        other.append(&Frame::request(2, vec![])).unwrap();
        let own = Frame::request(3, vec!["mine".into()]);
        let n = log.append_and_rebase(&own.encode()).unwrap();
        assert_eq!(n, own.encoded_len() as u64);
        assert_eq!(log.cursor(), log.len().unwrap());
        other.append(&Frame::response_ok(3, vec![1u8])).unwrap();
        let frames = log.poll().unwrap();
        assert_eq!(frames.len(), 1);
        assert!(!frames[0].is_request());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_reports_bytes_written() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let frame = Frame::request(1, vec!["abc".into()]);
        let n = writer.append(&frame).unwrap();
        assert_eq!(n, frame.encode().len() as u64);
        assert_eq!(writer.len().unwrap(), n);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_torn_append_fails_then_reader_recovers() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let plan = FaultPlan::none().with(
            FaultSite::HostAppend,
            0,
            FaultAction::Torn { keep_sixteenths: 8 },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Host);
        let torn = writer.append(&Frame::request(1, vec!["param".into()]));
        assert!(matches!(torn, Err(SmartFamError::FaultInjected { .. })));
        // A recovering reader holds at the torn tail (no skip yet)...
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert!(frames.is_empty());
        assert_eq!(skipped, 0);
        // ...the retry (occurrence 1, not scheduled) goes through, and the
        // reader skips the torn prefix to reach it.
        writer
            .append(&Frame::request(1, vec!["param".into()]))
            .unwrap();
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(frames.len(), 1);
        assert!(skipped > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_corrupt_append_is_skipped_by_recovering_poll() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let plan = FaultPlan::none().with(
            FaultSite::SdAppend,
            0,
            FaultAction::Corrupt { xor_mask: 0x5a },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Daemon);
        let corrupt_len = writer
            .append(&Frame::response_ok(1, vec![7u8; 32]))
            .unwrap();
        writer
            .append(&Frame::response_ok(2, vec![8u8; 32]))
            .unwrap();
        // Plain poll would poison the cursor; recovering poll salvages
        // frame 2 and reports frame 1's bytes as skipped.
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].id, 2);
        assert_eq!(skipped, corrupt_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_hidden_poll_defers_frames() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        writer.append(&Frame::request(1, vec![])).unwrap();
        let plan = FaultPlan::none().with(FaultSite::HostPoll, 0, FaultAction::Hide { polls: 2 });
        let mut reader = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Host);
        // Two stale reads, then the data becomes visible.
        assert!(reader.poll_recovering().unwrap().0.is_empty());
        assert!(reader.poll_recovering().unwrap().0.is_empty());
        let (frames, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(skipped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_append_coalesces_with_single_fsync() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let frames: Vec<Frame> = (0..3)
            .map(|i| Frame::response_ok(i, vec![i as u8; 16]).in_batch(1, i))
            .collect();
        let out = writer.append_batch(&frames).unwrap();
        assert_eq!(out.frames_durable, 3);
        assert_eq!(out.fsyncs, 1);
        assert!(!out.torn);
        let total: usize = frames.iter().map(|f| f.encode().len()).sum();
        assert_eq!(out.bytes, total as u64);
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let got = reader.poll().unwrap();
        assert_eq!(got, frames);
        assert_eq!(got[2].batch_id(), Some(1));
        assert_eq!(got[2].batch_index(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_batch_is_free() {
        let path = temp_log();
        let writer = LogFile::attach_at_start(&path).unwrap();
        let out = writer.append_batch(&[]).unwrap();
        assert_eq!(out.fsyncs, 0);
        assert_eq!(out.bytes, 0);
        assert!(writer.is_empty().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_batch_reports_durable_prefix_and_suffix_retry_recovers() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        // 7/16 of four equal frames tears mid-frame (8/16 would land
        // exactly on a frame boundary and leave no torn tail bytes).
        let plan = FaultPlan::none().with(
            FaultSite::BatchAppend,
            0,
            FaultAction::Torn { keep_sixteenths: 7 },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Daemon);
        let frames: Vec<Frame> = (0..4)
            .map(|i| Frame::response_ok(i, vec![7u8; 20]).in_batch(1, i))
            .collect();
        let out = writer.append_batch(&frames).unwrap();
        assert!(out.torn);
        assert!(out.frames_durable < frames.len());
        assert!(out.frames_durable >= 1);
        // The durable prefix is readable; the torn tail holds the cursor.
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (got, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(got.len(), out.frames_durable);
        assert_eq!(skipped, 0);
        // Retrying ONLY the torn suffix (occurrence 1 is unscheduled)
        // makes the remaining frames readable past the torn bytes.
        let retry = writer.append_batch(&frames[out.frames_durable..]).unwrap();
        assert!(!retry.torn);
        assert_eq!(retry.fsyncs, 1);
        let (got, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(got.len(), frames.len() - out.frames_durable);
        assert!(skipped > 0, "torn tail bytes are skipped on resync");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_batch_loses_exactly_one_frame_to_the_recovering_reader() {
        use crate::faults::{FaultAction, FaultPlan, FaultSite};
        let path = temp_log();
        let plan = FaultPlan::none().with(
            FaultSite::BatchAppend,
            0,
            FaultAction::Corrupt { xor_mask: 0x5a },
        );
        let writer = LogFile::attach_at_start(&path)
            .unwrap()
            .with_faults(FaultInjector::new(plan), LogRole::Daemon);
        let frames: Vec<Frame> = (0..3)
            .map(|i| Frame::response_ok(i, vec![9u8; 24]).in_batch(1, i))
            .collect();
        let out = writer.append_batch(&frames).unwrap();
        assert_eq!(out.frames_durable, 3); // silent corruption "succeeds"
        let mut reader = LogFile::attach_at_start(&path).unwrap();
        let (got, skipped) = reader.poll_recovering().unwrap();
        assert_eq!(got.len(), 2);
        assert!(skipped > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!(
            "mcsd-log-dir-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("nested/module.log");
        let log = LogFile::attach_at_start(&path).unwrap();
        assert!(log.is_empty().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
