//! The tail-reading [`LogFile`] against the whole-buffer decoders.
//!
//! `LogFile::poll`/`poll_recovering` read only the bytes past their
//! cursor through a held handle; `codec::decode_stream` and
//! `decode_stream_recovering` over the *whole* file are the reference
//! they must agree with, frame for frame and byte for byte, under any
//! interleaving of whole, torn and corrupted appends — and on files that
//! were never written by this crate at all.

use mcsd_smartfam::codec::{decode_frame, decode_stream, decode_stream_recovering, DecodeStep};
use mcsd_smartfam::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, Frame, LogFile, LogRole, SmartFamError,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

fn temp_log() -> PathBuf {
    std::env::temp_dir().join(format!(
        "mcsd-log-tail-{}-{}.log",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small frame whose content is a function of `word`.
fn frame_for(word: u64) -> Frame {
    let text = format!("{:x}", word >> 16);
    match word & 3 {
        0 => Frame::request(word, vec![text]),
        1 => Frame::request_with_deadline(word, vec![text.clone(), text], word | 1),
        2 => Frame::response_ok(word, text.into_bytes()),
        _ => Frame::response_err(word, &text).in_batch(1 + (word >> 40), word & 0xff),
    }
}

/// One append through the real write path, with the fault `word` selects
/// injected at its first occurrence.
fn append(path: &PathBuf, word: u64) {
    let action = match (word >> 8) % 3 {
        0 => None,
        1 => Some(FaultAction::Torn {
            keep_sixteenths: 1 + ((word >> 12) % 15) as u8,
        }),
        _ => Some(FaultAction::Corrupt {
            xor_mask: 1 + ((word >> 12) % 255) as u8,
        }),
    };
    let batch = (word >> 4) & 1 == 1;
    let site = if batch {
        FaultSite::BatchAppend
    } else {
        FaultSite::SdAppend
    };
    let plan = action.map_or(FaultPlan::none(), |a| FaultPlan::none().with(site, 0, a));
    let writer = LogFile::attach_at_end(path)
        .unwrap()
        .with_faults(FaultInjector::new(plan), LogRole::Daemon);
    if batch {
        let frames: Vec<Frame> = (0..1 + (word >> 5) % 4)
            .map(|i| frame_for(word.rotate_left(7 * i as u32 + 1)))
            .collect();
        writer.append_batch(&frames).unwrap();
    } else {
        // A torn single append reports the injected fault; the bytes it
        // kept are on disk either way.
        let _ = writer.append(&frame_for(word.rotate_left(3)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: three cursors (two recovering, one plain) polled at
    /// random points of a random append history see exactly what the
    /// whole-file decoders see from the same offsets.
    #[test]
    fn tail_polls_agree_with_the_whole_file_decoders(ops in vec(any::<u64>(), 1..40)) {
        let path = temp_log();
        let mut cursors: Vec<LogFile> =
            (0..3).map(|_| LogFile::attach_at_start(&path).unwrap()).collect();
        // Finish with a poll of every cursor, twice: the second must be a
        // no-op (or the same error) on an unchanged file.
        let polls = (0..6u64).map(|c| (c % 3) << 1);
        for op in ops.into_iter().chain(polls) {
            if op & 1 == 1 {
                append(&path, op >> 1);
                continue;
            }
            let which = ((op >> 1) % 3) as usize;
            let data = std::fs::read(&path).unwrap();
            let before = cursors[which].cursor();
            if which < 2 {
                let want = decode_stream_recovering(&data, before as usize);
                let (frames, skipped) = cursors[which].poll_recovering().unwrap();
                prop_assert_eq!(frames, want.frames);
                prop_assert_eq!(skipped, want.skipped_bytes as u64);
                prop_assert_eq!(cursors[which].cursor(), want.new_pos as u64);
            } else {
                match decode_stream(&data, before as usize) {
                    Ok((want, new_pos)) => {
                        prop_assert_eq!(cursors[which].poll().unwrap(), want);
                        prop_assert_eq!(cursors[which].cursor(), new_pos as u64);
                    }
                    Err(_) => {
                        let got = cursors[which].poll();
                        prop_assert!(matches!(got, Err(SmartFamError::Corrupt { .. })), "{got:?}");
                        prop_assert_eq!(cursors[which].cursor(), before);
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Hostile bytes (ROADMAP 3d): on a file of arbitrary bytes laced with
    /// valid and mutated frames, arriving in arbitrary pieces,
    /// `poll_recovering` never panics, yields only frames whose exact
    /// checksummed encoding sits in the file at or past the cursor it was
    /// read from, moves its cursor monotonically, and holds at a tail
    /// that is not (yet) a complete valid frame.
    #[test]
    fn recovering_poll_survives_hostile_files(
        words in vec(any::<u64>(), 1..24),
        cuts in vec(any::<u16>(), 0..4),
    ) {
        let mut hostile = Vec::new();
        for w in &words {
            match w % 4 {
                // Raw garbage, magic bytes and huge lengths included.
                0 => hostile.extend_from_slice(&w.to_le_bytes()),
                1 => hostile.extend_from_slice(&[b'S', 0xff, 0xff, (w >> 8) as u8, (w >> 16) as u8 & 0x3f]),
                2 => frame_for(*w).encode_into(&mut hostile),
                _ => {
                    let start = hostile.len();
                    frame_for(*w).encode_into(&mut hostile);
                    let at = start + (*w >> 24) as usize % (hostile.len() - start);
                    hostile[at] ^= 1 + (w >> 32) as u8 % 255;
                }
            }
        }
        let mut ends: Vec<usize> = cuts.iter().map(|c| *c as usize % (hostile.len() + 1)).collect();
        ends.push(hostile.len());
        ends.sort_unstable();
        let path = temp_log();
        let mut log = LogFile::attach_at_start(&path).unwrap();
        let mut file = std::fs::File::options().append(true).open(&path).unwrap();
        let mut written = 0;
        for end in ends {
            file.write_all(&hostile[written..end]).unwrap();
            written = end;
            let before = log.cursor() as usize;
            let (frames, skipped) = log.poll_recovering().unwrap();
            let after = log.cursor() as usize;
            prop_assert!(before <= after && after <= written);
            prop_assert!(skipped as usize <= after - before);
            let mut from = before;
            for frame in frames {
                let bytes = frame.encode();
                let found = hostile[from..after].windows(bytes.len()).position(|w| w == bytes);
                prop_assert!(found.is_some(), "{frame:?} is not in the file past {from}");
                from += found.unwrap_or(0) + bytes.len();
            }
            prop_assert!(
                !matches!(decode_frame(&hostile[after..written]), DecodeStep::Complete { .. }),
                "cursor stopped short of a complete frame"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
