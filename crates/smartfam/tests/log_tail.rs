//! The tail-reading [`LogFile`] against the whole-buffer decoders, and the
//! borrowed decoder against the owned one.
//!
//! `LogFile::poll_recovering`/`poll_each` read only the bytes past their
//! cursor through a held handle; a recovering `scan` over the *whole*
//! file is the reference they must agree with, frame for frame and byte for byte, under any
//! interleaving of whole, torn and corrupted appends — and on files that
//! were never written by this crate at all. Underneath, `decode_view` and
//! `scan` are held to `decode_frame` on the same hostile bytes.

use mcsd_smartfam::codec::{
    decode_frame, decode_stream, decode_view, encode_request_into, scan, DecodeStep, ScanEnd,
    ViewBody, ViewStep,
};
use mcsd_smartfam::{
    FaultAction, FaultInjector, FaultPlan, FaultSite, Frame, FrameBody, LogFile, LogRole, Status,
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
        _ => Frame {
            id: word,
            batch: 0,
            body: FrameBody::Response {
                status: Status::Error,
                payload: text.into_bytes().into(),
            },
        }
        .in_batch(1 + (word >> 40), word & 0xff),
    }
}

/// The whole-file reference of a recovering poll: a recovering `scan` of
/// `data` from `offset`, every frame copied out.
fn recovered(data: &[u8], offset: usize) -> (Vec<Frame>, ScanEnd) {
    let mut frames = Vec::new();
    let end = scan(data, offset, true, |_, view| frames.push(view.to_frame()));
    (frames, end)
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

/// Arbitrary bytes laced with valid and mutated frames: what a decoder
/// may meet in a file this crate did not write.
fn hostile_bytes(words: &[u64]) -> Vec<u8> {
    let mut hostile = Vec::new();
    for w in words {
        match w % 5 {
            // Raw garbage, magic bytes and huge lengths included.
            0 => hostile.extend_from_slice(&w.to_le_bytes()),
            1 => hostile.extend_from_slice(&[
                b'S',
                0xff,
                0xff,
                (w >> 8) as u8,
                (w >> 16) as u8 & 0x3f,
            ]),
            2 => frame_for(*w).encode_into(&mut hostile),
            3 => {
                let start = hostile.len();
                frame_for(*w).encode_into(&mut hostile);
                let at = start + (*w >> 24) as usize % (hostile.len() - start);
                hostile[at] ^= 1 + (w >> 32) as u8 % 255;
            }
            // A body byte mutated and the frame sealed again: the checksum
            // holds, so the body parser is all that stands before a
            // non-UTF-8 parameter, a bad status, a lying length.
            _ => {
                let start = hostile.len();
                frame_for(*w).encode_into(&mut hostile);
                let body = start + 5..hostile.len() - 4;
                hostile[body.start + (*w >> 24) as usize % body.len()] ^= 1 + (w >> 32) as u8 % 255;
                let seal = fnv1a(&hostile[body.clone()]).to_le_bytes();
                hostile[body.end..].copy_from_slice(&seal);
            }
        }
    }
    hostile
}

/// The frame checksum, by the codec's module docs: FNV-1a over the body.
fn fnv1a(data: &[u8]) -> u32 {
    data.iter().fold(0x811c_9dc5, |h, b| {
        (h ^ u32::from(*b)).wrapping_mul(0x0100_0193)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential: two recovering cursors, one copying frames out and
    /// one reading them in place, polled at random points of a random
    /// append history see exactly what the whole-file decoder sees from
    /// the same offsets.
    #[test]
    fn tail_polls_agree_with_the_whole_file_decoders(ops in vec(any::<u64>(), 1..40)) {
        let path = temp_log();
        let mut cursors: Vec<LogFile> =
            (0..2).map(|_| LogFile::attach_at_start(&path).unwrap()).collect();
        // Finish with a poll of every cursor, twice: the second must be a
        // no-op on an unchanged file.
        let polls = (0..4u64).map(|c| (c % 2) << 1);
        for op in ops.into_iter().chain(polls) {
            if op & 1 == 1 {
                append(&path, op >> 1);
                continue;
            }
            let which = ((op >> 1) % 2) as usize;
            let data = std::fs::read(&path).unwrap();
            let before = cursors[which].cursor();
            let (want, end) = recovered(&data, before as usize);
            let (frames, skipped) = if which == 0 {
                cursors[which].poll_recovering().unwrap()
            } else {
                // In place: what the poll shows, and shows again at the
                // same offset until the poll is released.
                let log = &mut cursors[which];
                let mut shown = Vec::new();
                let skipped = log.poll_each(|at, view| shown.push((at, view.to_frame()))).unwrap();
                for (at, frame) in &shown {
                    let again = log.frame_at(*at).map(|view| view.to_frame());
                    prop_assert_eq!(again.as_ref(), Some(frame));
                    prop_assert_eq!(&data[before as usize + at..][..frame.encoded_len()], &frame.encode()[..]);
                }
                log.release_poll();
                (shown.into_iter().map(|(_, frame)| frame).collect(), skipped)
            };
            prop_assert_eq!(frames, want);
            prop_assert_eq!(skipped, end.skipped_bytes as u64);
            prop_assert_eq!(cursors[which].cursor(), end.new_pos as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Hostile bytes (DESIGN.md §10, codec): on a file of arbitrary bytes laced with
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
        let hostile = hostile_bytes(&words);
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

    /// The decoder (DESIGN.md §10, codec): from any offset of hostile bytes, cut at
    /// any end, the borrowed and the owned decoder take the same step —
    /// Complete with the same frame and length, Incomplete, or Corrupt
    /// with the same reason — neither panics, and a frame either yields
    /// re-encodes to exactly the bytes it was read from, checksum included.
    #[test]
    fn the_view_decoder_takes_the_owned_decoders_steps(
        words in vec(any::<u64>(), 1..12),
        cuts in vec(any::<u16>(), 0..6),
    ) {
        let hostile = hostile_bytes(&words);
        let ends = cuts.iter().map(|c| *c as usize % (hostile.len() + 1)).chain([hostile.len()]);
        for end in ends {
            for at in 0..=end {
                let bytes = &hostile[at..end];
                match (decode_view(bytes), decode_frame(bytes)) {
                    (ViewStep::Complete { frame: view, .. }, DecodeStep::Complete { frame, consumed }) => {
                        prop_assert_eq!(view.wire_len, consumed);
                        prop_assert_eq!(view.is_request(), frame.is_request());
                        prop_assert_eq!(&view.to_frame(), &frame);
                        prop_assert_eq!(&frame.encode()[..], &bytes[..consumed]);
                    }
                    (ViewStep::Incomplete, DecodeStep::Incomplete) => {}
                    (ViewStep::Corrupt { detail: view }, DecodeStep::Corrupt { detail }) => {
                        prop_assert_eq!(view, detail);
                    }
                    (view, owned) => prop_assert!(false, "at {}..{}: {:?} but {:?}", at, end, view, owned),
                }
            }
        }
    }

    /// The stream loop always advances or stops: frames are shown in
    /// offset order without overlap, every byte before the end is a shown
    /// frame or a counted skip, the end is not a complete frame — and the
    /// owned decoder reads the frame shown at each offset, as the owned
    /// `decode_stream` is this loop with every frame copied out.
    #[test]
    fn scan_always_advances_or_stops(
        words in vec(any::<u64>(), 1..24),
        start in any::<u16>(),
    ) {
        let hostile = hostile_bytes(&words);
        let start = start as usize % (hostile.len() + 1);
        for recovering in [true, false] {
            let mut shown = Vec::new();
            let mut frames = Vec::new();
            let end = scan(&hostile, start, recovering, |at, view| {
                shown.push((at, view.wire_len));
                frames.push(view.to_frame());
            });
            let mut covered = 0;
            let mut next = start;
            for &(at, len) in &shown {
                prop_assert!(at >= next && len > 0, "frame at {} after {}", at, next);
                next = at + len;
                covered += len;
            }
            prop_assert!(next <= end.new_pos && end.new_pos <= hostile.len());
            prop_assert_eq!(end.new_pos - start, covered + end.skipped_bytes);
            let at_end = decode_view(&hostile[end.new_pos..]);
            if recovering {
                prop_assert_eq!(&end.corrupt, &None);
                prop_assert!(!matches!(at_end, ViewStep::Complete { .. }));
                for (&(at, _), frame) in shown.iter().zip(&frames) {
                    match decode_frame(&hostile[at..]) {
                        DecodeStep::Complete { frame: owned, .. } => prop_assert_eq!(&owned, frame),
                        other => prop_assert!(false, "at {}: {:?}", at, other),
                    }
                }
            } else {
                prop_assert_eq!(end.skipped_bytes, 0);
                prop_assert_eq!(end.corrupt.is_some(), matches!(at_end, ViewStep::Corrupt { .. }));
                prop_assert_eq!(end.corrupt.is_none(), matches!(at_end, ViewStep::Incomplete));
                prop_assert_eq!(decode_stream(&hostile, start).ok(), end.corrupt.is_none().then_some((frames, end.new_pos)));
            }
        }
    }

    /// Parameters are read where they lie and come out as they went in.
    #[test]
    fn params_round_trip_through_the_view(
        params in vec("[a-z0-9α-ωЖ日本語 /|]{0,16}", 0..6),
        id in any::<u64>(),
        expires in any::<u64>(),
    ) {
        params_round_trip(id, &params, expires)?;
    }

    /// A recycled set comes out as a fresh copy would: whatever it held
    /// before — more strings or fewer, longer or shorter — is gone.
    #[test]
    fn params_copied_into_a_used_set_equal_a_fresh_copy(
        params in vec("[a-z0-9α-ωЖ日本語 /|]{0,16}", 0..6),
        prior in vec("[a-zЖ日]{0,24}", 0..8),
    ) {
        let mut wire = Vec::new();
        encode_request_into(&mut wire, 7, &params, 0);
        let ViewStep::Complete { frame: view, .. } = decode_view(&wire) else {
            panic!("own encoding does not decode");
        };
        let ViewBody::Request { params: lying, .. } = view.body else {
            panic!("a request decoded as a response");
        };
        let mut set = prior;
        lying.copy_into(&mut set);
        prop_assert_eq!(&set, &lying.to_vec());
        prop_assert_eq!(set, params);
    }
}

fn params_round_trip(id: u64, params: &[String], expires: u64) -> Result<(), TestCaseError> {
    let mut wire = vec![0xaa];
    encode_request_into(&mut wire, id, params, expires);
    let ViewStep::Complete { frame: view, .. } = decode_view(&wire[1..]) else {
        panic!("own encoding does not decode");
    };
    prop_assert_eq!(
        (view.id, view.batch, view.wire_len),
        (id, 0, wire.len() - 1)
    );
    let ViewBody::Request {
        params: lying,
        expires_unix_ms,
    } = view.body
    else {
        panic!("a request decoded as a response");
    };
    prop_assert_eq!(expires_unix_ms, expires);
    prop_assert_eq!(lying.iter().len(), params.len());
    prop_assert!(lying.iter().eq(params.iter().map(String::as_str)));
    prop_assert_eq!(lying.to_vec(), params);
    Ok(())
}

#[test]
fn no_unicode_and_a_thousand_params_round_trip() {
    let unicode = ["παράμετρος", "", "日本語", "\u{10ffff}"].map(String::from);
    let thousand: Vec<String> = (0..1_000).map(|i| format!("p{i}")).collect();
    for params in [&[][..], &unicode[..], &thousand[..]] {
        params_round_trip(7, params, 0).unwrap();
        params_round_trip(7, params, 1_722_000_000_123).unwrap();
    }
}
