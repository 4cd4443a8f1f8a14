//! Property tests for the benchmark applications.

use mcsd_apps::search::Pattern;
use mcsd_apps::{datagen, seq, Matrix, StringMatch, WordCount};
use mcsd_phoenix::{PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The oracle as it was before it counted by bytes: one repaired `String`
/// per occurrence.
fn wordcount_per_occurrence(text: &[u8]) -> Vec<(String, u64)> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for w in text
        .split(|b| b.is_ascii_whitespace())
        .filter(|w| !w.is_empty())
    {
        *counts
            .entry(String::from_utf8_lossy(w).into_owned())
            .or_insert(0) += 1;
    }
    let mut pairs: Vec<(String, u64)> = counts.into_iter().collect();
    pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    pairs
}

/// Pieces of oracle input: the five ASCII whitespace separators, `\x0b`
/// (not one), bytes that are never UTF-8, a two-byte letter and two ASCII
/// letters.
const PIECES: [&[u8]; 12] = [
    b" ",
    b"\t",
    b"\n",
    b"\r",
    b"\x0c",
    b"\x0b",
    b"\xfd",
    b"\xfe",
    b"\xff",
    "\u{e9}".as_bytes(),
    b"a",
    b"b",
];

proptest! {
    /// The oracle counts exactly as one repaired `String` per occurrence
    /// did, invalid UTF-8 included.
    #[test]
    fn wordcount_oracle_matches_per_occurrence_counting(
        picks in proptest::collection::vec(0usize..PIECES.len(), 0..200),
    ) {
        let text: Vec<u8> = picks.iter().flat_map(|&i| PIECES[i].iter().copied()).collect();
        prop_assert_eq!(seq::wordcount(&text), wordcount_per_occurrence(&text));
    }

    /// Boyer–Moore–Horspool agrees with naive substring search.
    #[test]
    fn bmh_agrees_with_naive(
        haystack in proptest::collection::vec(0u8..8, 0..300),
        needle in proptest::collection::vec(0u8..8, 0..6),
    ) {
        let p = Pattern::new(needle.clone());
        let naive = if needle.is_empty() {
            Some(0)
        } else if haystack.len() < needle.len() {
            None
        } else {
            haystack.windows(needle.len()).position(|w| w == needle.as_slice())
        };
        prop_assert_eq!(p.find(&haystack), naive);
    }

    /// find_all returns non-overlapping, valid, ordered matches.
    #[test]
    fn find_all_invariants(
        haystack in proptest::collection::vec(0u8..4, 0..200),
        needle in proptest::collection::vec(0u8..4, 1..4),
    ) {
        let p = Pattern::new(needle.clone());
        let hits = p.find_all(&haystack);
        for w in hits.windows(2) {
            prop_assert!(w[1] >= w[0] + needle.len(), "overlap at {w:?}");
        }
        for &h in &hits {
            prop_assert_eq!(&haystack[h..h + needle.len()], needle.as_slice());
        }
    }

    /// Word Count totals: the sum of counts equals the number of words.
    #[test]
    fn wordcount_conserves_words(words in proptest::collection::vec("[a-d]{1,4}", 0..150)) {
        let text = words.join(" ").into_bytes();
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(32));
        let out = rt.run(&WordCount, &text).unwrap();
        let total: u64 = out.pairs.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, words.len() as u64);
    }

    /// StringMatch never reports an offset that does not start a line
    /// containing a key.
    #[test]
    fn stringmatch_offsets_are_sound(seed in 0u64..200, rate in 0.0f64..0.4) {
        let keys = datagen::keys_file(3, 5, seed);
        let encrypt = datagen::encrypt_file(3_000, &keys, rate, seed ^ 7);
        let job = StringMatch::new(&keys);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(256));
        let out = rt.run(&job, &encrypt).unwrap();
        for (offset, ki) in &out.pairs {
            let line = encrypt[*offset as usize..]
                .split(|&b| b == b'\n')
                .next()
                .unwrap();
            let p = Pattern::new(keys[*ki as usize].as_bytes().to_vec());
            prop_assert!(p.matches(line), "offset {offset} key {ki}");
            // The offset is a line start: preceding byte is a newline (or
            // start of file).
            if *offset > 0 {
                prop_assert_eq!(encrypt[*offset as usize - 1], b'\n');
            }
        }
    }

    /// Matrix transpose is an involution and multiplication transposes
    /// contravariantly: (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matrix_transpose_laws(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..100) {
        let (a, b) = datagen::matrix_pair(m, k, n, seed);
        prop_assert_eq!(&a.transpose().transpose(), &a);
        let ab_t = seq::matmul(&a, &b).transpose();
        let bt_at = seq::matmul(&b.transpose(), &a.transpose());
        prop_assert!(ab_t.max_abs_diff(&bt_at) < 1e-9);
    }

    /// MapReduce MM equals sequential MM for arbitrary shapes.
    #[test]
    fn mapreduce_matmul_equals_seq(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..100) {
        let (a, b) = datagen::matrix_pair(m, k, n, seed);
        let job = mcsd_apps::MatMul::new(Arc::new(a.clone()), &b);
        let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(8));
        let out = rt.run(&job, &job.row_input()).unwrap();
        let c = job.assemble(&out.pairs);
        prop_assert!(c.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);
    }

    /// Matrix binary format round-trips arbitrary shapes.
    #[test]
    fn matrix_bytes_roundtrip(r in 0usize..12, c in 0usize..12, seed in 0u64..50) {
        let m = datagen::random_matrix(r, c, seed);
        prop_assert_eq!(Matrix::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    /// The Zipf generator produces only vocabulary words.
    #[test]
    fn textgen_emits_only_vocab_words(seed in 0u64..50, bytes in 100usize..2_000) {
        let g = mcsd_apps::TextGen { vocab_size: 50, ..mcsd_apps::TextGen::with_seed(seed) };
        let text = g.generate(bytes);
        let vocab: std::collections::HashSet<String> =
            (0..50).map(|r| g.word(r)).collect();
        for w in text.split(|b: &u8| b.is_ascii_whitespace()) {
            if !w.is_empty() {
                let s = String::from_utf8(w.to_vec()).unwrap();
                prop_assert!(vocab.contains(&s), "unknown word {s}");
            }
        }
    }

    /// Word Count equals the sequential reference on arbitrary bytes —
    /// invalid UTF-8, words that differ only in their invalid bytes (and so
    /// share one lossy key), a literal U+FFFD beside the bytes repaired to
    /// it, words across chunk and fragment cuts — whatever the worker
    /// count, chunk size and fragment size.
    #[test]
    fn wordcount_equals_reference_on_arbitrary_bytes(
        tokens in proptest::collection::vec(0usize..WC_TOKENS.len(), 0..300),
        chunk_bytes in 1usize..64,
        fragment_bytes in 1usize..200,
    ) {
        let text: Vec<u8> = tokens.iter().flat_map(|&t| WC_TOKENS[t]).copied().collect();
        let reference = seq::wordcount(&text);
        for workers in [1, 2, 4] {
            let rt = Runtime::new(PhoenixConfig::with_workers(workers).chunk_bytes(chunk_bytes));
            prop_assert_eq!(&rt.run(&WordCount, &text).unwrap().pairs, &reference);
            let part = PartitionedRuntime::new(rt, PartitionSpec::new(fragment_bytes));
            let out = part.run(&WordCount, &text, &WordCount::merger()).unwrap();
            prop_assert_eq!(&out.pairs, &reference);
        }
    }
}

/// Pieces of Word Count input: letters, separators, a two-byte character
/// whole and cut, bytes no UTF-8 has, U+FFFD spelled out, a three-byte
/// character cut short.
const WC_TOKENS: [&[u8]; 14] = [
    b"a",
    b"b",
    b"ab",
    b"c",
    b" ",
    b" ",
    b"\n",
    b"\t",
    b"\xC3\xA9",
    b"\xC3",
    b"\xFF",
    b"\xFE",
    b"\xEF\xBF\xBD",
    b"\xE2\x82",
];

/// `(emitted_pairs, combined_pairs, distinct_keys)` of a Word Count run.
fn wc_counters(stats: &mcsd_phoenix::JobStats) -> (u64, u64, u64) {
    (
        stats.emitted_pairs,
        stats.combined_pairs,
        stats.distinct_keys,
    )
}

/// The counters that reach the `phoenix.*` span tree are what the
/// owned-key runtime (the parent of the borrowed-key change, commit
/// bde40af) produced on the same inputs: how a key is held between map and
/// reduce must not show in them.
#[test]
fn wordcount_counters_equal_the_owned_key_runtime() {
    let zipf = mcsd_apps::TextGen::with_seed(7).generate(200_000);
    let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(8 << 10));
    assert_eq!(
        wc_counters(&rt.run(&WordCount, &zipf).unwrap().stats),
        (22_223, 9_820, 6_811)
    );

    let part = PartitionedRuntime::new(rt, PartitionSpec::new(50_000));
    let out = part.run(&WordCount, &zipf, &WordCount::merger()).unwrap();
    assert_eq!(wc_counters(&out.stats), (22_329, 16_447, 13_032));

    // Invalid UTF-8 throughout: `x\xFF`, `x\xFE` and a spelled-out
    // `x\u{FFFD}` are three byte strings and one key.
    let words: [&[u8]; 6] = [
        b"x\xFF",
        b"x\xFE",
        b"x\xEF\xBF\xBD",
        b"\xC3",
        b"caf\xC3\xA9",
        b"x",
    ];
    let mut broken = Vec::new();
    for i in 0..4_000usize {
        broken.extend_from_slice(words[(i * i + i / 7) % words.len()]);
        broken.push(if i % 9 == 0 { b'\n' } else { b' ' });
    }
    let rt = Runtime::new(PhoenixConfig::with_workers(3).chunk_bytes(256));
    let out = rt.run(&WordCount, &broken).unwrap();
    assert_eq!(out.pairs, seq::wordcount(&broken));
    assert_eq!(wc_counters(&out.stats), (330, 12, 4));
}

/// One key met in three fragments in three forms — spelled out with a
/// literal U+FFFD (a borrowed slice of the fragment), as bytes
/// `from_utf8_lossy` repairs to it (an owned key), spelled out again — is
/// one pair with the summed count, whichever form the Merge function sees
/// first; and `JobStats` reads what the parent of the owned-once-per-job
/// change (commit f8de13e) read.
#[test]
fn wordcount_key_in_three_forms_across_three_fragments_is_one_pair() {
    let pieces: [&[u8]; 3] = [
        b"w x\xEF\xBF\xBD y x\xEF\xBF\xBD ",
        b"x\xFF x\xFE zz x\xFF w ",
        b"x\xEF\xBF\xBD y0 x\xEF\xBF\xBD ",
    ];
    let rt = Runtime::new(PhoenixConfig::with_workers(2).chunk_bytes(8));
    let part = PartitionedRuntime::new(rt, PartitionSpec::new(40));
    let parent_counters = [(15, 12, 11), (15, 13, 11), (13, 11, 11)];
    for first in 0..pieces.len() {
        let mut text = Vec::new();
        for i in 0..pieces.len() {
            // Padded by one long word to the fragment size: a piece is a
            // fragment.
            text.extend_from_slice(pieces[(first + i) % pieces.len()]);
            text.resize((i + 1) * 40 - 1, b'a');
            text.push(b'\n');
        }
        let out = part.run(&WordCount, &text, &WordCount::merger()).unwrap();
        assert_eq!(out.pairs, seq::wordcount(&text));
        assert_eq!(out.pairs[0], ("x\u{FFFD}".to_string(), 7));
        assert_eq!((out.stats.fragments, out.stats.output_pairs), (3, 7));
        assert_eq!(wc_counters(&out.stats), parent_counters[first]);
    }
}
