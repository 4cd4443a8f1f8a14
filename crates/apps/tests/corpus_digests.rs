//! Golden digests of the Word Count input and its oracle (DESIGN.md §2).
//!
//! A corpus is a pure function of (seed, vocabulary shape, size), and the
//! sequential oracle a pure function of its bytes. Both are pinned here by
//! FNV-1a digests, so a faster generator or oracle must produce exactly the
//! bytes and counts the pinned build did. On a mismatch the test prints the
//! whole table as it now reads.

use mcsd_apps::{seq, TextGen};

/// Sizes every shape generates; the Zipf draws run out over 64 KiB, so a
/// rounding slip in rank selection shows in all but the first two.
const SIZES: [usize; 4] = [0, 1, 5_000, 1 << 16];

/// (seed, vocabulary size, exponent, digest of the corpora at every size in
/// `SIZES`, digest of the oracle over the largest one and over a copy with
/// invalid UTF-8 planted in it).
type Row = (u64, usize, f64, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (0, 1, 0.0, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (0, 1, 0.7, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (0, 1, 1.0, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (0, 1, 1.3, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (0, 2, 0.0, 0x8515f729c50dac15, 0x28f400a2d93d238a),
    (0, 2, 0.7, 0x08578e3881a83cc2, 0xa005ffaede210d8e),
    (0, 2, 1.0, 0x76d4bc331c12e493, 0x7bef853380c80824),
    (0, 2, 1.3, 0xc13221e6409fc3ab, 0xdfd0834e8d876116),
    (0, 97, 0.0, 0xddd3ff29086b49c5, 0x2cc425491b607074),
    (0, 97, 0.7, 0xd2257467a365d063, 0x974c97db6b1b9ef0),
    (0, 97, 1.0, 0xb93cd46556ef6bcc, 0x543523fd9d7543fc),
    (0, 97, 1.3, 0xec87578256ae1d62, 0x1c6675f51f1146a0),
    (0, 10000, 0.0, 0xe4563e6bd2a49197, 0xe2880dbd40da4d4f),
    (0, 10000, 0.7, 0x73d6bcb97e2113c5, 0xcf4a2401a9c6326b),
    (0, 10000, 1.0, 0x5473e7e8011b192a, 0xd45cd29f912c8289),
    (0, 10000, 1.3, 0x050cc51fccc027c7, 0x2bd5bb74b44ac8bc),
    (0, 50000, 0.0, 0x8bfe2e4456cb6153, 0xed99b82263101f55),
    (0, 50000, 0.7, 0x157853a003f3899e, 0x4cedc86a993ad556),
    (0, 50000, 1.0, 0x42ed1ab1c91123e5, 0x4294feba57e8a1b5),
    (0, 50000, 1.3, 0xc44392a554c1a9f2, 0xc7fd4d6fe43980ba),
    (42, 1, 0.0, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (42, 1, 0.7, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (42, 1, 1.0, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (42, 1, 1.3, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (42, 2, 0.0, 0x3dc4181f9dac4679, 0xce30d678e600ba3f),
    (42, 2, 0.7, 0xa9e2db1332f1edad, 0x408c8e1da81c9c6c),
    (42, 2, 1.0, 0xe89bb0d634c8aa0c, 0xa9ac48002aa3c9ef),
    (42, 2, 1.3, 0xe47c4373d3c8fbff, 0xc549a83dd18bded6),
    (42, 97, 0.0, 0xab6fc18996a0ca92, 0xb6d9baf1e5d1dcd3),
    (42, 97, 0.7, 0xd2f069debcd7b2b2, 0x05908c259ed60551),
    (42, 97, 1.0, 0xba9af4a1499f5afd, 0xa8e62aa561051c71),
    (42, 97, 1.3, 0x1ceaa35777fdd41e, 0x2ca88afd59d6b0b1),
    (42, 10000, 0.0, 0xa00a1bd2f61a09b8, 0x38470068b91175c2),
    (42, 10000, 0.7, 0xa4e17452f9ba291c, 0xef88949e53ff141f),
    (42, 10000, 1.0, 0x4bd2a6197a93e6cb, 0x85d4d4828ca68a58),
    (42, 10000, 1.3, 0x77f0d7105820c7f5, 0x13557534039d8278),
    (42, 50000, 0.0, 0x0a11391af403cdc4, 0x4f940266a800a53a),
    (42, 50000, 0.7, 0x6c21d545642bc7b5, 0xce3077d3fe39b1cf),
    (42, 50000, 1.0, 0x68ee4755770e482b, 0xf6bd6ef04fcc55c6),
    (42, 50000, 1.3, 0xa0ca34b377f43902, 0xcc1465a5fdbaf287),
    (u64::MAX, 1, 0.0, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (u64::MAX, 1, 0.7, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (u64::MAX, 1, 1.0, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (u64::MAX, 1, 1.3, 0x731d4f438df9bd1f, 0x3814abc88d90494e),
    (u64::MAX, 2, 0.0, 0xdba4f10d5404e5cf, 0x37f51c62e5841eed),
    (u64::MAX, 2, 0.7, 0xa462dfbdbe82742a, 0x82f41f2f5d6741ec),
    (u64::MAX, 2, 1.0, 0xcda089b242f2c9c2, 0x59391d84e8c57d39),
    (u64::MAX, 2, 1.3, 0xed2545eea72f02e0, 0x78e0db66a2ac8ae9),
    (u64::MAX, 97, 0.0, 0x00ed852bcf965478, 0x1a851e9ecb483d80),
    (u64::MAX, 97, 0.7, 0xc5f3cd2390ff6461, 0x19a3bbc0bce431c8),
    (u64::MAX, 97, 1.0, 0xb890044815c9ffa9, 0x6528270cbb4faadf),
    (u64::MAX, 97, 1.3, 0x744a0b0e8b7682b9, 0x6435c2d31b01dfcf),
    (u64::MAX, 10000, 0.0, 0x210a55115b141b2b, 0xa977a068899c7e03),
    (u64::MAX, 10000, 0.7, 0x615a681435edb5ac, 0x37beb01f1bb5cb16),
    (u64::MAX, 10000, 1.0, 0xd3ed976293c9c151, 0x1e9ac18de5c14a62),
    (u64::MAX, 10000, 1.3, 0x71c0e4b70b195680, 0x74d5446ee8ab0fe8),
    (u64::MAX, 50000, 0.0, 0xf1497918f7d3c2b2, 0x25d7e2c827191ac1),
    (u64::MAX, 50000, 0.7, 0x8683d5c32ee82e2e, 0xe92871bdc20234ea),
    (u64::MAX, 50000, 1.0, 0x496f77f0e788cb7c, 0x29bf141e552084e7),
    (u64::MAX, 50000, 1.3, 0xb9e3c888055e17aa, 0xd22675c6bfd2ebc0),
];

/// One MiB corpora of the paper's shape (10 000 words, exponent 1.0) and a
/// wide, steep one, with their oracle digests.
#[rustfmt::skip]
const GOLDEN_1M: &[Row] = &[
    (0, 10000, 1.0, 0x81d1a7d0edc841fd, 0x81b079ced90f63b7),
    (0, 50000, 1.3, 0x42822661e8b75525, 0x34b2d7a9b26cd039),
    (42, 10000, 1.0, 0x6f643014021116f7, 0x7ab02b73796083a9),
    (42, 50000, 1.3, 0x4971f843e4f9f6d5, 0x8d81dc456c33d6fd),
    (u64::MAX, 10000, 1.0, 0xc17dadac9c5d4bb4, 0xe2a12898a5788708),
    (u64::MAX, 50000, 1.3, 0x0543b0c44217e5af, 0xffc9d076fff73c7d),
];

const SEEDS: [u64; 3] = [0, 42, u64::MAX];
const VOCABS: [usize; 5] = [1, 2, 97, 10_000, 50_000];
const EXPONENTS: [f64; 4] = [0.0, 0.7, 1.0, 1.3];

/// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The oracle's output rendered as `word\tcount\n` lines, digested.
fn oracle_digest(hash: u64, text: &[u8]) -> u64 {
    seq::wordcount(text).iter().fold(hash, |h, (word, n)| {
        fnv1a(h, format!("{word}\t{n}\n").as_bytes())
    })
}

/// Digests of one shape: its corpora at `sizes`, and the oracle over the
/// largest corpus and over that corpus with every 61st byte's high bit
/// flipped, which plants bytes that are not UTF-8.
fn digests(seed: u64, vocab_size: usize, exponent: f64, sizes: &[usize]) -> (u64, u64) {
    let gen = TextGen {
        vocab_size,
        exponent,
        ..TextGen::with_seed(seed)
    };
    let mut corpus_hash = FNV_OFFSET;
    let mut last = Vec::new();
    for &size in sizes {
        last = gen.generate(size);
        corpus_hash = fnv1a(corpus_hash, &(last.len() as u64).to_le_bytes());
        corpus_hash = fnv1a(corpus_hash, &last);
    }
    let mut oracle_hash = oracle_digest(FNV_OFFSET, &last);
    for b in last.iter_mut().step_by(61) {
        *b ^= 0x80;
    }
    oracle_hash = oracle_digest(oracle_hash, &last);
    (corpus_hash, oracle_hash)
}

/// Compares every row of `golden` with what this build computes for
/// `shapes`, and prints the table this build would pin if any differ.
fn check(name: &str, shapes: &[(u64, usize, f64)], sizes: &[usize], golden: &[Row]) {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (i, &(seed, vocab, exponent)) in shapes.iter().enumerate() {
        let (corpus, oracle) = digests(seed, vocab, exponent, sizes);
        let row = (seed, vocab, exponent, corpus, oracle);
        table.push_str(&format!(
            "    ({seed}, {vocab}, {exponent:?}, {corpus:#018x}, {oracle:#018x}),\n"
        ));
        if golden.get(i) != Some(&row) {
            mismatches.push(row);
        }
    }
    assert!(
        mismatches.is_empty() && golden.len() == shapes.len(),
        "{} of {} {name} rows differ, first {:?}; this build reads:\n{table}",
        mismatches.len(),
        shapes.len(),
        mismatches.first()
    );
}

#[test]
fn corpora_and_oracle_match_their_golden_digests() {
    let mut shapes = Vec::new();
    for seed in SEEDS {
        for vocab in VOCABS {
            for exponent in EXPONENTS {
                shapes.push((seed, vocab, exponent));
            }
        }
    }
    check("GOLDEN", &shapes, &SIZES, GOLDEN);
}

#[test]
fn mebibyte_corpora_match_their_golden_digests() {
    let shapes: Vec<(u64, usize, f64)> = SEEDS
        .iter()
        .flat_map(|&seed| [(seed, 10_000, 1.0), (seed, 50_000, 1.3)])
        .collect();
    check("GOLDEN_1M", &shapes, &[1 << 20], GOLDEN_1M);
}
