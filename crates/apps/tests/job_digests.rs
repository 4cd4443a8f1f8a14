//! Golden digests of the three applications' job output (DESIGN.md §19).
//!
//! A job's output pairs and its counters are a pure function of the input,
//! the worker count and the fragment size — whatever order the runtime's
//! tables hold keys in, and however their hashes are seeded. Each row pins
//! an FNV-1a digest of one application on one seed, over every worker
//! count and fragment size: the pairs in output order, then `map_tasks`,
//! `emitted_pairs`, `combined_pairs`, `distinct_keys`, `output_pairs` and
//! `fragments`. Fragmented runs go through both `PartitionedRuntime::run`
//! and `run_file`, which must agree. On a mismatch the test prints the
//! whole table as it now reads.

use mcsd_apps::{datagen, MatMul, StringMatch, TextGen, WordCount};
use mcsd_phoenix::{Job, JobOutput, Merger, PartitionSpec, PartitionedRuntime, PhoenixConfig};
use mcsd_phoenix::{JobStats, Runtime};
use std::sync::Arc;

const SEEDS: [u64; 3] = [0, 42, u64::MAX];
const WORKERS: [usize; 3] = [1, 2, 4];
/// `None` is the native run, `Runtime::run`; the others are fragment sizes.
const FRAGMENTS: [Option<usize>; 3] = [None, Some(7 << 10), Some(64 << 10)];

/// (application, seed, digest over every worker count and fragment size).
type Row = (&'static str, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("wordcount", 0, 0x57e971498ba7cec9),
    ("stringmatch", 0, 0xae08d777d1b4d306),
    ("matmul", 0, 0x82edc6b8b4a6773a),
    ("wordcount", 42, 0x4497df51c932c081),
    ("stringmatch", 42, 0x4d7eb603a87edc92),
    ("matmul", 42, 0x65ad972fa4f67760),
    ("wordcount", u64::MAX, 0x32dcc59ec3a6e038),
    ("stringmatch", u64::MAX, 0x44b3be145876c825),
    ("matmul", u64::MAX, 0x9f2b557810d67789),
    ("wordcount-invalid-utf8", 42, 0xd78766f769b04fa7),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit) over `bytes`, continuing from `hash`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

fn counters(hash: &mut u64, stats: &JobStats) {
    for n in [
        stats.map_tasks,
        stats.emitted_pairs,
        stats.combined_pairs,
        stats.distinct_keys,
        stats.output_pairs,
        stats.fragments,
    ] {
        fnv1a(hash, &n.to_le_bytes());
    }
}

fn temp_file(data: &[u8]) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "mcsd-job-digests-{}-{}.bin",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, data).unwrap();
    path
}

/// The digest of `job` over `input` at every worker count and fragment
/// size, each output pair digested by `render`.
fn digest<J, M>(
    job: &J,
    merger: &M,
    input: &[u8],
    render: impl Fn(&mut u64, &(J::Key, J::Value)),
) -> u64
where
    J: Job,
    J::Key: PartialEq + std::fmt::Debug,
    J::Value: PartialEq + std::fmt::Debug,
    M: Merger<J>,
{
    let path = temp_file(input);
    let mut hash = FNV_OFFSET;
    for workers in WORKERS {
        let rt = Runtime::new(PhoenixConfig::with_workers(workers).chunk_bytes(2048));
        for fragment in FRAGMENTS {
            let JobOutput { pairs, stats } = match fragment {
                None => rt.run(job, input).unwrap(),
                Some(bytes) => {
                    let part = PartitionedRuntime::new(rt.clone(), PartitionSpec::new(bytes));
                    let out = part.run(job, input, merger).unwrap();
                    let file = part.run_file(job, &path, merger).unwrap();
                    assert_eq!(out.pairs, file.pairs, "run and run_file differ");
                    assert_eq!(out.stats.fragments, file.stats.fragments);
                    out
                }
            };
            pairs.iter().for_each(|pair| render(&mut hash, pair));
            counters(&mut hash, &stats);
        }
    }
    std::fs::remove_file(&path).unwrap();
    hash
}

fn wordcount(input: &[u8]) -> u64 {
    digest(&WordCount, &WordCount::merger(), input, |h, (word, n)| {
        fnv1a(h, word.as_bytes());
        fnv1a(h, &n.to_le_bytes());
    })
}

/// A corpus with bytes that are not UTF-8 (every 61st byte's high bit
/// flipped) and, after every tenth line, a literal U+FFFD word, two of
/// them, and a byte string that repairs to the latter.
fn wordcount_invalid() -> u64 {
    let mut corpus = TextGen::with_seed(42).generate(100_000);
    for b in corpus.iter_mut().step_by(61) {
        *b ^= 0x80;
    }
    let mut input = Vec::new();
    for (i, line) in corpus.split(|&b| b == b'\n').enumerate() {
        input.extend_from_slice(line);
        if i % 10 == 0 {
            input.extend_from_slice(" \u{FFFD} \u{FFFD}\u{FFFD} ".as_bytes());
            input.extend_from_slice(b"\xff\xfe");
        }
        input.push(b'\n');
    }
    wordcount(&input)
}

fn stringmatch(seed: u64) -> u64 {
    let keys = datagen::keys_file(8, 3, seed);
    let encrypt = datagen::encrypt_file(150_000, &keys, 0.2, seed);
    let job = StringMatch::new(&keys);
    digest(
        &job,
        &StringMatch::merger(),
        &encrypt,
        |h, (offset, key)| {
            fnv1a(h, &offset.to_le_bytes());
            fnv1a(h, &key.to_le_bytes());
        },
    )
}

fn matmul(seed: u64) -> u64 {
    let (a, b) = datagen::matrix_pair(4096, 8, 6, seed);
    let job = MatMul::new(Arc::new(a), &b);
    let input = job.row_input();
    digest(&job, &MatMul::merger(), &input, |h, (row, values)| {
        fnv1a(h, &row.to_le_bytes());
        values
            .iter()
            .for_each(|v| fnv1a(h, &v.to_bits().to_le_bytes()));
    })
}

#[test]
fn job_outputs_and_counters_match_their_golden_digests() {
    let mut rows: Vec<Row> = Vec::new();
    for seed in SEEDS {
        let text = TextGen::with_seed(seed).generate(150_000);
        rows.push(("wordcount", seed, wordcount(&text)));
        rows.push(("stringmatch", seed, stringmatch(seed)));
        rows.push(("matmul", seed, matmul(seed)));
    }
    rows.push(("wordcount-invalid-utf8", 42, wordcount_invalid()));
    let table: String = rows
        .iter()
        .map(|&(app, seed, digest)| {
            let seed = match seed {
                u64::MAX => "u64::MAX".to_string(),
                seed => seed.to_string(),
            };
            format!("    ({app:?}, {seed}, {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(rows, GOLDEN, "this build reads:\n{table}");
}
