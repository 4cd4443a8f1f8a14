//! The three benchmark applications wrapped as smartFAM processing
//! modules, as they would be preloaded on a McSD node (paper §IV-A).
//!
//! Parameter conventions follow the paper's command shapes — e.g.
//! `wordcount [data-file] [partition-size]`: "If there is no
//! [partition-size] parameter, the program will run in native way.
//! Otherwise, the number of [partition-size] can be manually filled in by
//! the programmer or automatically determined by the runtime system"
//! (`auto`). Word Count and String Match share one fragment sweep for this:
//! the native way is one fragment that spans the staged file, any
//! `[partition-size]` streams it off the disk one fragment at a time, so it
//! never has to fit in memory.
//!
//! Result payloads are simple line-oriented text (Word Count, String
//! Match) or the binary matrix format (Matrix Multiplication), so the host
//! can parse them back out of the log file.

use mcsd_apps::{Matrix, StringMatch, WordCount};
use mcsd_cluster::NodeSpec;
use mcsd_phoenix::partition::sort_output;
use mcsd_phoenix::sort::parallel_sort_by;
use mcsd_phoenix::{
    Job, Merger, PartitionSpec, PartitionedRuntime, PhoenixConfig, PhoenixError, Runtime,
};
use mcsd_smartfam::{ModuleError, ProcessingModule};
use std::path::PathBuf;
use std::sync::Arc;

/// Parse the `[partition-size]` parameter: absent = native run, one
/// fragment as large as any file; otherwise [`PartitionSpec::parse`] for the
/// node's memory.
fn parse_partition(
    param: Option<&String>,
    node: &NodeSpec,
    footprint: f64,
) -> Result<PartitionSpec, ModuleError> {
    match param.map(String::as_str) {
        None | Some("native") => Ok(PartitionSpec::new(usize::MAX)),
        Some(s) => PartitionSpec::parse(s, &node.memory_model(), footprint)
            .ok_or_else(|| ModuleError::new(format!("bad partition size {s:?}"))),
    }
}

/// Bytes `n` takes in decimal.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Append `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// The lines of a result payload, and a bound on how many there are —
/// what `decode` sizes its output from.
fn payload_lines(payload: &[u8]) -> Result<(std::str::Lines<'_>, usize), String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let newlines = payload.iter().filter(|&&b| b == b'\n').count();
    Ok((text.lines(), newlines + 1))
}

/// What every module is preloaded with: the SD data root it serves staged
/// files from, and the node whose cores and memory its jobs run on.
struct Staged {
    data_root: PathBuf,
    node: NodeSpec,
}

impl Staged {
    fn new(data_root: impl Into<PathBuf>, node: NodeSpec) -> Self {
        let data_root = data_root.into();
        Staged { data_root, node }
    }

    /// Resolve a data-file parameter inside the SD data root, rejecting
    /// escapes.
    fn resolve(&self, rel: &str) -> Result<PathBuf, ModuleError> {
        if rel.split('/').any(|c| c == "..") || rel.starts_with('/') {
            return Err(ModuleError::new(format!(
                "data path {rel:?} escapes the SD data root"
            )));
        }
        Ok(self.data_root.join(rel))
    }

    /// Read a data-file parameter whole.
    fn read(&self, rel: &str) -> Result<Vec<u8>, ModuleError> {
        std::fs::read(self.resolve(rel)?)
            .map_err(|e| ModuleError::new(format!("reading {rel:?}: {e}")))
    }

    fn runtime(&self) -> Runtime {
        Runtime::new(PhoenixConfig::with_workers(self.node.cores).memory(self.node.memory_model()))
    }

    /// Fold `job` over the staged file `rel` with `merger`, fragment by
    /// fragment off the disk. Natively the one fragment is the whole file,
    /// which the memory model judges as [`Runtime::run`] would.
    fn merge<J: Job, M: Merger<J>>(
        &self,
        job: &J,
        merger: &M,
        rel: &str,
        partition: Option<&String>,
    ) -> Result<M::Acc, ModuleError> {
        let spec = parse_partition(partition, &self.node, job.footprint_factor())?;
        let path = self.resolve(rel)?;
        match PartitionedRuntime::new(self.runtime(), spec).merge_file(job, &path, merger) {
            Ok((acc, _)) => Ok(acc),
            // A read error names the staged file, as `Staged::read`'s do.
            Err(PhoenixError::Io { detail }) => {
                Err(ModuleError::new(format!("reading {rel:?}: {detail}")))
            }
            Err(e) => Err(ModuleError::new(e)),
        }
    }
}

/// `wordcount [data-file] [partition-size]`.
pub struct WordCountModule(Staged);

impl WordCountModule {
    /// A module serving files under `data_root` on `node`.
    pub fn new(data_root: impl Into<PathBuf>, node: NodeSpec) -> Self {
        WordCountModule(Staged::new(data_root, node))
    }

    /// Encode the output pairs as `word\tcount` lines.
    pub fn encode<S: AsRef<str>>(pairs: &[(S, u64)]) -> Vec<u8> {
        let len = pairs
            .iter()
            .map(|(w, c)| w.as_ref().len() + decimal_len(*c) + 2);
        let mut out = Vec::with_capacity(len.sum());
        for (w, c) in pairs {
            out.extend_from_slice(w.as_ref().as_bytes());
            out.push(b'\t');
            push_decimal(&mut out, *c);
            out.push(b'\n');
        }
        out
    }

    /// Decode [`WordCountModule::encode`] output.
    pub fn decode(payload: &[u8]) -> Result<Vec<(String, u64)>, String> {
        let (lines, count) = payload_lines(payload)?;
        let mut pairs = Vec::with_capacity(count);
        for line in lines {
            let (w, c) = line
                .rsplit_once('\t')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            pairs.push((w.to_string(), c.parse::<u64>().map_err(|e| e.to_string())?));
        }
        Ok(pairs)
    }
}

impl ProcessingModule for WordCountModule {
    fn name(&self) -> &str {
        "wordcount"
    }

    fn invoke(&self, params: &[String]) -> Result<Vec<u8>, ModuleError> {
        let file = params
            .first()
            .ok_or_else(|| ModuleError::new("usage: wordcount [data-file] [partition-size]"))?;
        let run = self
            .0
            .merge(&WordCount, &WordCount::merger(), file, params.get(1))?;
        // The words are sorted and encoded where the Merge function holds
        // them: not one of them is owned on the SD (DESIGN.md §19).
        let mut pairs: Vec<(&str, u64)> = run.texts().map(|(word, &n)| (word, n)).collect();
        parallel_sort_by(&mut pairs, self.0.node.cores, |a, b| {
            WordCount::order(*a, *b)
        });
        Ok(Self::encode(&pairs))
    }
}

/// `stringmatch [encrypt-file] [keys-file] [partition-size]`.
pub struct StringMatchModule(Staged);

impl StringMatchModule {
    /// A module serving files under `data_root` on `node`.
    pub fn new(data_root: impl Into<PathBuf>, node: NodeSpec) -> Self {
        StringMatchModule(Staged::new(data_root, node))
    }

    /// Encode matches as `offset\tkey_index` lines.
    pub fn encode(pairs: &[(u64, u32)]) -> Vec<u8> {
        let len = pairs
            .iter()
            .map(|(off, ki)| decimal_len(*off) + decimal_len(u64::from(*ki)) + 2);
        let mut out = Vec::with_capacity(len.sum());
        for (off, ki) in pairs {
            push_decimal(&mut out, *off);
            out.push(b'\t');
            push_decimal(&mut out, u64::from(*ki));
            out.push(b'\n');
        }
        out
    }

    /// Decode [`StringMatchModule::encode`] output.
    pub fn decode(payload: &[u8]) -> Result<Vec<(u64, u32)>, String> {
        let (lines, count) = payload_lines(payload)?;
        let mut pairs = Vec::with_capacity(count);
        for line in lines {
            let (off, ki) = line
                .split_once('\t')
                .ok_or_else(|| format!("bad line {line:?}"))?;
            pairs.push((
                off.parse::<u64>().map_err(|e| e.to_string())?,
                ki.parse::<u32>().map_err(|e| e.to_string())?,
            ));
        }
        Ok(pairs)
    }
}

impl ProcessingModule for StringMatchModule {
    fn name(&self) -> &str {
        "stringmatch"
    }

    fn invoke(&self, params: &[String]) -> Result<Vec<u8>, ModuleError> {
        let (Some(encrypt_file), Some(keys_file)) = (params.first(), params.get(1)) else {
            return Err(ModuleError::new(
                "usage: stringmatch [encrypt-file] [keys-file] [partition-size]",
            ));
        };
        let keys: Vec<String> = String::from_utf8_lossy(&self.0.read(keys_file)?)
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect();
        let job = StringMatch::new(&keys);
        let merger = StringMatch::merger();
        let matches = self.0.merge(&job, &merger, encrypt_file, params.get(2))?;
        let mut pairs = Merger::<StringMatch>::finish(&merger, matches);
        sort_output(&job, &mut pairs, self.0.node.cores);
        Ok(Self::encode(&pairs))
    }
}

/// `matmul [a-file] [b-file]` — result: the product matrix in the binary
/// matrix format.
pub struct MatMulModule(Staged);

impl MatMulModule {
    /// A module serving files under `data_root` on `node`.
    pub fn new(data_root: impl Into<PathBuf>, node: NodeSpec) -> Self {
        MatMulModule(Staged::new(data_root, node))
    }
}

impl ProcessingModule for MatMulModule {
    fn name(&self) -> &str {
        "matmul"
    }

    fn invoke(&self, params: &[String]) -> Result<Vec<u8>, ModuleError> {
        let (Some(a_file), Some(b_file)) = (params.first(), params.get(1)) else {
            return Err(ModuleError::new("usage: matmul [a-file] [b-file]"));
        };
        let a = Matrix::from_bytes(&self.0.read(a_file)?).map_err(ModuleError::new)?;
        let b = Matrix::from_bytes(&self.0.read(b_file)?).map_err(ModuleError::new)?;
        let job = mcsd_apps::MatMul::new(Arc::new(a), &b);
        let runtime = self.0.runtime();
        let out = runtime
            .run(&job, &job.row_input())
            .map_err(ModuleError::new)?;
        Ok(job.assemble(&out.pairs).to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsd_apps::{datagen, seq, TextGen};
    use mcsd_cluster::NodeId;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn temp_root() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mcsd-mod-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sd_node() -> NodeSpec {
        NodeSpec::paper_sd(NodeId(1), 64 << 20)
    }

    #[test]
    fn decimal_len_sizes_the_encoding_exactly() {
        assert_eq!([0, 9, 10, u64::MAX].map(decimal_len), [1, 1, 2, 20]);
    }

    #[test]
    fn wordcount_module_native() {
        let root = temp_root();
        let text = TextGen::with_seed(1).generate(10_000);
        std::fs::write(root.join("input.txt"), &text).unwrap();
        let m = WordCountModule::new(&root, sd_node());
        let out = m.invoke(&["input.txt".into()]).unwrap();
        let pairs = WordCountModule::decode(&out).unwrap();
        assert_eq!(pairs, seq::wordcount(&text));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// `text` with a word after every 50th space that is not UTF-8, or is
    /// the one valid word such bytes are repaired to: a run then holds
    /// that word as input text and as a key emitted owned.
    fn with_invalid_utf8(text: &[u8]) -> Vec<u8> {
        let odd: [&[u8]; 4] = [b"caf\xe9", b"\xff", "\u{fffd}".as_bytes(), b"\xff\xfe"];
        let mut out = Vec::with_capacity(text.len() + text.len() / 50);
        for (i, word) in text.split(|&b| b == b' ').enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(word);
            if i % 50 == 49 {
                out.push(b' ');
                out.extend_from_slice(odd[i / 50 % odd.len()]);
            }
        }
        out
    }

    #[test]
    fn wordcount_module_partitioned_matches_native() {
        let root = temp_root();
        let m = WordCountModule::new(&root, sd_node());
        let clean = TextGen::with_seed(2).generate(20_000);
        for text in [with_invalid_utf8(&clean), clean] {
            std::fs::write(root.join("input.txt"), &text).unwrap();
            let expect = WordCountModule::encode(&seq::wordcount(&text));
            // Native, a few fragments, automatic, one fragment larger than
            // the file, and one fragment every few words.
            for size in [None, Some("4K"), Some("auto"), Some("1M"), Some("256")] {
                let params: Vec<String> = std::iter::once("input.txt")
                    .chain(size)
                    .map(String::from)
                    .collect();
                assert_eq!(m.invoke(&params).unwrap(), expect, "partition {size:?}");
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wordcount_module_native_run_is_one_fragment_of_the_whole_file() {
        let root = temp_root();
        std::fs::write(root.join("empty.txt"), b"").unwrap();
        let m = WordCountModule::new(&root, sd_node());
        assert_eq!(m.invoke(&["empty.txt".into()]).unwrap(), b"");
        // A file over the SD's input limit overflows natively, as a whole
        // file run by `Runtime::run` does; partitioned, it fits.
        let node = NodeSpec::paper_sd(NodeId(1), 64 << 10);
        let limit = node.memory_model().hard_limit_bytes();
        let text = TextGen::with_seed(3).generate(100_000);
        std::fs::write(root.join("big.txt"), &text).unwrap();
        let m = WordCountModule::new(&root, node);
        let err = m.invoke(&["big.txt".into()]).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "memory overflow: input of {} bytes exceeds the Phoenix input limit of \
                 {limit} bytes (enable partitioning to run out-of-core workloads)",
                text.len()
            )
        );
        let part = m.invoke(&["big.txt".into(), "auto".into()]).unwrap();
        assert_eq!(part, WordCountModule::encode(&seq::wordcount(&text)));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wordcount_module_errors() {
        let root = temp_root();
        let m = WordCountModule::new(&root, sd_node());
        assert!(m.invoke(&[]).is_err());
        let missing = m.invoke(&["missing.txt".into()]).unwrap_err().to_string();
        assert!(
            missing.starts_with("reading \"missing.txt\": "),
            "{missing}"
        );
        assert!(m.invoke(&["../escape".into()]).is_err());
        std::fs::write(root.join("f.txt"), b"x").unwrap();
        assert!(m.invoke(&["f.txt".into(), "not-a-size".into()]).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stringmatch_module_streams_fragments_with_global_offsets() {
        // ~5 fragments of 64 KiB, read off the disk one at a time: a match
        // in a later fragment must still carry its offset in the whole file.
        let root = temp_root();
        let keys = datagen::keys_file(4, 8, 11);
        let encrypt = datagen::encrypt_file(300_000, &keys, 0.05, 12);
        std::fs::write(root.join("encrypt.bin"), &encrypt).unwrap();
        std::fs::write(root.join("keys.txt"), keys.join("\n")).unwrap();
        let m = StringMatchModule::new(&root, sd_node());
        let params = |extra: &[&str]| -> Vec<String> {
            let fixed = ["encrypt.bin", "keys.txt"];
            fixed.iter().chain(extra).map(|p| p.to_string()).collect()
        };
        let native = StringMatchModule::decode(&m.invoke(&params(&[])).unwrap()).unwrap();
        let streamed = StringMatchModule::decode(&m.invoke(&params(&["64K"])).unwrap()).unwrap();
        assert_eq!(streamed, native);
        assert_eq!(streamed, seq::stringmatch(&keys, &encrypt));
        assert!(streamed.iter().any(|(offset, _)| *offset > 4 * 65_536));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn matmul_module_end_to_end() {
        let root = temp_root();
        let (a, b) = datagen::matrix_pair(12, 8, 10, 6);
        std::fs::write(root.join("a.mat"), a.to_bytes()).unwrap();
        std::fs::write(root.join("b.mat"), b.to_bytes()).unwrap();
        let m = MatMulModule::new(&root, sd_node());
        let out = m.invoke(&["a.mat".into(), "b.mat".into()]).unwrap();
        let c = Matrix::from_bytes(&out).unwrap();
        assert!(c.max_abs_diff(&seq::matmul(&a, &b)) < 1e-9);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn matmul_module_rejects_bad_inputs() {
        let root = temp_root();
        let m = MatMulModule::new(&root, sd_node());
        assert!(m.invoke(&["a.mat".into()]).is_err());
        std::fs::write(root.join("junk.mat"), b"not a matrix").unwrap();
        assert!(m.invoke(&["junk.mat".into(), "junk.mat".into()]).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn codecs_roundtrip() {
        let wc = vec![("alpha".to_string(), 3u64), ("beta".to_string(), 1)];
        assert_eq!(
            WordCountModule::decode(&WordCountModule::encode(&wc)).unwrap(),
            wc
        );
        let sm = vec![(0u64, 2u32), (99, 0)];
        assert_eq!(
            StringMatchModule::decode(&StringMatchModule::encode(&sm)).unwrap(),
            sm
        );
        assert!(WordCountModule::decode(b"no-tab-here\n").is_err());
        assert!(StringMatchModule::decode(b"a\tb\n").is_err());
    }

    #[test]
    fn wordcount_decode_handles_tabs_in_words() {
        // rsplit_once keeps any tab inside the "word" intact.
        let pairs = vec![("odd\tword".to_string(), 2u64)];
        let enc = WordCountModule::encode(&pairs);
        assert_eq!(WordCountModule::decode(&enc).unwrap(), pairs);
    }
}
