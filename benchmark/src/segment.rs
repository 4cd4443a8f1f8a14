//! One segment: a fresh child process that sets a workload up in a fresh
//! directory, warms it, measures a fixed number of ops, and prints one
//! JSON line. A fresh process gives every segment its own peak RSS, its
//! own `/proc/self/io` counters and logs of the same length.

use crate::json::Json;
use crate::procfs::{self, Usage};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SegmentSpec {
    pub workload: String,
    pub index: u64,
    pub seed: u64,
    pub quick: bool,
    /// Fresh directory for this segment's logs and data.
    pub dir: PathBuf,
    /// Where to write the span file; `None` runs untraced.
    pub trace: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SegmentResult {
    pub workload: String,
    pub setup_s: f64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub lat_ms: Vec<f64>,
    pub series_ms: Vec<f64>,
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub io_read_kb: f64,
    pub io_write_kb: f64,
    /// Heap allocations made, and KiB asked for, during the measured ops.
    pub allocs: f64,
    pub alloc_kb: f64,
    /// The fixed kernel timed by the parent just before the segment's
    /// process starts and just after it ends: a witness of machine speed,
    /// reported and never used to rescale.
    pub calib_ms: [f64; 2],
    pub extras: Vec<(String, f64)>,
}

const CALIB_BYTES: usize = 4 << 20;

/// Median time of a fixed FNV-1a pass over 4 MiB, in ms. Runs in the
/// parent, never in a segment's process: the buffer would set a floor
/// under the segment's `VmHWM`.
fn calib_ms() -> f64 {
    let buf: Vec<u8> = (0..CALIB_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let hash = workloads::fnv1a(black_box(&buf));
            black_box(hash);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&passes)
}

/// Run the segment in this process (the child's `main`).
pub fn run(spec: &SegmentSpec) -> Result<SegmentResult, String> {
    let counts = workloads::counts(&spec.workload, spec.quick)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let seed = workloads::segment_seed(spec.seed, &spec.workload, spec.index);

    let setup = Instant::now();
    let mut workload = workloads::start(&spec.workload, seed, counts, &spec.dir)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let mut rec = Recorder::new(spec.trace.is_some());
    let before = Usage::now();
    let started = Instant::now();
    let measured = workload.measure(&mut rec);
    let wall_s = started.elapsed().as_secs_f64();
    let after = Usage::now();
    drop(workload);

    if let Some(path) = &spec.trace {
        rec.write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(SegmentResult {
        workload: spec.workload.clone(),
        setup_s,
        wall_s,
        attempted: measured.attempted,
        failed: measured.failed,
        lat_ms: measured.lat_ms,
        series_ms: measured.series_ms,
        cpu_ms: after.cpu_ms - before.cpu_ms,
        peak_rss_mb: procfs::peak_rss_mb(),
        io_read_kb: (after.rchar - before.rchar) as f64 / 1024.0,
        io_write_kb: (after.wchar - before.wchar) as f64 / 1024.0,
        allocs: (after.allocs - before.allocs) as f64,
        alloc_kb: (after.alloc_bytes - before.alloc_bytes) as f64 / 1024.0,
        calib_ms: [0.0; 2],
        extras: measured
            .extras
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    })
}

/// Run the segment in a fresh child process of this executable and parse
/// the line it prints. The child's temporary directory is the segment's
/// own, so everything the stack writes lands under `spec.dir`.
pub fn spawn(spec: &SegmentSpec) -> Result<SegmentResult, String> {
    std::fs::create_dir_all(&spec.dir).map_err(|e| format!("{}: {e}", spec.dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("segment")
        .args(["--workload", &spec.workload])
        .args(["--index", &spec.index.to_string()])
        .args(["--seed", &spec.seed.to_string()])
        .arg("--dir")
        .arg(&spec.dir);
    if spec.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &spec.trace {
        cmd.arg("--trace").arg(path);
    }
    let calib_before = calib_ms();
    let out = cmd
        .env("TMPDIR", &spec.dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning segment: {e}"))?;
    // The segment's files are dead weight for the segments that follow.
    let _ = std::fs::remove_dir_all(&spec.dir);
    if !out.status.success() {
        return Err(format!(
            "segment {} #{} exited with {}",
            spec.workload, spec.index, out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Ok(SegmentResult {
        calib_ms: [calib_before, calib_ms()],
        ..SegmentResult::from_json(&Json::parse(line)?)?
    })
}

impl SegmentResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("lat_ms", Json::nums(&self.lat_ms)),
            ("series_ms", Json::nums(&self.series_ms)),
            ("cpu_ms", Json::Num(self.cpu_ms)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("io_read_kb", Json::Num(self.io_read_kb)),
            ("io_write_kb", Json::Num(self.io_write_kb)),
            ("allocs", Json::Num(self.allocs)),
            ("alloc_kb", Json::Num(self.alloc_kb)),
            (
                "extras",
                Json::Obj(
                    self.extras
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The child's line; `calib_ms` is the parent's to fill in.
    pub fn from_json(v: &Json) -> Result<SegmentResult, String> {
        Ok(SegmentResult {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing workload")?
                .to_string(),
            setup_s: v.num("setup_s")?,
            wall_s: v.num("wall_s")?,
            attempted: v.num("attempted")? as u64,
            failed: v.num("failed")? as u64,
            lat_ms: v.num_array("lat_ms")?,
            series_ms: v.num_array("series_ms")?,
            cpu_ms: v.num("cpu_ms")?,
            peak_rss_mb: v.num("peak_rss_mb")?,
            io_read_kb: v.num("io_read_kb")?,
            io_write_kb: v.num("io_write_kb")?,
            allocs: v.num("allocs")?,
            alloc_kb: v.num("alloc_kb")?,
            calib_ms: [0.0; 2],
            extras: v
                .get("extras")
                .and_then(Json::as_obj)
                .ok_or("missing extras")?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("non-number extra")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// A directory under the benchmark's own `out/` that is removed when the
/// guard drops — on success, on error and on panic alike.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let path = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `benchmark/out`: span files and scratch directories, inside the
/// checkout the harness was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_result_survives_the_child_to_parent_line() {
        let r = SegmentResult {
            workload: "call_window16".into(),
            setup_s: 0.2512,
            wall_s: 2.000_001,
            attempted: 8000,
            failed: 1,
            lat_ms: vec![1.5, 2.25, 3.125],
            series_ms: vec![0.25, 0.5],
            cpu_ms: 1230.0,
            peak_rss_mb: 12.34375,
            io_read_kb: 1e6,
            io_write_kb: 812.5,
            allocs: 48_000.0,
            alloc_kb: 1234.5,
            calib_ms: [0.0; 2],
            extras: vec![("smartfam.batch.mean_batch_size".into(), 7.5)],
        };
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        assert_eq!(
            SegmentResult::from_json(&Json::parse(&line).unwrap()),
            Ok(r)
        );
        assert!(SegmentResult::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let scratch = Scratch::create().unwrap();
        let path = scratch.path().to_path_buf();
        std::fs::write(path.join("x.log"), b"x").unwrap();
        assert!(path.starts_with(out_dir()));
        drop(scratch);
        assert!(!path.exists());
    }
}
