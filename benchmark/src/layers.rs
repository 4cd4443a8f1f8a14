//! The traced run: every layer timed in isolation around its public
//! functions, plus one traced segment per workload whose spans go to
//! `benchmark/out/trace-<workload>.jsonl`. End-to-end metrics never come
//! from here. README.md says which end-to-end metric each layer metric is
//! expected to move.

use crate::json::Json;
use crate::procfs::{self, Usage};
use crate::report::{self, Summary};
use crate::segment::{self, Scratch, SegmentSpec};
use crate::stats::{self, ms, us};
use crate::workloads::{self, mix, WORKLOADS};
use mcsd_apps::{seq, TextGen, WordCount};
use mcsd_cluster::{RackSpec, Scale, TimeBreakdown};
use mcsd_core::des::{self, synthesize_workload};
use mcsd_core::engine::{EngineConfig, OffloadCall, SdDispatch};
use mcsd_core::modules::WordCountModule;
use mcsd_core::offload::{JobProfile, Offloader};
use mcsd_core::{Engine, McsdError, McsdFramework, OffloadPolicy, ResilienceConfig};
use mcsd_obs::{ClockDomain, Tracer};
use mcsd_phoenix::sort::parallel_sort_by;
use mcsd_phoenix::{
    Job, PartitionPlan, PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime, Splitter,
};
use mcsd_smartfam::codec::{decode_frame, decode_stream};
use mcsd_smartfam::{
    BatchConfig, Daemon, DaemonConfig, FaultInjector, FileWatcher, Frame, HostClient, LogFile,
    PollBackoff, ProcessingModule, ReplicaConfig, ReplicatedLog, WatchConfig,
};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The per-layer metrics of `BENCHMARK.json`: name, unit, better.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("smartfam.codec.encode_small_ns", "ns", "lower"),
    ("smartfam.codec.decode_small_ns", "ns", "lower"),
    ("smartfam.codec.decode_stream_frames_per_s", "1/s", "higher"),
    ("smartfam.codec.encode_large_mb_s", "MB/s", "higher"),
    ("smartfam.codec.decode_large_mb_s", "MB/s", "higher"),
    ("smartfam.log_file.append_us", "us", "lower"),
    ("smartfam.log_file.append_batch16_us", "us", "lower"),
    ("smartfam.log_file.poll_empty_us_64k", "us", "lower"),
    ("smartfam.log_file.poll_empty_us_4m", "us", "lower"),
    ("smartfam.log_file.poll_read_bytes_4m", "bytes", "lower"),
    ("smartfam.host.poll_outcome_us", "us", "lower"),
    ("smartfam.host.submit_us", "us", "lower"),
    ("smartfam.host.wait_overshoot_ms", "ms", "lower"),
    ("smartfam.host.window_resubmits_per_1m", "count", "lower"),
    ("smartfam.watch.detect_ms", "ms", "lower"),
    ("smartfam.watch.backoff_first_ms", "ms", "lower"),
    ("smartfam.daemon.service_ms", "ms", "lower"),
    ("smartfam.daemon.service_batched_ms", "ms", "lower"),
    ("smartfam.daemon.spawn_ms", "ms", "lower"),
    ("smartfam.daemon.replay_ms_10k", "ms", "lower"),
    ("smartfam.daemon.shed_per_1k", "count", "lower"),
    ("smartfam.daemon.expired_per_1k", "count", "lower"),
    ("smartfam.daemon.quarantined_per_1k", "count", "lower"),
    (
        "smartfam.daemon.corrupt_skipped_bytes_per_1k",
        "bytes",
        "lower",
    ),
    ("smartfam.replica.append_us_g3q2", "us", "lower"),
    ("smartfam.batch.fsyncs_per_1k", "count", "lower"),
    ("smartfam.batch.mean_batch_size", "count", "higher"),
    ("smartfam.batch.mean_window_occupancy", "count", "higher"),
    ("smartfam.batch.reordered_per_1k", "count", "lower"),
    ("phoenix.splitter.split_ms_4m", "ms", "lower"),
    ("phoenix.runtime.run_ms_w1", "ms", "lower"),
    ("phoenix.runtime.run_ms_wn", "ms", "lower"),
    ("phoenix.runtime.parallel_speedup", "ratio", "higher"),
    ("phoenix.runtime.split_ms", "ms", "lower"),
    ("phoenix.runtime.map_ms", "ms", "lower"),
    ("phoenix.runtime.reduce_ms", "ms", "lower"),
    ("phoenix.runtime.merge_ms", "ms", "lower"),
    ("phoenix.runtime.combine_ratio", "ratio", "higher"),
    ("phoenix.partition.plan_file_ms", "ms", "lower"),
    ("phoenix.partition.run_file_ms_1m", "ms", "lower"),
    ("phoenix.partition.overhead_ratio", "ratio", "lower"),
    ("phoenix.sort.parallel_sort_ms", "ms", "lower"),
    ("mcsd-core.modules.wordcount_invoke_ms", "ms", "lower"),
    ("mcsd-core.modules.wc_encode_ms", "ms", "lower"),
    ("mcsd-core.modules.wc_decode_ms", "ms", "lower"),
    ("mcsd-core.modules.wc_payload_kb", "kB", "lower"),
    ("mcsd-core.framework.stage_local_ms", "ms", "lower"),
    ("mcsd-core.framework.transport_overhead_ms", "ms", "lower"),
    ("mcsd-core.engine.run_call_us", "us", "lower"),
    ("mcsd-core.des.synthesize_ms_100k", "ms", "lower"),
    ("mcsd-core.des.run_ms_100k", "ms", "lower"),
    ("mcsd-core.des.jobs_per_s", "1/s", "higher"),
    ("mcsd-core.des.scaling_10k_to_100k", "ratio", "lower"),
    ("mcsd-core.offload.decide_ns", "ns", "lower"),
    ("cluster.topology.build_ms", "ms", "lower"),
    ("cluster.topology.transfer_time_ns", "ns", "lower"),
    ("mcsd-obs.trace.span_ns", "ns", "lower"),
    ("apps.textgen.generate_mb_s", "MB/s", "higher"),
    ("io.call_lockstep.read_kb_per_op", "kB", "lower"),
    ("io.call_lockstep.write_kb_per_op", "kB", "lower"),
    ("io.call_window16.read_kb_per_op", "kB", "lower"),
    ("io.call_window16.write_kb_per_op", "kB", "lower"),
    ("io.job_wc_offload.read_kb_per_op", "kB", "lower"),
    ("io.job_wc_offload.write_kb_per_op", "kB", "lower"),
    ("harness.calib_ms", "ms", "lower"),
    ("harness.ops_per_s", "1/s", "higher"),
    ("harness.op_latency_p50_ms", "ms", "lower"),
    ("harness.late_over_early", "ratio", "lower"),
    ("harness.cpu_ms_per_op", "ms", "lower"),
    ("harness.peak_rss_mb", "MB", "lower"),
    ("harness.alloc_kb_per_op", "kB", "lower"),
    ("harness.tail_ms", "ms", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "higher"),
    ("harness.lockstep_budget_explained", "ratio", "higher"),
    ("harness.littles_law_ratio", "ratio", "higher"),
];

type Probe<T> = Result<T, String>;

fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// One reported layer number with the spread of the samples behind it.
struct Row {
    name: String,
    value: f64,
    p10: f64,
    p90: f64,
    samples: usize,
}

struct Layers {
    rows: Vec<Row>,
    min_samples: usize,
    min_time: Duration,
}

impl Layers {
    /// Time `op` (which returns one sample, in the metric's unit) after a
    /// warm-up, until there are both enough samples and enough time.
    fn sample(&self, mut op: impl FnMut() -> Probe<f64>) -> Probe<Vec<f64>> {
        for _ in 0..3 {
            op()?;
        }
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < self.min_samples || started.elapsed() < self.min_time {
            samples.push(op()?);
        }
        Ok(samples)
    }

    /// Report the median of `samples` under `name`.
    fn put(&mut self, name: &str, samples: &[f64]) {
        let (p10, value, p90) = stats::p10_p50_p90(samples);
        self.rows.push(Row {
            name: name.to_string(),
            value,
            p10,
            p90,
            samples: samples.len(),
        });
    }

    /// Report a number that is derived or counted, not sampled.
    fn set(&mut self, name: &str, value: f64) {
        self.put(name, &[value]);
    }

    fn probe(&mut self, name: &str, op: impl FnMut() -> Probe<f64>) -> Probe<f64> {
        let samples = self.sample(op)?;
        self.put(name, &samples);
        Ok(stats::median(&samples))
    }

    fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.value)
    }
}

/// Per-op time of `k` back-to-back calls of `f`, in nanoseconds.
fn per_op_ns(k: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..k {
        f();
    }
    started.elapsed().as_nanos() as f64 / k as f64
}

/// Inputs several probes share: the Word Count corpus of the job
/// workload, its reference result and the result's wire payload.
struct Inputs {
    seed: u64,
    corpus: Vec<u8>,
    reference: Vec<(String, u64)>,
    payload: Vec<u8>,
}

fn codec(l: &mut Layers, inputs: &Inputs) -> Probe<()> {
    let small = Frame::request(7, workloads::echo_params(inputs.seed, 123));
    let small_bytes = small.encode();
    l.probe("smartfam.codec.encode_small_ns", || {
        Ok(per_op_ns(1000, || {
            black_box(black_box(&small).encode());
        }))
    })?;
    l.probe("smartfam.codec.decode_small_ns", || {
        Ok(per_op_ns(1000, || {
            black_box(decode_frame(black_box(&small_bytes)));
        }))
    })?;
    let stream: Vec<u8> = (0..1000u64)
        .flat_map(|i| Frame::response_ok(i, b"c123|0badcafe".to_vec()).encode())
        .collect();
    l.probe("smartfam.codec.decode_stream_frames_per_s", || {
        let started = Instant::now();
        let (frames, _) = decode_stream(black_box(&stream), 0)?;
        Ok(frames.len() as f64 / started.elapsed().as_secs_f64())
    })?;
    // A frame the size of the Word Count result: what the job workload's
    // response costs to encode on the SD side and decode on the host.
    let large = Frame::response_ok(9, inputs.payload.clone());
    let large_bytes = large.encode();
    let mb = large_bytes.len() as f64 / 1e6;
    l.probe("smartfam.codec.encode_large_mb_s", || {
        let started = Instant::now();
        black_box(black_box(&large).encode());
        Ok(mb / started.elapsed().as_secs_f64())
    })?;
    l.probe("smartfam.codec.decode_large_mb_s", || {
        let started = Instant::now();
        black_box(decode_frame(black_box(&large_bytes)));
        Ok(mb / started.elapsed().as_secs_f64())
    })?;
    Ok(())
}

/// The log bytes of one answered echo call.
fn echo_pair(id: u64) -> Vec<u8> {
    let mut pair = Frame::request(id, workloads::echo_params(1, id as usize)).encode();
    pair.extend(Frame::response_ok(id, format!("c{id}|00000000").into_bytes()).encode());
    pair
}

/// Write a log file of answered echo calls, just over `bytes` long.
fn filled_log(path: &Path, bytes: usize) -> Probe<()> {
    let mut log = Vec::with_capacity(bytes + 128);
    let mut id = 0;
    while log.len() < bytes {
        id += 1;
        log.extend(echo_pair(id));
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(err("create dir"))?;
    }
    std::fs::write(path, log).map_err(err("fill log"))
}

fn log_file(l: &mut Layers, dir: &Path) -> Probe<()> {
    let small = Frame::request(7, workloads::echo_params(1, 123));
    let log = LogFile::attach_at_end(dir.join("append.log")).map_err(err("attach"))?;
    l.probe("smartfam.log_file.append_us", || {
        let started = Instant::now();
        for _ in 0..100 {
            log.append(&small).map_err(err("append"))?;
        }
        Ok(us(started.elapsed()) / 100.0)
    })?;
    let batch: Vec<Frame> = (0..16u64)
        .map(|i| Frame::response_ok(i, b"c123|0badcafe".to_vec()).in_batch(1, i))
        .collect();
    let batched = LogFile::attach_at_end(dir.join("batch.log")).map_err(err("attach"))?;
    l.probe("smartfam.log_file.append_batch16_us", || {
        let started = Instant::now();
        batched.append_batch(&batch).map_err(err("append_batch"))?;
        Ok(us(started.elapsed()))
    })?;
    let mut poll_empty = |name: &str, bytes: usize| -> Probe<LogFile> {
        let path = dir.join(format!("poll-{bytes}.log"));
        filled_log(&path, bytes)?;
        let mut cursor = LogFile::attach_at_end(&path).map_err(err("attach"))?;
        l.probe(name, || {
            let started = Instant::now();
            let (frames, _) = cursor.poll_recovering().map_err(err("poll"))?;
            let took = us(started.elapsed());
            frames
                .is_empty()
                .then_some(took)
                .ok_or_else(|| "poll past the end returned frames".to_string())
        })?;
        Ok(cursor)
    };
    poll_empty("smartfam.log_file.poll_empty_us_64k", 64 << 10)?;
    let mut cursor = poll_empty("smartfam.log_file.poll_empty_us_4m", 4 << 20)?;
    // What one such poll reads (plus `/proc/self/io` itself, read between
    // the two readings).
    let before = Usage::now().rchar;
    cursor.poll_recovering().map_err(err("poll"))?;
    l.set(
        "smartfam.log_file.poll_read_bytes_4m",
        (Usage::now().rchar - before) as f64,
    );
    Ok(())
}

fn host_and_watch(l: &mut Layers, dir: &Path) -> Probe<()> {
    let params = workloads::echo_params(1, 123);
    // No daemon: the requests stay unanswered, which is what submit and
    // an unsuccessful poll cost.
    let client = HostClient::new(dir.join("submit"));
    l.probe("smartfam.host.submit_us", || {
        let started = Instant::now();
        let pending = client.submit("echo", &params).map_err(err("submit"))?;
        let took = us(started.elapsed());
        black_box(pending.id());
        Ok(took)
    })?;
    let idle = HostClient::new(dir.join("pending"));
    filled_log(&idle.log_path("echo"), 64 << 10)?;
    let mut pending = idle.submit("echo", &params).map_err(err("submit"))?;
    l.probe("smartfam.host.poll_outcome_us", || {
        let started = Instant::now();
        let outcome = pending.poll_outcome().map_err(err("poll_outcome"))?;
        let took = us(started.elapsed());
        outcome
            .is_none()
            .then_some(took)
            .ok_or_else(|| "unanswered call completed".to_string())
    })?;

    let watched = dir.join("watched");
    std::fs::create_dir_all(&watched).map_err(err("create dir"))?;
    let file = watched.join("echo.log");
    std::fs::write(&file, b"").map_err(err("create file"))?;
    let watcher = FileWatcher::spawn(&watched, WatchConfig::default());
    let mut n = 0u64;
    l.probe("smartfam.watch.detect_ms", || {
        while watcher.next_event(Duration::ZERO).is_some() {}
        // Vary the phase against the watcher's poll loop.
        n += 1;
        std::thread::sleep(Duration::from_micros(300 * (n % 7)));
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&file)
            .map_err(err("open watched file"))?;
        let started = Instant::now();
        f.write_all(b"x").map_err(err("write watched file"))?;
        drop(f);
        watcher
            .next_event(Duration::from_secs(5))
            .map(|_| ms(started.elapsed()))
            .ok_or_else(|| "watcher saw no event".to_string())
    })?;
    l.probe("smartfam.watch.backoff_first_ms", || {
        let delay = PollBackoff::new(Duration::from_millis(1)).idle_delay();
        let started = Instant::now();
        std::thread::sleep(delay);
        Ok(ms(started.elapsed()))
    })?;
    Ok(())
}

/// Daemon service time: a raw request frame appended with
/// `LogFile::append`, the response awaited by spinning on an own cursor —
/// watcher detect + decode + dispatch + response append, without the
/// host's backoff ladder.
fn daemon_service(l: &mut Layers, name: &str, dir: &Path, batched: bool) -> Probe<()> {
    let mut cfg = DaemonConfig::new(dir);
    if batched {
        cfg = cfg.with_batching(BatchConfig::default());
    }
    let _daemon = Daemon::new(cfg, workloads::echo_registry())
        .spawn()
        .map_err(err("daemon spawn"))?;
    let path = dir.join("echo.log");
    let writer = LogFile::attach_at_end(&path).map_err(err("attach"))?;
    let params = workloads::echo_params(1, 123);
    let mut id = 1u64 << 48;
    l.probe(name, || {
        id += 1;
        let mut reader = LogFile::attach_at_end(&path).map_err(err("attach"))?;
        let request = Frame::request(id, params.clone());
        let started = Instant::now();
        writer.append(&request).map_err(err("append"))?;
        loop {
            let (frames, _) = reader.poll_recovering().map_err(err("poll"))?;
            if frames.iter().any(|f| f.id == id && !f.is_request()) {
                return Ok(ms(started.elapsed()));
            }
            if started.elapsed() > Duration::from_secs(10) {
                return Err("daemon did not answer".into());
            }
            std::hint::spin_loop();
        }
    })?;
    Ok(())
}

fn daemon(l: &mut Layers, dir: &Path) -> Probe<()> {
    daemon_service(l, "smartfam.daemon.service_ms", &dir.join("service"), false)?;
    daemon_service(
        l,
        "smartfam.daemon.service_batched_ms",
        &dir.join("service-batched"),
        true,
    )?;
    let spawn_ms = |logs: &Path| -> Probe<f64> {
        let started = Instant::now();
        let handle = Daemon::new(DaemonConfig::new(logs), workloads::echo_registry())
            .spawn()
            .map_err(err("daemon spawn"))?;
        let took = ms(started.elapsed());
        drop(handle);
        Ok(took)
    };
    let mut n = 0;
    l.probe("smartfam.daemon.spawn_ms", || {
        n += 1;
        spawn_ms(&dir.join(format!("spawn-{n}")))
    })?;
    // Restart over a log of 10 000 answered calls: the replay scan.
    let replay = dir.join("replay");
    std::fs::create_dir_all(&replay).map_err(err("create dir"))?;
    let history: Vec<u8> = (1..=10_000).flat_map(echo_pair).collect();
    std::fs::write(replay.join("echo.log"), history).map_err(err("write history"))?;
    l.probe("smartfam.daemon.replay_ms_10k", || spawn_ms(&replay))?;
    Ok(())
}

fn replica(l: &mut Layers, dir: &Path) -> Probe<()> {
    let cfg = ReplicaConfig::new(3, 2).map_err(err("replica config"))?;
    let mut log =
        ReplicatedLog::create(dir.join("replica"), "echo", cfg, FaultInjector::disabled())
            .map_err(err("replicated log"))?;
    let frame = Frame::response_ok(7, b"c123|0badcafe".to_vec());
    l.probe("smartfam.replica.append_us_g3q2", || {
        let started = Instant::now();
        for _ in 0..20 {
            let epoch = log.epoch();
            if !log
                .append(&frame, epoch)
                .map_err(err("replica append"))?
                .committed
            {
                return Err("replicated append lost its quorum".into());
            }
        }
        Ok(us(started.elapsed()) / 20.0)
    })?;
    Ok(())
}

fn phoenix(l: &mut Layers, inputs: &Inputs, dir: &Path) -> Probe<()> {
    let workers = procfs::nproc();
    let data = &inputs.corpus;
    let cfg = PhoenixConfig::with_workers(workers);
    let splitter = Splitter::new(WordCount.split_spec());
    let chunk = cfg.adaptive_chunk_bytes(data.len());
    l.probe("phoenix.splitter.split_ms_4m", || {
        let started = Instant::now();
        black_box(splitter.split(black_box(data), chunk));
        Ok(ms(started.elapsed()))
    })?;
    let single = Runtime::new(PhoenixConfig::with_workers(1));
    let w1 = l.probe("phoenix.runtime.run_ms_w1", || {
        let started = Instant::now();
        let out = single.run(&WordCount, data).map_err(err("run w1"))?;
        let took = ms(started.elapsed());
        (out.pairs == inputs.reference)
            .then_some(took)
            .ok_or_else(|| "wrong word count".to_string())
    })?;
    // Phase times and the combine ratio are the runtime's own JobStats.
    let runtime = Runtime::new(cfg.clone());
    let mut phases: [Vec<f64>; 5] = Default::default();
    let wn = l.probe("phoenix.runtime.run_ms_wn", || {
        let started = Instant::now();
        let out = runtime.run(&WordCount, data).map_err(err("run wn"))?;
        let took = ms(started.elapsed());
        let t = &out.stats.timings;
        for (slot, value) in phases.iter_mut().zip([
            ms(t.split),
            ms(t.map),
            ms(t.reduce),
            ms(t.merge),
            out.stats.combine_ratio(),
        ]) {
            slot.push(value);
        }
        Ok(took)
    })?;
    l.set("phoenix.runtime.parallel_speedup", w1 / wn);
    for (name, samples) in [
        "phoenix.runtime.split_ms",
        "phoenix.runtime.map_ms",
        "phoenix.runtime.reduce_ms",
        "phoenix.runtime.merge_ms",
        "phoenix.runtime.combine_ratio",
    ]
    .into_iter()
    .zip(&phases)
    {
        // Drop the warm-up calls `probe` made before it started sampling.
        l.put(name, &samples[3.min(samples.len() - 1)..]);
    }

    let path = dir.join("corpus.txt");
    std::fs::write(&path, data).map_err(err("write corpus"))?;
    let spec = PartitionSpec::new(1 << 20);
    l.probe("phoenix.partition.plan_file_ms", || {
        let started = Instant::now();
        let plan = PartitionPlan::plan_file(&path, spec, &WordCount.split_spec())
            .map_err(err("plan_file"))?;
        black_box(plan.plan.len());
        Ok(ms(started.elapsed()))
    })?;
    let partitioned = PartitionedRuntime::new(Runtime::new(cfg), spec);
    let run_file = l.probe("phoenix.partition.run_file_ms_1m", || {
        let started = Instant::now();
        let out = partitioned
            .run_file(&WordCount, &path, &WordCount::merger())
            .map_err(err("run_file"))?;
        let took = ms(started.elapsed());
        (out.pairs == inputs.reference)
            .then_some(took)
            .ok_or_else(|| "wrong partitioned word count".to_string())
    })?;
    l.set("phoenix.partition.overhead_ratio", run_file / wn);

    let unsorted: Vec<u64> = (0..200_000).map(|i| mix(inputs.seed, i)).collect();
    l.probe("phoenix.sort.parallel_sort_ms", || {
        let mut v = unsorted.clone();
        let started = Instant::now();
        parallel_sort_by(&mut v, workers, |a, b| a.cmp(b));
        let took = ms(started.elapsed());
        black_box(v);
        Ok(took)
    })?;
    Ok(())
}

/// An offload call with every transport hook stubbed: what
/// `Engine::run_call`'s decision pipeline costs by itself.
struct StubCall;

impl OffloadCall for StubCall {
    type Output = usize;

    fn job(&self) -> &'static str {
        "wordcount"
    }

    fn profile(&self) -> JobProfile {
        JobProfile {
            name: "wordcount".into(),
            input_bytes: workloads::CORPUS_BYTES as u64,
            compute_per_byte: 10.0,
            data_on_sd: true,
        }
    }

    fn prepare(&mut self) -> Result<(Vec<String>, TimeBreakdown), McsdError> {
        Ok((vec!["corpus.txt".into()], TimeBreakdown::default()))
    }

    fn decode(&self, payload: &[u8]) -> Result<usize, McsdError> {
        Ok(payload.len())
    }

    fn run_host(&mut self) -> Result<(usize, TimeBreakdown), McsdError> {
        Ok((0, TimeBreakdown::default()))
    }
}

fn core(l: &mut Layers, inputs: &Inputs, dir: &Path) -> Probe<()> {
    let cluster = workloads::wc_cluster();
    // `dir/corpus.txt` was written by the phoenix probes.
    let module = WordCountModule::new(dir, cluster.sd().clone());
    let params = [
        "corpus.txt".to_string(),
        workloads::WC_PARTITION.to_string(),
    ];
    l.probe("mcsd-core.modules.wordcount_invoke_ms", || {
        let started = Instant::now();
        let payload = module.invoke(&params).map_err(err("module invoke"))?;
        let took = ms(started.elapsed());
        (payload == inputs.payload)
            .then_some(took)
            .ok_or_else(|| "module payload differs from the reference".to_string())
    })?;
    l.probe("mcsd-core.modules.wc_encode_ms", || {
        let started = Instant::now();
        black_box(WordCountModule::encode(black_box(&inputs.reference)));
        Ok(ms(started.elapsed()))
    })?;
    l.probe("mcsd-core.modules.wc_decode_ms", || {
        let started = Instant::now();
        let pairs = WordCountModule::decode(black_box(&inputs.payload))?;
        let took = ms(started.elapsed());
        black_box(pairs);
        Ok(took)
    })?;
    l.set(
        "mcsd-core.modules.wc_payload_kb",
        inputs.payload.len() as f64 / 1024.0,
    );

    let fw = McsdFramework::start(cluster.clone(), OffloadPolicy::DataIntensiveToSd)
        .map_err(err("framework start"))?;
    l.probe("mcsd-core.framework.stage_local_ms", || {
        let started = Instant::now();
        fw.stage_data_local("staged.txt", &inputs.corpus)
            .map_err(err("stage_data_local"))?;
        Ok(ms(started.elapsed()))
    })?;
    fw.stop();

    let defaults = ResilienceConfig::default();
    l.probe("mcsd-core.engine.run_call_us", || {
        let engine = Engine::new(
            Offloader::for_nodes(OffloadPolicy::DataIntensiveToSd, &cluster.nodes),
            1,
            EngineConfig {
                breaker: defaults.breaker,
                fallback_to_host: true,
                steer_queue_depth: defaults.steer_queue_depth,
                min_fragment_bytes: defaults.min_fragment_bytes,
                tracer: Tracer::disabled(),
            },
        );
        let started = Instant::now();
        for _ in 0..100 {
            let canned: SdDispatch = (
                Ok((vec![0u8; 64], TimeBreakdown::default())),
                Default::default(),
            );
            let out = engine.run_call(&mut StubCall, || Some(0), |_, _| canned);
            if !matches!(out, Ok((64, _))) {
                return Err("stub call did not take the SD path".into());
            }
        }
        Ok(us(started.elapsed()) / 100.0)
    })?;
    Ok(())
}

fn des_and_cluster(l: &mut Layers, seed: u64) -> Probe<()> {
    let spec = RackSpec::default_experiment();
    let scale = Scale::default_experiment();
    l.probe("cluster.topology.build_ms", || {
        let started = Instant::now();
        black_box(spec.build(scale));
        Ok(ms(started.elapsed()))
    })?;
    let topo = spec.build(scale);
    let (from, to) = (topo.sd_ids()[0], *topo.host_ids().last().ok_or("no hosts")?);
    l.probe("cluster.topology.transfer_time_ns", || {
        Ok(per_op_ns(10_000, || {
            black_box(topo.transfer_time(from, to, black_box(1 << 20)));
        }))
    })?;
    let profile = StubCall.profile();
    let mut offloader = Offloader::for_nodes(OffloadPolicy::Balanced, &topo.cluster.nodes);
    l.probe("mcsd-core.offload.decide_ns", || {
        Ok(per_op_ns(10_000, || {
            black_box(offloader.decide(black_box(&profile)));
        }))
    })?;

    const LARGE_RUN: u64 = 100_000;
    let mut n = 0usize;
    let mut cfg = |jobs| {
        n += 1;
        workloads::des_config(seed, n, jobs)
    };
    l.probe("mcsd-core.des.synthesize_ms_100k", || {
        let cfg = cfg(LARGE_RUN);
        let started = Instant::now();
        black_box(synthesize_workload(&cfg, &topo));
        Ok(ms(started.elapsed()))
    })?;
    let mut run_ms = |jobs| {
        let cfg = cfg(jobs);
        let started = Instant::now();
        let run = des::run(&cfg, &Tracer::disabled());
        let took = ms(started.elapsed());
        run.report
            .stats
            .is_conserved()
            .then_some(took)
            .ok_or_else(|| "DES run lost jobs".to_string())
    };
    let run_100k = l.probe("mcsd-core.des.run_ms_100k", || run_ms(LARGE_RUN))?;
    l.set(
        "mcsd-core.des.jobs_per_s",
        LARGE_RUN as f64 / (run_100k / 1e3),
    );
    // Ten times the jobs in ten times the time would be 1.0.
    let run_10k = stats::median(&l.sample(|| run_ms(LARGE_RUN / 10))?);
    l.set(
        "mcsd-core.des.scaling_10k_to_100k",
        run_100k / (10.0 * run_10k),
    );
    Ok(())
}

fn obs_and_apps(l: &mut Layers, seed: u64) -> Probe<()> {
    l.probe("mcsd-obs.trace.span_ns", || {
        let tracer = Tracer::enabled();
        let track = tracer.track("bench", ClockDomain::Decision);
        Ok(per_op_ns(1000, || {
            let span = tracer.open(track, "bench.span", &[("k", "v")]);
            tracer.close(track, span);
        }))
    })?;
    l.probe("apps.textgen.generate_mb_s", || {
        let started = Instant::now();
        let text = TextGen::with_seed(seed).generate(1 << 20);
        let secs = started.elapsed().as_secs_f64();
        Ok(black_box(text).len() as f64 / 1e6 / secs)
    })?;
    Ok(())
}

fn probes(l: &mut Layers, seed: u64, dir: &Path) -> Probe<()> {
    let corpus = workloads::corpus(seed);
    let reference = seq::wordcount(&corpus);
    let inputs = Inputs {
        seed,
        payload: WordCountModule::encode(&reference),
        corpus,
        reference,
    };
    std::fs::create_dir_all(dir).map_err(err("create dir"))?;
    codec(l, &inputs)?;
    log_file(l, dir)?;
    host_and_watch(l, dir)?;
    daemon(l, dir)?;
    replica(l, dir)?;
    phoenix(l, &inputs, dir)?;
    core(l, &inputs, dir)?;
    des_and_cluster(l, seed)?;
    obs_and_apps(l, seed)
}

/// Untraced segments the traced run measures of the workload whose
/// demoted end-to-end metrics it reports; the other workloads run one.
const FOCUS_SEGMENTS: u64 = 3;

/// `count` segments of `w` in fresh child processes, summarised; with
/// `traced`, spans go to `out/trace-<w>.jsonl`.
fn segments(
    w: &str,
    seed: u64,
    quick: bool,
    scratch: &Path,
    count: u64,
    traced: bool,
) -> Probe<Summary> {
    let label = if traced { "traced" } else { "plain" };
    let segments: Vec<_> = (0..count)
        .map(|index| {
            segment::spawn(&SegmentSpec {
                workload: w.to_string(),
                index,
                seed,
                quick,
                dir: scratch.join(format!("{w}-{label}-{index}")),
                trace: traced.then(|| segment::out_dir().join(format!("trace-{w}.jsonl"))),
            })
        })
        .collect::<Probe<_>>()?;
    Ok(report::summarize(w, &segments))
}

struct Traced {
    layers: Layers,
    attempted: u64,
    failed: u64,
    /// Traced ÷ untraced `ops_per_s` of each workload that was traced.
    overhead: Vec<(String, f64)>,
}

impl Traced {
    /// No op failed and every layer metric is a number JSON can carry.
    fn correct(&self) -> bool {
        self.failed == 0
            && PER_LAYER
                .iter()
                .all(|(name, _, _)| self.layers.get(name).is_finite())
    }

    fn result_line(&self) -> Json {
        let metrics = report::metrics_json(
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, self.layers.get(name), unit)),
        );
        report::result_line(self.correct(), self.attempted, self.failed, metrics)
    }
}

/// The whole traced run: every probe, untraced segments of every workload
/// (their counters and I/O are layer metrics), and a traced segment of
/// each workload in `traced`. The demoted end-to-end metrics
/// (`report::DEMOTED`), tail and trace overhead are those of the first.
fn trace(seed: u64, quick: bool, traced: &[&str]) -> Probe<Traced> {
    let scratch = Scratch::create()?;
    eprintln!("machine: {}", procfs::machine(scratch.path()));
    let mut l = Layers {
        rows: Vec::new(),
        min_samples: if quick { 5 } else { 30 },
        min_time: Duration::from_millis(if quick { 30 } else { 300 }),
    };
    probes(&mut l, seed, &scratch.path().join("probes"))?;

    let focus = *traced.first().ok_or("no workload to trace")?;
    let mut plain = Vec::new();
    let mut overhead = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in WORKLOADS {
        // Only the focus workload's timings are reported, so only it
        // needs more than one segment.
        let count = if w == focus && !quick {
            FOCUS_SEGMENTS
        } else {
            1
        };
        let summary = segments(w, seed, quick, scratch.path(), count, false)?;
        attempted += summary.attempted;
        failed += summary.failed;
        if traced.contains(&w) {
            let with_spans = segments(w, seed, quick, scratch.path(), 1, true)?;
            attempted += with_spans.attempted;
            failed += with_spans.failed;
            overhead.push((w.to_string(), with_spans.ops_per_s() / summary.ops_per_s()));
        }
        plain.push(summary);
    }
    let plain_of = |w: &str| -> Probe<&Summary> {
        plain
            .iter()
            .find(|s| s.workload == w)
            .ok_or_else(|| format!("no segment of {w}"))
    };
    for summary in &plain {
        for (name, value) in &summary.extras {
            l.set(name, *value);
        }
        let io = |kind| format!("io.{}.{kind}_kb_per_op", summary.workload);
        l.set(&io("read"), summary.io_read_kb_per_op);
        l.set(&io("write"), summary.io_write_kb_per_op);
    }
    l.set(
        "harness.calib_ms",
        stats::median(&plain.iter().map(|s| s.calib_ms).collect::<Vec<_>>()),
    );

    // Where a lockstep call's time goes, from layer medians alone: the
    // host appends the request, the daemon detects, runs and answers it,
    // the host's poll finds the answer. What is left is the host sleeping
    // on its backoff ladder past the moment the answer landed.
    let submit_ms = l.get("smartfam.host.submit_us") / 1e3;
    let poll_ms = l.get("smartfam.host.poll_outcome_us") / 1e3;
    let service_ms = l.get("smartfam.daemon.service_ms");
    let explained_ms = submit_ms + service_ms + poll_ms;
    let lockstep_p50 = plain_of("call_lockstep")?.p50_ms();
    l.set(
        "harness.lockstep_budget_explained",
        explained_ms / lockstep_p50,
    );
    l.set(
        "smartfam.host.wait_overshoot_ms",
        lockstep_p50 - service_ms - submit_ms,
    );
    l.set(
        "mcsd-core.framework.transport_overhead_ms",
        plain_of("job_wc_offload")?.p50_ms() - l.get("mcsd-core.modules.wordcount_invoke_ms"),
    );
    let focus_summary = plain_of(focus)?;
    for ((name, _), value) in report::DEMOTED.iter().zip(&focus_summary.demoted) {
        l.set(name, *value);
    }
    l.set("harness.tail_ms", focus_summary.tail_ms);
    l.set("harness.trace_overhead_ratio", overhead[0].1);

    eprintln!(
        "{:<48} {:>14} {:>14} {:>14} {:>6}  unit",
        "layer metric", "median", "p10", "p90", "n"
    );
    for &(name, unit, _) in PER_LAYER {
        match l.rows.iter().find(|r| r.name == name) {
            Some(r) => eprintln!(
                "{name:<48} {:>14.4} {:>14.4} {:>14.4} {:>6}  {unit}",
                r.value, r.p10, r.p90, r.samples
            ),
            None => return Err(format!("layer metric {name} was not measured")),
        }
    }
    eprintln!("harness.* demoted metrics, tail and trace overhead are those of {focus}");
    for summary in &plain {
        eprint!("{}", summary.render());
    }
    for (w, ratio) in &overhead {
        eprintln!("trace overhead, {w}: traced/untraced ops_per_s = {ratio:.4}");
    }
    eprintln!(
        "lockstep budget: submit {submit_ms:.4} + daemon service {service_ms:.4} + poll \
         {poll_ms:.4} = {explained_ms:.4} ms of p50 {lockstep_p50:.4} ms; the service time \
         (watcher detect + dispatch + response append) cannot be split from outside the daemon"
    );
    eprintln!(
        "span files: {}/trace-<workload>.jsonl",
        segment::out_dir().display()
    );
    Ok(Traced {
        layers: l,
        attempted,
        failed,
        overhead,
    })
}

/// The contract's traced run: one result line with every per-layer
/// metric; spans and the demoted end-to-end metrics are `workload`'s.
pub fn contract_trace(workload: &str, seed: u64) -> Result<bool, String> {
    let t = trace(seed, false, &[workload])?;
    println!("{}", t.result_line());
    Ok(t.correct())
}

/// `benchmark trace`: the same with every workload traced; the demoted
/// end-to-end metrics are `call_lockstep`'s.
pub fn full_trace(seed: u64, quick: bool) -> Result<bool, String> {
    let t = trace(seed, quick, &WORKLOADS)?;
    let Json::Obj(mut line) = t.result_line() else {
        unreachable!("result_line builds an object");
    };
    line.push((
        "trace_overhead_ratio".into(),
        Json::Obj(
            t.overhead
                .iter()
                .map(|(w, r)| (w.clone(), Json::Num(*r)))
                .collect(),
        ),
    ));
    println!("{}", Json::Obj(line));
    Ok(t.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        assert!(PER_LAYER.len() <= 128);
        for &(name, unit, better) in PER_LAYER {
            assert!(seen.insert(name), "{name} twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(matches!(better, "lower" | "higher"));
        }
    }

    #[test]
    fn sampling_stops_only_with_enough_samples_and_enough_time() {
        let l = Layers {
            rows: Vec::new(),
            min_samples: 5,
            min_time: Duration::from_millis(20),
        };
        let mut calls = 0;
        let samples = l
            .sample(|| {
                calls += 1;
                std::thread::sleep(Duration::from_millis(1));
                Ok(calls as f64)
            })
            .unwrap();
        // Three warm-up calls are not samples.
        assert_eq!(samples[0], 4.0);
        assert!(samples.len() >= 5 && calls == samples.len() + 3);
        let failing: Probe<Vec<f64>> = l.sample(|| Err("boom".into()));
        assert_eq!(failing, Err("boom".to_string()));
    }
}
