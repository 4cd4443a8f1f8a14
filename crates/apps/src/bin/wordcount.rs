//! `wordcount [data-file] [partition-size]` — the paper's Word Count
//! command (§IV-C): "If there is no [partition-size] parameter, the
//! program will run in native way. Otherwise, the number of
//! [partition-size] can be manually filled in by the programmer or
//! automatically determined by the runtime system" (`auto`).
//!
//! Prints words "in accordance with the frequency in decreasing order"
//! (§V-A). Sizes accept the paper's labels: `600M`, `1.5G`, `64K`, or raw
//! bytes.

use mcsd_apps::WordCount;
use mcsd_phoenix::{Job, MemoryModel, PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(data_file) = args.first() else {
        eprintln!("usage: wordcount [data-file] [partition-size|auto]");
        exit(2);
    };
    let runtime = Runtime::new(PhoenixConfig::default());
    let t0 = std::time::Instant::now();
    let input_len;
    let output = match args.get(1) {
        None => match std::fs::read(data_file) {
            Ok(data) => {
                input_len = data.len() as u64;
                runtime.run(&WordCount, &data)
            }
            Err(e) => {
                eprintln!("cannot read {data_file}: {e}");
                exit(1);
            }
        },
        Some(size) => {
            // `auto` ("automatically determined by the runtime system")
            // sizes fragments for this machine's memory.
            let memory = MemoryModel::of_this_machine();
            let Some(spec) = PartitionSpec::parse(size, &memory, WordCount.footprint_factor())
            else {
                eprintln!("bad partition size {size:?} (try 600M, 64K, auto)");
                exit(2);
            };
            input_len = std::fs::metadata(data_file).map(|m| m.len()).unwrap_or(0);
            // Streams fragments off the disk: the file may exceed RAM.
            PartitionedRuntime::new(runtime, spec).run_file(
                &WordCount,
                std::path::Path::new(data_file),
                &WordCount::merger(),
            )
        }
    };
    match output {
        Ok(out) => {
            // Write through a buffered handle and treat a broken pipe
            // (e.g. `wordcount f | head`) as a normal early exit.
            use std::io::Write;
            let stdout = std::io::stdout();
            let mut w = std::io::BufWriter::new(stdout.lock());
            for (word, count) in &out.pairs {
                if writeln!(w, "{word}\t{count}").is_err() {
                    return;
                }
            }
            drop(w);
            eprintln!(
                "# {} bytes, {} distinct words, {} fragments, {:?}",
                input_len,
                out.pairs.len(),
                out.stats.fragments,
                t0.elapsed()
            );
        }
        Err(e) => {
            eprintln!("wordcount failed: {e}");
            exit(1);
        }
    }
}
