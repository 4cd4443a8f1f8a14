//! `stringmatch [encrypt-file] [keys-file] [partition-size]` — the
//! paper's String Match benchmark (§V-A): "each Map searches one line in
//! the 'encrypt' file to check whether the target string from a 'keys'
//! file is in the line."
//!
//! Prints one `offset<TAB>key` line per matching line of the encrypt
//! file. `[partition-size]` takes the same labels and `auto` as
//! `wordcount`.

use mcsd_apps::StringMatch;
use mcsd_phoenix::{Job, MemoryModel, PartitionSpec, PartitionedRuntime, PhoenixConfig, Runtime};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(encrypt_file), Some(keys_file)) = (args.first(), args.get(1)) else {
        eprintln!("usage: stringmatch [encrypt-file] [keys-file] [partition-size|auto]");
        exit(2);
    };
    let encrypt = match std::fs::read(encrypt_file) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {encrypt_file}: {e}");
            exit(1);
        }
    };
    let keys: Vec<String> = match std::fs::read_to_string(keys_file) {
        Ok(s) => s
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect(),
        Err(e) => {
            eprintln!("cannot read {keys_file}: {e}");
            exit(1);
        }
    };
    if keys.is_empty() {
        eprintln!("{keys_file} contains no keys");
        exit(2);
    }

    let job = StringMatch::new(&keys);
    let spec = args.get(2).map(|size| {
        let memory = MemoryModel::of_this_machine();
        PartitionSpec::parse(size, &memory, job.footprint_factor()).unwrap_or_else(|| {
            eprintln!("bad partition size {size:?} (try 600M, 64K, auto)");
            exit(2);
        })
    });
    let runtime = Runtime::new(PhoenixConfig::default());
    let t0 = std::time::Instant::now();
    let output = match spec {
        None => runtime.run(&job, &encrypt),
        Some(spec) => {
            PartitionedRuntime::new(runtime, spec).run(&job, &encrypt, &StringMatch::merger())
        }
    };
    match output {
        Ok(out) => {
            use std::io::Write;
            let stdout = std::io::stdout();
            let mut w = std::io::BufWriter::new(stdout.lock());
            for (offset, key_index) in &out.pairs {
                if writeln!(w, "{offset}\t{}", keys[*key_index as usize]).is_err() {
                    return; // broken pipe: reader closed early
                }
            }
            drop(w);
            eprintln!(
                "# {} bytes scanned for {} keys, {} matching lines, {} fragments, {:?}",
                encrypt.len(),
                keys.len(),
                out.pairs.len(),
                out.stats.fragments,
                t0.elapsed()
            );
        }
        Err(e) => {
            eprintln!("stringmatch failed: {e}");
            exit(1);
        }
    }
}
