//! `mcsd-datagen` — create the workload files the benchmarks read:
//!
//! ```text
//! mcsd-datagen text    <bytes> <seed> <out>            # Zipf corpus (WC)
//! mcsd-datagen keys    <count> <len> <seed> <out>      # keys file (SM)
//! mcsd-datagen encrypt <bytes> <keys-file> <rate> <seed> <out>
//! ```
//!
//! Sizes accept labels (`500M`, `2G`, `64K`) or raw bytes.

use mcsd_apps::{datagen, TextGen};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mcsd-datagen text <bytes> <seed> <out>\n\
        \x20      mcsd-datagen keys <count> <len> <seed> <out>\n\
        \x20      mcsd-datagen encrypt <bytes> <keys-file> <rate> <seed> <out>"
    );
    exit(2);
}

fn parse_bytes(s: &str) -> usize {
    match mcsd_phoenix::parse_size_label(s) {
        Some(bytes) if bytes > 0 => bytes as usize,
        _ => {
            eprintln!("bad size {s:?}");
            exit(2);
        }
    }
}

fn write_out(path: &str, data: &[u8]) {
    if let Err(e) = std::fs::write(path, data) {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    }
    eprintln!("# wrote {} bytes to {path}", data.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("text") => {
            let (Some(bytes), Some(seed), Some(out)) = (
                args.get(1).map(|s| parse_bytes(s)),
                args.get(2).and_then(|s| s.parse::<u64>().ok()),
                args.get(3),
            ) else {
                usage();
            };
            write_out(out, &TextGen::with_seed(seed).generate(bytes));
        }
        Some("keys") => {
            let (Some(count), Some(len), Some(seed), Some(out)) = (
                args.get(1).and_then(|s| s.parse::<usize>().ok()),
                args.get(2).and_then(|s| s.parse::<usize>().ok()),
                args.get(3).and_then(|s| s.parse::<u64>().ok()),
                args.get(4),
            ) else {
                usage();
            };
            if let Some(n) = datagen::distinct_keys(len).filter(|&n| count > n) {
                eprintln!("only {n} distinct keys of length {len} exist; asked for {count}");
                exit(2);
            }
            let keys = datagen::keys_file(count, len, seed);
            write_out(out, format!("{}\n", keys.join("\n")).as_bytes());
        }
        Some("encrypt") => {
            let (Some(bytes), Some(keys_file), Some(rate), Some(seed), Some(out)) = (
                args.get(1).map(|s| parse_bytes(s)),
                args.get(2),
                args.get(3).and_then(|s| s.parse::<f64>().ok()),
                args.get(4).and_then(|s| s.parse::<u64>().ok()),
                args.get(5),
            ) else {
                usage();
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
            write_out(out, &datagen::encrypt_file(bytes, &keys, rate, seed));
        }
        _ => usage(),
    }
}
