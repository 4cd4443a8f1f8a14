//! The counter families, held to their declarations.
//!
//! Each stats struct declares its counters once, in a
//! `mcsd_obs::counter_family!` table beside the struct. This file is the
//! only place that sees all of them, so it owns what no single crate can
//! check: the laws every table must obey (instantiated per family), the
//! single-owner rule across families, and the report lines the docs
//! quote. The tables are the key catalog; no document repeats them.

use mcsd::framework::{DesStats, ReplicationStats};
use mcsd::obs::CounterFamily;
use mcsd::smartfam::{BatchStats, DaemonStats, LogIo, OverloadStats, ResilienceStats};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A `T` whose `i`-th counter (table order, nested family last) is
/// `base + i`.
fn numbered<T: CounterFamily + Default>(base: u64) -> T {
    let mut stats = T::default();
    for (slot, i) in stats.slots().zip(0..) {
        *slot = base + i;
    }
    stats
}

/// One family as its table declares it.
struct Declared {
    family: &'static str,
    owner: &'static str,
    /// Keys of the struct's own counters.
    own: Vec<&'static str>,
    /// Own keys, then those of any nested family (exported under `owner`).
    all: Vec<&'static str>,
}

/// What a family must satisfy for the generic operations to be trusted.
fn family_laws<T>(family: &'static str) -> Declared
where
    T: CounterFamily + Default + PartialEq + Debug,
{
    let rows: Vec<_> = T::rows().collect();

    // The table covers every `u64` of the struct, nested family included:
    // a field added without a row fails here.
    assert_eq!(
        std::mem::size_of::<T>(),
        8 * rows.len(),
        "{family}: every u64 field needs a table row"
    );
    assert!(!T::TABLE.is_empty() && rows.starts_with(&T::TABLE.iter().collect::<Vec<_>>()));

    // `absorb` adds each counter exactly once…
    let (a0, b): (T, T) = (numbered(1), numbered(1000));
    let mut a = a0;
    a.absorb(&b);
    let sums: Vec<u64> = a.values().collect();
    let expected: Vec<u64> = (0..rows.len() as u64).map(|i| 1001 + 2 * i).collect();
    assert_eq!(sums, expected, "{family}: absorb");
    // …`since` undoes it, and saturates instead of wrapping.
    assert_eq!(a.since(&b), a0, "{family}: absorb then since");
    assert_eq!(a0.since(&a), T::default(), "{family}: since saturates");

    // `samples` lists each key once, under the family's owner, with the
    // value of the counter the key names.
    let samples = a0.samples();
    assert_eq!(samples.len(), rows.len(), "{family}: one sample per row");
    for ((sample, row), value) in samples.iter().zip(&rows).zip(a0.values()) {
        assert_eq!(
            (sample.key, sample.owner, sample.value),
            (row.key, T::OWNER, value),
            "{family}"
        );
    }

    Declared {
        family,
        owner: T::OWNER,
        own: T::TABLE.iter().map(|row| row.key).collect(),
        all: rows.iter().map(|row| row.key).collect(),
    }
}

fn all_families() -> [Declared; 8] {
    [
        family_laws::<DaemonStats>("DaemonStats"),
        family_laws::<ResilienceStats>("ResilienceStats"),
        family_laws::<OverloadStats>("OverloadStats"),
        family_laws::<ReplicationStats>("ReplicationStats"),
        family_laws::<DesStats>("DesStats"),
        family_laws::<BatchStats>("BatchStats"),
        family_laws::<LogIo<false>>("LogIo<false>"),
        family_laws::<LogIo<true>>("LogIo<true>"),
    ]
}

#[test]
fn every_family_obeys_the_table_laws() {
    let families = all_families();
    // `ResilienceStats` nests `OverloadStats`: its rows are its own, then
    // exactly that family's.
    let (resilience, overload) = (&families[1], &families[2]);
    assert_eq!(
        resilience.all,
        [&resilience.own[..], &overload.own[..]].concat()
    );
}

#[test]
fn each_key_has_one_family_and_each_prefix_one_owner() {
    let mut declared_in: BTreeMap<&str, &str> = BTreeMap::new();
    let mut owner_of: BTreeMap<&str, &str> = BTreeMap::new();
    for declared in all_families() {
        for key in declared.own {
            let prior = declared_in.insert(key, declared.family);
            assert_eq!(prior, None, "`{key}` is declared by two families");
        }
        // Nested keys are exported under this family's owner too.
        for key in declared.all {
            let prefix = key.split_once('.').expect("key is <prefix>.<field>").0;
            let prior = *owner_of.entry(prefix).or_insert(declared.owner);
            assert_eq!(prior, declared.owner, "prefix of `{key}` has two owners");
        }
    }
}

/// The report lines README.md and EXPERIMENTS.md quote (`acks=17`,
/// `completed=1200`), pinned against the hand-written `Display` impls they
/// replaced.
#[test]
fn report_lines_are_pinned() {
    let overload: OverloadStats = numbered(1);
    assert_eq!(
        overload.to_string(),
        "shed=1 expired=2 breaker_opens=3 half_open_probes=4 repartitions=5 steered=6"
    );
    let mut resilience: ResilienceStats = numbered(1);
    resilience.overload = OverloadStats::default();
    let own = "attempts=1 retries=2 failovers=3 quarantines=4 replayed=5 redispatches=6 \
               corrupt_skipped=7B";
    assert_eq!(resilience.to_string(), own);
    // The overload counters join the line only once protection acted.
    resilience.overload = overload;
    assert_eq!(resilience.to_string(), format!("{own} {overload}"));
    assert_eq!(
        numbered::<BatchStats>(1).to_string(),
        "batches=1 coalesced=2 fsyncs=3 occupancy=4 shrinks=5 reordered=6"
    );
    assert_eq!(
        numbered::<ReplicationStats>(1).to_string(),
        "quorum_appends=1 acks=2 replica_crashes=3 group_crashes=4 promotions=5 fenced=6 \
         reprotect_copies=7 reprotect_bytes=8"
    );
    assert_eq!(
        numbered::<DesStats>(1).to_string(),
        "arrivals=1 completed=2 shed=3 busy_us=4 cross_rack_transfers=5 cross_rack_bytes=6"
    );
}
