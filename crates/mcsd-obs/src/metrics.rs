//! Counter families, each declared once.
//!
//! A stats struct (`DaemonStats`, `OverloadStats`, …) keeps its plain
//! `pub` `u64` fields, and one [`counter_family!`](crate::counter_family)
//! table beside it names its owner, its key prefix and its fields in
//! order. Every operation that needs the field list — merging, run-scoped
//! deltas, the exported `counter` lines, the `label=value` report line —
//! is written once here, over that table. The tables are the key
//! catalog; DESIGN.md §12 states the rules and lists no keys.
//!
//! **Single-owner rule:** every exported key has exactly one owning layer.
//! It is a static property of the tables, asserted for every key by the
//! workspace's `tests/counter_catalog.rs`, not a run-time check.

use std::fmt;

/// One exported counter: key, owning layer, current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSample {
    /// `<prefix>.<field>` of the family table the counter is declared in.
    pub key: &'static str,
    /// The single layer allowed to write this key.
    pub owner: &'static str,
    /// Current counter value.
    pub value: u64,
}

/// One row of a family's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// Exported key, `<prefix>.<field>`.
    pub key: &'static str,
    /// Name in the family's report line: the field name unless the table
    /// says otherwise (`replica_acks as "acks"`).
    pub label: &'static str,
    /// Text after the value in the report line (`"B"` on the one byte
    /// count that has always printed it), usually empty.
    pub unit: &'static str,
}

/// A struct of `u64` counters described by a [`counter_family!`] table.
///
/// The macro writes the two constants and the three accessors; the four
/// operations below them are generic and walk the accessors in table
/// order, a nested family's counters after the struct's own.
///
/// [`counter_family!`]: crate::counter_family
pub trait CounterFamily: Copy {
    /// The single layer that owns every key of this family.
    const OWNER: &'static str;
    /// The struct's own counters in declaration order (nested families
    /// excluded — [`CounterFamily::rows`] includes them).
    const TABLE: &'static [Counter];

    /// Every row: [`CounterFamily::TABLE`], then each nested family's rows.
    fn rows() -> impl Iterator<Item = &'static Counter>;
    /// Every counter's value, in [`CounterFamily::rows`] order.
    fn values(&self) -> impl Iterator<Item = u64>;
    /// Every counter, mutably, in [`CounterFamily::rows`] order.
    fn slots(&mut self) -> impl Iterator<Item = &mut u64>;

    /// Add each of `other`'s counters to the same counter of `self`.
    /// Allocation-free.
    fn absorb(&mut self, other: &Self) {
        for (slot, add) in self.slots().zip(other.values()) {
            *slot += add;
        }
    }

    /// What was counted since `baseline`, an earlier snapshot of the same
    /// counters: `self - baseline` per counter, saturating at zero when
    /// the baseline is ahead. Allocation-free.
    fn since(&self, baseline: &Self) -> Self {
        let mut delta = *self;
        for (slot, base) in delta.slots().zip(baseline.values()) {
            *slot = slot.saturating_sub(base);
        }
        delta
    }

    /// One export row per counter (nested families included), all under
    /// [`CounterFamily::OWNER`], in table order — [`crate::export`] sorts
    /// by key when it writes them.
    fn samples(&self) -> Vec<MetricSample> {
        Self::rows()
            .zip(self.values())
            .map(|(row, value)| MetricSample {
                key: row.key,
                owner: Self::OWNER,
                value,
            })
            .collect()
    }

    /// The one-line report of the struct's own counters,
    /// `label=value[unit]` separated by spaces. A nested family prints its
    /// own line.
    fn report(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (row, value)) in Self::TABLE.iter().zip(self.values()).enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{}={}{}", row.label, value, row.unit)?;
        }
        Ok(())
    }
}

/// Declare a stats struct's counter table — the one place its fields are
/// enumerated. The struct itself stays hand-written (plain `pub` `u64`
/// fields, `Default`), so every `stats.x += 1` site is untouched.
///
/// ```
/// use mcsd_obs::CounterFamily;
///
/// #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
/// struct Inner { hits: u64 }
/// #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
/// struct Outer { reads: u64, skipped_bytes: u64, inner: Inner }
///
/// mcsd_obs::counter_family!(Inner {
///     owner: "demo",
///     prefix: "inner",
///     counters: [hits],
/// });
/// mcsd_obs::counter_family!(Outer {
///     owner: "demo",
///     prefix: "outer",
///     counters: [reads, skipped_bytes as "skipped" unit "B"],
///     nested: [inner: Inner],
/// });
///
/// let mut total = Outer::default();
/// total.absorb(&Outer { reads: 2, skipped_bytes: 9, inner: Inner { hits: 1 } });
/// let keys: Vec<&str> = total.samples().iter().map(|s| s.key).collect();
/// assert_eq!(keys, ["outer.reads", "outer.skipped_bytes", "inner.hits"]);
/// assert_eq!(total.since(&Outer { reads: 5, ..total }).reads, 0);
/// ```
///
/// Each counter's key is `<prefix>.<field>`; `as "label"` renames it in
/// the report line only, `unit "B"` follows its value there. A `nested`
/// field is another family embedded by value: its counters are merged,
/// subtracted and exported with the struct's own, under this family's
/// owner.
#[macro_export]
macro_rules! counter_family {
    (@label $field:ident) => { stringify!($field) };
    (@label $field:ident $label:literal) => { $label };
    (@unit) => { "" };
    (@unit $unit:literal) => { $unit };
    ($family:ty {
        owner: $owner:literal,
        prefix: $prefix:literal,
        counters: [$($field:ident $(as $label:literal $(unit $unit:literal)?)?),+ $(,)?]
        $(, nested: [$($nested:ident: $nested_ty:ty),+ $(,)?])? $(,)?
    }) => {
        impl $crate::CounterFamily for $family {
            const OWNER: &'static str = $owner;
            const TABLE: &'static [$crate::Counter] = &[$($crate::Counter {
                key: concat!($prefix, ".", stringify!($field)),
                label: $crate::counter_family!(@label $field $($label)?),
                unit: $crate::counter_family!(@unit $($($unit)?)?),
            }),+];

            fn rows() -> impl Iterator<Item = &'static $crate::Counter> {
                Self::TABLE.iter()
                    $($(.chain(<$nested_ty as $crate::CounterFamily>::rows()))+)?
            }

            fn values(&self) -> impl Iterator<Item = u64> {
                [$(self.$field),+].into_iter()
                    $($(.chain($crate::CounterFamily::values(&self.$nested)))+)?
            }

            fn slots(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$field),+].into_iter()
                    $($(.chain($crate::CounterFamily::slots(&mut self.$nested)))+)?
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Inner {
        hits: u64,
        misses: u64,
    }

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Outer {
        reads: u64,
        skipped_bytes: u64,
        inner: Inner,
    }

    crate::counter_family!(Inner {
        owner: "t",
        prefix: "inner",
        counters: [hits, misses],
    });
    crate::counter_family!(Outer {
        owner: "t",
        prefix: "outer",
        counters: [reads, skipped_bytes as "skipped" unit "B"],
        nested: [inner: Inner],
    });

    impl fmt::Display for Outer {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.report(f)
        }
    }

    const SAMPLE: Outer = Outer {
        reads: 1,
        skipped_bytes: 2,
        inner: Inner { hits: 3, misses: 4 },
    };

    #[test]
    fn absorb_and_since_reach_nested_counters() {
        let mut total = SAMPLE;
        total.absorb(&SAMPLE);
        assert_eq!(total.skipped_bytes, 4);
        assert_eq!(total.inner, Inner { hits: 6, misses: 8 });
        assert_eq!(total.since(&SAMPLE), SAMPLE);
    }

    #[test]
    fn since_saturates_when_the_baseline_is_ahead() {
        let ahead = Outer {
            reads: 5,
            inner: Inner { hits: 9, misses: 0 },
            ..Outer::default()
        };
        let delta = SAMPLE.since(&ahead);
        assert_eq!((delta.reads, delta.skipped_bytes), (0, 2));
        assert_eq!(delta.inner, Inner { hits: 0, misses: 4 });
    }

    #[test]
    fn samples_carry_prefixed_keys_under_the_family_owner() {
        let rows: Vec<(&str, &str, u64)> = SAMPLE
            .samples()
            .iter()
            .map(|s| (s.key, s.owner, s.value))
            .collect();
        assert_eq!(
            rows,
            [
                ("outer.reads", "t", 1),
                ("outer.skipped_bytes", "t", 2),
                ("inner.hits", "t", 3),
                ("inner.misses", "t", 4),
            ]
        );
    }

    #[test]
    fn report_prints_own_counters_with_label_and_unit_overrides() {
        assert_eq!(SAMPLE.to_string(), "reads=1 skipped=2B");
    }
}
