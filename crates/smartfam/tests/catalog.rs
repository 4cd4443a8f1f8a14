//! DESIGN.md §10 sync check: the site × action table must list every
//! [`FaultSite`] exactly once and, beside it, exactly the actions
//! [`FaultAction::valid_at`] accepts there — so the documented fault model
//! cannot drift from the one matrix the injector fires by. The table
//! stays in the doc because its "Emulates" column is rationale the code
//! does not hold.

use mcsd_smartfam::{FaultAction, FaultSite};
use std::collections::BTreeSet;

/// One action per variant; `valid_at` does not look at the parameters.
const ACTIONS: [FaultAction; 8] = [
    FaultAction::CrashBefore,
    FaultAction::CrashAfter,
    FaultAction::Torn { keep_sixteenths: 8 },
    FaultAction::Corrupt { xor_mask: 0x20 },
    FaultAction::Hide { polls: 4 },
    FaultAction::Fail,
    FaultAction::Stall { beats: 3 },
    FaultAction::CrashReplicas { mask: 0b001 },
];

/// The variant name of a `Debug`-printed value or a table cell entry:
/// `Torn { keep_sixteenths: 8 }` and `Torn { keep_sixteenths }` → `Torn`.
fn variant(text: &str) -> String {
    text.split([' ', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// The backtick-quoted entries of one table cell, as variant names.
fn quoted(cell: &str) -> Vec<String> {
    cell.split('`').skip(1).step_by(2).map(variant).collect()
}

#[test]
fn design_fault_table_matches_the_validity_matrix() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md must exist at the repo root");
    let start = text
        .find("| Site | Actions | Emulates |")
        .expect("DESIGN.md §10 must have the `| Site | Actions | Emulates |` table");
    let mut documented = Vec::new();
    for row in text[start..]
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
    {
        let cells: Vec<&str> = row.split('|').collect();
        let actions: BTreeSet<String> = quoted(cells[2]).into_iter().collect();
        for site in quoted(cells[1]) {
            documented.push((site, actions.clone()));
        }
    }
    let matrix: Vec<(String, BTreeSet<String>)> = FaultSite::ALL
        .into_iter()
        .map(|site| {
            let valid = ACTIONS
                .into_iter()
                .filter(|a| a.valid_at(site))
                .map(|a| variant(&format!("{a:?}")))
                .collect();
            (variant(&format!("{site:?}")), valid)
        })
        .collect();
    assert_eq!(
        documented, matrix,
        "DESIGN.md §10's site table (left) and FaultSite::ALL × valid_at (right) differ"
    );
}
