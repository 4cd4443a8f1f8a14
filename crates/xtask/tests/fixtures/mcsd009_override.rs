// Fixture: this file may write `attempts` (its own entry) but not
// `failovers` (the family's entry).
pub struct ResilienceStats {
    pub attempts: u64,
    pub failovers: u64,
}

pub fn settle(stats: &mut ResilienceStats) {
    stats.attempts += 1;
    stats.failovers += 1;
}
