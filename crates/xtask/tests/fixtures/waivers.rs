// Fixture: the waiver lifecycle, all four states.
use std::collections::HashMap;

pub fn waived_same_line(m: HashMap<u32, u32>, out: &mut String) {
    for k in m.keys() { // tidy:allow(MCSD010) -- fixture: waiver on the violating line itself
        out.push_str(&k.to_string());
    }
}

pub fn waived_next_line(m: HashMap<u32, u32>, out: &mut String) {
    // tidy:allow(MCSD010) -- fixture: waiver covering the line below
    for k in m.keys() {
        out.push_str(&k.to_string());
    }
}

pub fn malformed_waiver(m: HashMap<u32, u32>, out: &mut String) {
    // tidy:allow(MCSD010)
    for k in m.keys() {
        out.push_str(&k.to_string());
    }
}

// tidy:allow(MCSD010) -- fixture: nothing below leaks hash order, so this waiver is unused
pub fn quiet() {}
