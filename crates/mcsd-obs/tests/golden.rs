//! Golden-trace tests: a fixed scenario must export byte-identical JSONL
//! and Chrome output. Any schema change must update these bytes *and* bump
//! `TRACE_FORMAT_VERSION`.

use mcsd_obs::export::{chrome, jsonl_with, JsonlOptions};
use mcsd_obs::{ClockDomain, MetricSample, Tracer};

/// Build the fixed scenario: one framework call on a decision track, one
/// Phoenix job with a work-proportional map phase on a work track, a
/// volatile heartbeat that must not perturb anything, and one counter.
fn scenario() -> (Tracer, [MetricSample; 1]) {
    let tracer = Tracer::enabled();
    let d = tracer.track("decision", ClockDomain::Decision);
    let w = tracer.track("work", ClockDomain::Work);

    let call = tracer.open(d, "mcsd.call", &[("job", "wordcount")]); // d: 1
    tracer.event(d, "mcsd.offload", &[("sd", "0")]); // d: 2

    let job = tracer.open(w, "phoenix.job", &[]); // w: 1
    let map = tracer.open(w, "phoenix.map", &[]); // w: 2
    tracer.advance(w, 5); // w clock -> 7
    tracer.close(w, map); // w: 8
    tracer.close(w, job); // w: 9

    tracer.volatile_event(d, "sd.heartbeat", &[]); // d: still 2, volatile
    tracer.close(d, call); // d: 3

    let counter = MetricSample {
        key: "sd.ok",
        owner: "smartfam.daemon",
        value: 1,
    };
    (tracer, [counter])
}

#[test]
fn jsonl_bytes_are_exact() {
    let (tracer, counters) = scenario();
    let out = jsonl_with(
        &tracer,
        JsonlOptions {
            include_volatile: false,
            metrics: &counters,
        },
    );
    let expected = concat!(
        "{\"v\":1,\"type\":\"header\",\"format\":\"mcsd.trace\"}\n",
        "{\"v\":1,\"type\":\"track\",\"track\":\"decision\",\"clock\":\"decision\"}\n",
        "{\"v\":1,\"type\":\"span_open\",\"track\":\"decision\",\"at\":1,\"span\":1,\"name\":\"mcsd.call\",\"attrs\":{\"job\":\"wordcount\"}}\n",
        "{\"v\":1,\"type\":\"event\",\"track\":\"decision\",\"at\":2,\"name\":\"mcsd.offload\",\"attrs\":{\"sd\":\"0\"}}\n",
        "{\"v\":1,\"type\":\"span_close\",\"track\":\"decision\",\"at\":3,\"span\":1,\"name\":\"mcsd.call\"}\n",
        "{\"v\":1,\"type\":\"track\",\"track\":\"work\",\"clock\":\"work\"}\n",
        "{\"v\":1,\"type\":\"span_open\",\"track\":\"work\",\"at\":1,\"span\":1,\"name\":\"phoenix.job\"}\n",
        "{\"v\":1,\"type\":\"span_open\",\"track\":\"work\",\"at\":2,\"span\":2,\"name\":\"phoenix.map\"}\n",
        "{\"v\":1,\"type\":\"span_close\",\"track\":\"work\",\"at\":8,\"span\":2,\"name\":\"phoenix.map\"}\n",
        "{\"v\":1,\"type\":\"span_close\",\"track\":\"work\",\"at\":9,\"span\":1,\"name\":\"phoenix.job\"}\n",
        "{\"v\":1,\"type\":\"counter\",\"key\":\"sd.ok\",\"owner\":\"smartfam.daemon\",\"value\":1}\n",
    );
    assert_eq!(out, expected);
}

#[test]
fn chrome_bytes_are_exact() {
    let (tracer, _counters) = scenario();
    let out = chrome(&tracer);
    let expected = concat!(
        "[\n",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"decision [decision]\"}},\n",
        "{\"name\":\"mcsd.call\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{\"job\":\"wordcount\"}},\n",
        "{\"name\":\"mcsd.offload\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":2,\"s\":\"t\",\"args\":{\"sd\":\"0\"}},\n",
        "{\"name\":\"mcsd.call\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":3},\n",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"work [work]\"}},\n",
        "{\"name\":\"phoenix.job\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1},\n",
        "{\"name\":\"phoenix.map\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":2},\n",
        "{\"name\":\"phoenix.map\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":8},\n",
        "{\"name\":\"phoenix.job\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":9}\n",
        "]\n",
    );
    assert_eq!(out, expected);
}

#[test]
fn replaying_the_scenario_is_byte_identical() {
    let (t1, c1) = scenario();
    let (t2, c2) = scenario();
    let opts1 = JsonlOptions {
        include_volatile: false,
        metrics: &c1,
    };
    let opts2 = JsonlOptions {
        include_volatile: false,
        metrics: &c2,
    };
    assert_eq!(jsonl_with(&t1, opts1), jsonl_with(&t2, opts2));
    assert_eq!(chrome(&t1), chrome(&t2));
}
