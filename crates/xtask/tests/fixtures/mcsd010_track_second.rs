// Fixture: a second file stamps the same track, once through the const
// and once through the literal, on another clock.
pub fn replicas(tracer: &Tracer) -> TrackId {
    tracer.track(names::SD_TRACE_TRACK, ClockDomain::Decision);
    tracer.track("sd.daemon", ClockDomain::Work)
}
