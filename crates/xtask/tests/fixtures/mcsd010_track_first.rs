// Fixture: the first call site stamps the track on the decision clock.
pub const SD_TRACE_TRACK: &str = "sd.daemon";

pub fn lifecycle(tracer: &Tracer) -> TrackId {
    tracer.track(SD_TRACE_TRACK, ClockDomain::Decision)
}
