#pragma once

// Host-side (wall-clock) profile of one run: phase timers, per-rank init
// and step times, and per-schedule-point overhead counters.
//
// Host numbers live in their OWN registry, never in the per-rank virtual
// metrics: wall-clock varies run to run and machine to machine, and mixing
// it into the virtual plane would break the bit-equality contracts those
// metrics are checked under (faults vs clean, replay, restart).
// Conventions: distribution/counter names are prefixed "host."; durations
// are milliseconds unless the name says otherwise (_us, _ns).

#include <iosfwd>

#include "obs/json_writer.h"
#include "obs/registry.h"

namespace usw::obs {

/// "Host profile" text table for `--report`: counters verbatim, plus
/// count/mean/p50/p95/max per distribution.
void print_host_profile(std::ostream& os, const MetricsRegistry& host);

/// Writes the profile as a JSON object value (caller owns the surrounding
/// key). Emits {} when the profile is empty.
void write_host_profile_json(JsonWriter& w, const MetricsRegistry& host);

}  // namespace usw::obs
