#pragma once

// Chrome/Perfetto trace-event export.
//
// Renders every rank as a process (pid = rank) with one thread track per
// lane — MPE, the CPE groups, and MPI message flight — in virtual time, so
// loading the file in chrome://tracing or ui.perfetto.dev makes the
// paper's Fig 4 overlap literally visible: kernel flight bars on the CPE
// track running under MPE task/comm activity instead of under an idle
// wait.
//
// Format: the trace-event JSON array format, "ph":"X" complete events with
// microsecond timestamps (1 virtual ps = 1e-6 exported us), plus process/
// thread name metadata. Everything `python3 -m json.tool` and the trace
// viewers accept.
//
// Cost: one pass over the spans. The document streams out through
// JsonWriter's bounded buffer, so memory does not grow with it (a 512-rank,
// 20-step trace is over 100 MB).

#include <iosfwd>

#include "obs/observation.h"

namespace usw::obs {

void write_chrome_trace(std::ostream& os, const RunObservation& run);

}  // namespace usw::obs
