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
// Cost: per rank, one pass over the spans for the thread tracks, then one
// pass that formats every span straight into JsonWriter's buffer. All of a
// span object but its two times and its step depends only on the rank, its
// skeletons and the span's (opened_by, b, c), so that part is resolved
// (obs::SpanResolver), escaped and formatted once per rank, as a fragment
// in a table indexed directly by those operands; a span copies its
// fragment's three pieces around format_us() of its times and
// std::to_chars of its step. A rank's table lives only while that rank
// exports. The document streams out through the bounded buffer, so memory
// does not grow with it (a 512-rank, 20-step trace of the halo problem is
// 86 MB).

#include <cstddef>
#include <iosfwd>

#include "obs/observation.h"
#include "support/units.h"

namespace usw::obs {

void write_chrome_trace(std::ostream& os, const RunObservation& run);

/// Longest text format_us() writes.
inline constexpr std::size_t kMaxUsChars = 32;

/// Writes virtual picoseconds `ps` as the microseconds the trace exports,
/// exactly as std::to_chars(ps * 1e-6, std::chars_format::general, 12)
/// (JsonWriter's "%.12g") would, and returns the end. For 100 <= ps < 10^12
/// that text is ps / 10^6 in fixed point with trailing zeros stripped, and
/// is formatted from the integer; other values take the double path.
/// `out` needs kMaxUsChars bytes.
char* format_us(char* out, TimePs ps);

}  // namespace usw::obs
