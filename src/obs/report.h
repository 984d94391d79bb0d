#pragma once

// Human-readable observability report (`uswsim --report`).
//
// Prints the per-step breakdown, per-task rollup, sampled histograms, and
// the critical chain of the slowest step as aligned text tables — the
// terminal-side companion of the JSON exporters.

#include <iosfwd>

#include "obs/metrics.h"

namespace usw::obs {

/// Prints `report`, with its critical chain of the slowest timestep when
/// it has one, to `os`.
void print_report(std::ostream& os, const MetricsReport& report);

}  // namespace usw::obs
