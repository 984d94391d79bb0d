#pragma once

// Per-layer host-time probes of usw_e2e_traced (see probes.cc).

#include "obs/json_writer.h"

namespace e2e {

/// Writes the probe report as one JSON object: per layer and per probe the
/// call count and self time in ns, plus `missing`, the wrapped symbols that
/// never fired. Call after run_simulation has joined its rank threads.
void write_probe_report(usw::obs::JsonWriter& w);

}  // namespace e2e
