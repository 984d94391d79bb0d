#pragma once

// Streaming metrics emitter: periodic one-line JSON (JSONL) snapshots of a
// running simulation, so long sweeps and service-style deployments can be
// observed mid-run instead of only post-mortem.
//
// Wire format: the first line is a header record ({"stream":"uswsim", run
// shape, build provenance}); each subsequent line is one snapshot taken at
// a timestep boundary by rank 0 while it holds the coordinator token — so
// all virtual-plane fields are deterministic; only wall_ms is host-noisy.

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "hw/perf_counters.h"
#include "support/units.h"

namespace usw::obs {

/// Parsed `--metrics-stream=FILE[:interval]` value.
struct StreamSpec {
  std::string file;   // empty = streaming disabled
  int interval = 1;   // snapshot every N completed steps

  bool enabled() const { return !file.empty(); }

  /// Parses "FILE[:interval]". A trailing ":<digits>" is the interval;
  /// any other ':' stays part of the file name. Throws ConfigError naming
  /// --metrics-stream on an empty file or interval < 1.
  static StreamSpec parse(const std::string& spec);
};

class MetricsStreamer {
 public:
  /// Opens `spec.file` (truncating) and writes the header record. Throws
  /// IoError if the file cannot be opened.
  MetricsStreamer(const StreamSpec& spec, int nranks, int timesteps);

  /// Appends one snapshot line and flushes. Caller contract: invoked by a
  /// single thread (rank 0) while it holds the coordinator token, so the
  /// other ranks' PerfCounters are quiescent and safe to read.
  void emit(int step, TimePs now,
            const std::vector<const hw::PerfCounters*>& ranks);

  int interval() const { return interval_; }

 private:
  std::ofstream out_;
  int interval_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace usw::obs
