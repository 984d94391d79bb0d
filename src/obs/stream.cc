#include "obs/stream.h"

#include <cctype>
#include <stdexcept>

#include "obs/json_writer.h"
#include "support/build_info.h"
#include "support/error.h"

namespace usw::obs {

StreamSpec StreamSpec::parse(const std::string& spec) {
  StreamSpec out;
  out.file = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    bool digits = true;
    for (std::size_t i = colon + 1; i < spec.size(); ++i)
      if (std::isdigit(static_cast<unsigned char>(spec[i])) == 0) digits = false;
    if (digits) {
      out.file = spec.substr(0, colon);
      try {
        out.interval = std::stoi(spec.substr(colon + 1));
      } catch (const std::out_of_range&) {
        throw ConfigError("--metrics-stream interval is out of range: '" +
                          spec.substr(colon + 1) + "'");
      }
    }
  }
  if (out.file.empty())
    throw ConfigError("--metrics-stream requires a file path (FILE[:interval])");
  if (out.interval < 1)
    throw ConfigError("--metrics-stream interval must be >= 1, got " +
                      std::to_string(out.interval));
  return out;
}

MetricsStreamer::MetricsStreamer(const StreamSpec& spec, int nranks, int timesteps)
    : out_(spec.file, std::ios::trunc),
      interval_(spec.interval),
      start_(std::chrono::steady_clock::now()) {
  if (!out_) throw ResourceError("cannot open metrics stream file: " + spec.file);
  const BuildInfo& b = build_info();
  JsonWriter w(out_, 0);
  w.begin_object();
  w.kv("stream", "uswsim");
  w.kv("nranks", nranks);
  w.kv("timesteps", timesteps);
  w.kv("interval", interval_);
  w.key("provenance").begin_object();
  w.kv("version", b.version);
  w.kv("git_sha", b.git_sha);
  w.kv("compiler", b.compiler);
  w.kv("build_type", b.build_type);
  w.kv("sanitizers", b.sanitizers);
  w.end_object();
  w.end_object();
  out_ << '\n';
  out_.flush();
}

void MetricsStreamer::emit(int step, TimePs now,
                           const std::vector<const hw::PerfCounters*>& ranks) {
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start_)
          .count();
  double flops = 0.0;
  std::uint64_t msgs = 0, bytes = 0, offloads = 0, faults = 0;
  TimePs wait = 0;
  for (const hw::PerfCounters* c : ranks) {
    flops += c->counted_flops;
    msgs += c->messages_sent;
    bytes += c->bytes_sent;
    offloads += c->kernels_offloaded;
    faults += c->fault_injected;
    wait += c->wait_time;
  }
  JsonWriter w(out_, 0);
  w.begin_object();
  w.kv("step", step);
  w.kv("t_ps", static_cast<std::int64_t>(now));
  w.kv("wall_ms", wall_ms);
  w.kv("counted_flops", flops);
  w.kv("messages_sent", msgs);
  w.kv("bytes_sent", bytes);
  w.kv("kernels_offloaded", offloads);
  w.kv("fault_injected", faults);
  w.kv("wait_ps", static_cast<std::int64_t>(wait));
  w.end_object();
  out_ << '\n';
  out_.flush();
}

}  // namespace usw::obs
