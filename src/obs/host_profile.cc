#include "obs/host_profile.h"

#include <ostream>

#include "support/table.h"

namespace usw::obs {

void print_host_profile(std::ostream& os, const MetricsRegistry& host) {
  TextTable table("Host profile (wall-clock; machine-dependent, not gated "
                  "for bit-equality)");
  table.set_header({"metric", "count", "mean", "p50", "p95", "max"});
  for (const auto& [name, dist] : host.distributions()) {
    const auto [p50, p95] = dist.percentiles({50.0, 95.0});
    table.add_row({name, std::to_string(dist.stats.count()),
                   TextTable::num(dist.stats.mean()), TextTable::num(p50),
                   TextTable::num(p95),
                   TextTable::num(dist.stats.max())});
  }
  for (const auto& [name, value] : host.counters())
    table.add_row({name, "-", TextTable::num(value), "-", "-", "-"});
  if (table.rows() == 0)
    table.add_row({"(no host samples)", "-", "-", "-", "-", "-"});
  table.print(os);
}

void write_host_profile_json(JsonWriter& w, const MetricsRegistry& host) {
  w.begin_object();
  for (const auto& [name, value] : host.counters()) w.kv(name, value);
  for (const auto& [name, dist] : host.distributions()) {
    const auto [p50, p95] = dist.percentiles({50.0, 95.0});
    w.key(name).begin_object();
    w.kv("count", static_cast<std::int64_t>(dist.stats.count()));
    w.kv("mean", dist.stats.mean());
    w.kv("p50", p50);
    w.kv("p95", p95);
    w.kv("max", dist.stats.max());
    w.end_object();
  }
  w.end_object();
}

}  // namespace usw::obs
