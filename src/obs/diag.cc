#include "obs/diag.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/host_profile.h"
#include "support/build_info.h"

namespace usw::obs {

namespace {

void write_provenance(JsonWriter& w) {
  const BuildInfo& b = build_info();
  w.key("provenance").begin_object();
  w.kv("version", b.version);
  w.kv("git_sha", b.git_sha);
  w.kv("compiler", b.compiler);
  w.kv("build_type", b.build_type);
  w.kv("sanitizers", b.sanitizers);
  w.end_object();
}

void write_ring(JsonWriter& w, const FlightRecorder& ring) {
  w.key("flight").begin_array();
  for (const RingEvent& e : ring.snapshot()) {
    const FlightEvent& ev = e.event;
    w.begin_object();
    w.kv("seq", e.seq);
    w.kv("t_ps", static_cast<std::int64_t>(ev.time()));
    w.kv("kind", to_string(ev.kind()));
    w.kv("a", ev.a());
    w.kv("b", ev.b());
    w.kv("c", ev.c());
    w.end_object();
  }
  w.end_array();
  w.kv("flight_recorded", ring.recorded());
  w.kv("flight_dropped", ring.dropped());
}

}  // namespace

void DiagHub::Source::reset() {
  if (hub_ != nullptr) hub_->remove_source(id_);
  hub_ = nullptr;
}

DiagHub::DiagHub(const DiagConfig& config, int nranks)
    : config_(config), coord_ring_(config.flight_capacity) {
  rank_rings_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    rank_rings_.push_back(std::make_unique<FlightRecorder>(config.flight_capacity));
}

DiagHub::Source DiagHub::add_source(int rank, SourceFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t id = next_source_id_++;
  sources_.push_back(SourceEntry{id, rank, std::move(fn)});
  return Source(this, id);
}

void DiagHub::remove_source(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [id](const SourceEntry& e) { return e.id == id; }),
                 sources_.end());
}

void DiagHub::on_rank_pick(int rank, int candidates, TimePs time) {
  // Runs under the coordinator lock: effectively single-writer.
  coord_ring_.record(FlightKind::kRankPick, time, rank, candidates);
}

void DiagHub::on_crash(const std::string& reason,
                       const std::vector<sim::RankStatus>& ranks) {
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) return;
  crashed_ = true;
  const std::string path =
      !config_.dump_path.empty()
          ? config_.dump_path
          : (config_.dump_on_crash ? config_.crash_path : std::string());
  if (path.empty()) return;
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "uswsim: cannot write diagnostic dump to %s\n",
                 path.c_str());
    return;
  }
  write_dump_locked(os, "crash", reason, &ranks, nullptr);
  crash_path_written_ = path;
  std::fprintf(stderr, "uswsim: diagnostic dump written to %s\n", path.c_str());
}

std::string DiagHub::write_final(const MetricsRegistry* host) {
  std::lock_guard<std::mutex> lk(mu_);
  if (config_.dump_path.empty() || crashed_) return crash_path_written_;
  std::ofstream os(config_.dump_path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "uswsim: cannot write diagnostic dump to %s\n",
                 config_.dump_path.c_str());
    return std::string();
  }
  write_dump_locked(os, "final", "clean finish", nullptr, host);
  return config_.dump_path;
}

void DiagHub::write_dump_locked(std::ostream& os, const char* what,
                                const std::string& reason,
                                const std::vector<sim::RankStatus>* status,
                                const MetricsRegistry* host) {
  JsonWriter w(os, 1);
  w.begin_object();
  w.kv("diag", what);
  w.kv("reason", reason);
  write_provenance(w);
  if (status != nullptr) {
    w.key("ranks_status").begin_array();
    for (const sim::RankStatus& rs : *status) {
      w.begin_object();
      w.kv("rank", rs.rank);
      w.kv("state", std::string(1, rs.state));
      w.kv("clock_ps", static_cast<std::int64_t>(rs.clock));
      // kNever is int64 max; emit -1 so consumers do not need the sentinel.
      w.kv("wake_ps",
           rs.wake == sim::kNever ? static_cast<std::int64_t>(-1)
                                  : static_cast<std::int64_t>(rs.wake));
      w.end_object();
    }
    w.end_array();
  }
  // The coordinator ring holds the last token grants — "the last N schedule
  // points" a post-mortem wants first.
  w.key("schedule_points").begin_object();
  write_ring(w, coord_ring_);
  w.end_object();
  w.key("ranks").begin_array();
  for (int r = 0; r < nranks(); ++r) {
    w.begin_object();
    w.kv("rank", r);
    write_ring(w, *rank_rings_[static_cast<std::size_t>(r)]);
    // A source for a currently-RUNNING rank points at state that may be
    // concurrently mutated (cancel raised by a throwing rank); skip it.
    bool running = false;
    if (status != nullptr)
      for (const sim::RankStatus& rs : *status)
        if (rs.rank == r && rs.state == 'R') running = true;
    if (running) {
      w.kv("snapshot", "skipped (rank still running at crash)");
    } else {
      for (const SourceEntry& src : sources_)
        if (src.rank == r) src.fn(w);
    }
    w.end_object();
  }
  w.end_array();
  if (host != nullptr) {
    w.key("host_profile");
    write_host_profile_json(w, *host);
  }
  w.end_object();
  os << '\n';
}

}  // namespace usw::obs
