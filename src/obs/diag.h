#pragma once

// Diagnostic hub: owns the per-rank flight-recorder rings, implements
// sim::DiagSink (hang watchdog + crash callbacks from the Coordinator),
// and writes structured JSON diagnostic dumps.
//
// A dump contains: the cancel reason, build provenance, per-rank
// coordinator status (state/clock/wake), the coordinator's schedule-point
// ring (last rank picks), each rank's flight ring, and whatever the
// registered per-rank snapshot sources contribute (pending comm requests
// with epochs, scheduler queue depths, in-flight CPE groups, HB vector
// clocks).
//
// Source contract: a source function runs on the crashing thread with the
// coordinator lock held and other ranks parked. It must NOT call back into
// the Coordinator (self-deadlock) and must not touch state of a rank whose
// status is 'R' (running) — the hub enforces the latter by skipping those
// ranks' sources. Sources deregister via RAII (DiagHub::Source), which can
// only run after the dump completes and the ranks unwind, so a source
// never outlives the state it captures.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/json_writer.h"
#include "obs/registry.h"
#include "sim/coordinator.h"

namespace usw::obs {

struct DiagConfig {
  /// Flight-ring capacity per rank (and for the coordinator ring).
  /// 0 disables event recording; rings still exist but drop everything.
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
  /// Hang-watchdog threshold in virtual time; 0 disables the watchdog.
  /// The default is sized from the slowest legitimate case in the bench
  /// suite (~12 virtual seconds per step for the largest Table III
  /// problem at its minimum CG count): 10 virtual minutes leaves ~50x
  /// headroom, while a genuine stall (virtual time racing ahead with no
  /// completed step) still trips it promptly in host terms.
  TimePs hang_threshold = 600 * kSecond;
  /// Explicit dump target: written on crash, and also on clean finish
  /// (via write_final). Empty = only dump_on_crash applies.
  std::string dump_path;
  /// Auto-write `crash_path` on crash even without an explicit dump_path.
  bool dump_on_crash = false;
  std::string crash_path = "uswsim_crash_diag.json";
};

class DiagHub final : public sim::DiagSink {
 public:
  DiagHub(const DiagConfig& config, int nranks);

  FlightRecorder& rank_ring(int rank) { return *rank_rings_.at(static_cast<std::size_t>(rank)); }
  int nranks() const { return static_cast<int>(rank_rings_.size()); }

  /// A per-rank snapshot source writes extra members into the rank's open
  /// JSON object (see the source contract above).
  using SourceFn = std::function<void(JsonWriter&)>;

  /// RAII handle; deregisters the source on destruction.
  class Source {
   public:
    Source() = default;
    Source(DiagHub* hub, std::uint64_t id) : hub_(hub), id_(id) {}
    Source(Source&& other) noexcept : hub_(other.hub_), id_(other.id_) {
      other.hub_ = nullptr;
    }
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;
    ~Source() { reset(); }
    void reset();

   private:
    DiagHub* hub_ = nullptr;
    std::uint64_t id_ = 0;
  };

  Source add_source(int rank, SourceFn fn);

  // sim::DiagSink — called with the coordinator lock held.
  void on_rank_pick(int rank, int candidates, TimePs time) override;
  void on_crash(const std::string& reason,
                const std::vector<sim::RankStatus>& ranks) override;

  /// Clean-finish dump to config.dump_path (with the host profile when
  /// given). No-op if dump_path is empty or a crash dump already ran.
  /// Returns the path written, or "".
  std::string write_final(const MetricsRegistry* host);

 private:
  friend class Source;
  void remove_source(std::uint64_t id);
  void write_dump_locked(std::ostream& os, const char* what, const std::string& reason,
                         const std::vector<sim::RankStatus>* status,
                         const MetricsRegistry* host);

  DiagConfig config_;
  FlightRecorder coord_ring_;
  std::vector<std::unique_ptr<FlightRecorder>> rank_rings_;

  struct SourceEntry {
    std::uint64_t id;
    int rank;
    SourceFn fn;
  };

  mutable std::mutex mu_;
  std::vector<SourceEntry> sources_;
  std::uint64_t next_source_id_ = 1;
  bool crashed_ = false;
  std::string crash_path_written_;
};

}  // namespace usw::obs
