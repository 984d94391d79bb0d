#include "schedpt/schedule.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "support/error.h"
#include "support/rng.h"

namespace usw::schedpt {

namespace {

/// Schedule file format marker. Bump the version on any layout change so
/// a stale recording fails loudly instead of replaying garbage.
constexpr const char* kFileMagic = "uswsched";
constexpr int kFileVersion = 1;

/// One SplitMix64 finalizer round (the src/fault idiom): decisions are
/// pure hashes of stable identifiers, never sequential PRNG draws, so
/// every call order produces the same choice.
std::uint64_t mix(std::uint64_t x) {
  SplitMix64 s(x);
  return s.next_u64();
}

PointKind kind_from_string(const std::string& name, const std::string& where) {
  if (name == "rank_pick") return PointKind::kRankPick;
  if (name == "msg_match") return PointKind::kMsgMatch;
  if (name == "offload_poll") return PointKind::kOffloadPoll;
  if (name == "tile_grab") return PointKind::kTileGrab;
  throw ConfigError("--schedule: unknown point kind '" + name + "' in " + where);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::string point_to_string(const PointKind kind, int rank, int n) {
  std::ostringstream os;
  os << to_string(kind) << " rank " << rank << " n " << n;
  return os.str();
}

// ---- Controllers ----------------------------------------------------------

/// kFuzz: chosen = hash(seed, kind, rank, global point index) % n. With a
/// file target the decisions are also logged and written at finish(), so
/// two seeds provably explored distinct interleavings iff their files
/// differ.
class FuzzController final : public ScheduleController {
 public:
  explicit FuzzController(ScheduleSpec spec) : ScheduleController(std::move(spec)) {}

 protected:
  int decide(PointKind kind, int rank, int n, std::uint64_t index) override {
    const std::uint64_t h =
        mix(spec().seed ^ mix(0x5EEDu + static_cast<std::uint64_t>(kind)) ^
            mix(0xBADCAB1Eu + static_cast<std::uint64_t>(rank + 1)) ^
            mix(0xF1E1Du + index));
    return static_cast<int>(h % static_cast<std::uint64_t>(n));
  }
  void on_finish(const std::vector<Entry>& log) override;
  bool logging() const override { return !spec().file.empty(); }
};

/// kRecord: canonical choices, serialized at finish().
class RecordController final : public ScheduleController {
 public:
  explicit RecordController(ScheduleSpec spec) : ScheduleController(std::move(spec)) {}

 protected:
  int decide(PointKind, int, int, std::uint64_t) override { return 0; }
  void on_finish(const std::vector<Entry>& log) override;
  bool logging() const override { return true; }
};

/// kReplay: pops the recorded decisions in order; any disagreement in
/// (kind, rank, n) — or running past the end of the file — is a divergence
/// and raises StateError naming the first divergent point.
class ReplayController final : public ScheduleController {
 public:
  explicit ReplayController(ScheduleSpec spec);

 protected:
  int decide(PointKind kind, int rank, int n, std::uint64_t index) override;
  void on_finish(const std::vector<Entry>& log) override;

 private:
  std::vector<Entry> recorded_;
  std::size_t cursor_ = 0;
};

void write_file(const std::string& path, const ScheduleSpec& spec,
                const std::vector<ScheduleController::Entry>& log);

void FuzzController::on_finish(const std::vector<Entry>& log) {
  if (!spec().file.empty()) write_file(spec().file, spec(), log);
}

void RecordController::on_finish(const std::vector<Entry>& log) {
  write_file(spec().file, spec(), log);
}

void write_file(const std::string& path, const ScheduleSpec& spec,
                const std::vector<ScheduleController::Entry>& log) {
  std::ofstream os(path);
  if (!os) throw StateError("cannot write schedule file '" + path + "'");
  os << kFileMagic << " v" << kFileVersion << "\n";
  os << "mode " << to_string(spec.mode) << " seed " << spec.seed << "\n";
  for (const auto& e : log)
    os << "point " << to_string(e.kind) << " " << e.rank << " " << e.n << " "
       << e.chosen << "\n";
  os << "end " << log.size() << "\n";
  if (!os.flush())
    throw StateError("cannot write schedule file '" + path + "'");
}

ReplayController::ReplayController(ScheduleSpec spec)
    : ScheduleController(std::move(spec)) {
  const std::string& path = this->spec().file;
  std::ifstream is(path);
  if (!is)
    throw ConfigError("--schedule: cannot open replay file '" + path + "'");
  std::string magic;
  std::string version;
  if (!(is >> magic >> version) || magic != kFileMagic ||
      // Not "v" + std::to_string(...): GCC 12's -Wrestrict misfires on
      // that operator+ under -O2.
      version != std::string("v").append(std::to_string(kFileVersion)))
    throw ConfigError("--schedule: '" + path + "' is not an " +
                      std::string(kFileMagic) + " v" +
                      std::to_string(kFileVersion) + " schedule file");
  std::string token;
  bool saw_end = false;
  while (is >> token) {
    if (token == "mode") {
      std::string mode_name;
      std::string seed_kw;
      std::uint64_t seed = 0;
      if (!(is >> mode_name >> seed_kw >> seed) || seed_kw != "seed")
        throw ConfigError("--schedule: malformed header in '" + path + "'");
    } else if (token == "point") {
      Entry e;
      std::string kind_name;
      if (!(is >> kind_name >> e.rank >> e.n >> e.chosen))
        throw ConfigError("--schedule: malformed point in '" + path + "'");
      e.kind = kind_from_string(kind_name, "'" + path + "'");
      if (e.n < 2 || e.chosen < 0 || e.chosen >= e.n)
        throw ConfigError("--schedule: point #" +
                          std::to_string(recorded_.size()) + " in '" + path +
                          "' has choice " + std::to_string(e.chosen) +
                          " of " + std::to_string(e.n) + " candidates");
      recorded_.push_back(e);
    } else if (token == "end") {
      std::size_t count = 0;
      if (!(is >> count) || count != recorded_.size())
        throw ConfigError("--schedule: truncated recording in '" + path +
                          "' (end count does not match points)");
      saw_end = true;
    } else {
      throw ConfigError("--schedule: unexpected token '" + token + "' in '" +
                        path + "'");
    }
  }
  if (!saw_end)
    throw ConfigError("--schedule: truncated recording in '" + path +
                      "' (missing end marker)");
}

int ReplayController::decide(PointKind kind, int rank, int n,
                             std::uint64_t index) {
  if (cursor_ >= recorded_.size())
    throw StateError("schedule replay diverged at point #" +
                     std::to_string(index) + ": executing " +
                     point_to_string(kind, rank, n) +
                     " but the recording in '" + spec().file + "' has ended");
  const Entry& e = recorded_[cursor_];
  if (e.kind != kind || e.rank != rank || e.n != n)
    throw StateError("schedule replay diverged at point #" +
                     std::to_string(index) + ": executing " +
                     point_to_string(kind, rank, n) + " but '" + spec().file +
                     "' recorded " + point_to_string(e.kind, e.rank, e.n));
  ++cursor_;
  return e.chosen;
}

void ReplayController::on_finish(const std::vector<Entry>&) {
  if (cursor_ != recorded_.size()) {
    const Entry& e = recorded_[cursor_];
    throw StateError("schedule replay diverged: run finished with " +
                     std::to_string(recorded_.size() - cursor_) +
                     " unconsumed point(s) in '" + spec().file +
                     "', next recorded point #" + std::to_string(cursor_) +
                     " is " + point_to_string(e.kind, e.rank, e.n));
  }
}

std::uint64_t parse_seed(const std::string& value, const std::string& spec) {
  std::size_t used = 0;
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty() || value[0] == '-')
    throw ConfigError("--schedule: bad value for 'seed' in '" + spec +
                      "' (expected a non-negative integer, got '" + value +
                      "')");
  return seed;
}

}  // namespace

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kDefault: return "default";
    case Mode::kFuzz: return "fuzz";
    case Mode::kRecord: return "record";
    case Mode::kReplay: return "replay";
  }
  return "?";
}

const char* to_string(PointKind kind) {
  switch (kind) {
    case PointKind::kRankPick: return "rank_pick";
    case PointKind::kMsgMatch: return "msg_match";
    case PointKind::kOffloadPoll: return "offload_poll";
    case PointKind::kTileGrab: return "tile_grab";
  }
  return "?";
}

ScheduleSpec ScheduleSpec::parse(const std::string& spec) {
  ScheduleSpec out;
  if (spec.empty()) return out;
  const std::vector<std::string> parts = split(spec, ':');
  const std::string& mode_name = parts[0];
  if (mode_name == "default") out.mode = Mode::kDefault;
  else if (mode_name == "fuzz") out.mode = Mode::kFuzz;
  else if (mode_name == "record") out.mode = Mode::kRecord;
  else if (mode_name == "replay") out.mode = Mode::kReplay;
  else
    throw ConfigError("--schedule: unknown mode '" + mode_name + "' in '" +
                      spec + "' (known: default fuzz record replay)");
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    if (eq == std::string::npos)
      throw ConfigError("--schedule: expected key=value, got '" + parts[i] +
                        "' in '" + spec + "'");
    const std::string key = parts[i].substr(0, eq);
    const std::string value = parts[i].substr(eq + 1);
    if (key == "seed") {
      if (out.mode != Mode::kFuzz)
        throw ConfigError("--schedule: 'seed' only applies to fuzz, in '" +
                          spec + "'");
      out.seed = parse_seed(value, spec);
    } else if (key == "file") {
      if (value.empty())
        throw ConfigError("--schedule: empty 'file' in '" + spec + "'");
      out.file = value;
    } else {
      throw ConfigError("--schedule: unknown key '" + key + "' in '" + spec +
                        "' (known: seed file)");
    }
  }
  if ((out.mode == Mode::kRecord || out.mode == Mode::kReplay) &&
      out.file.empty())
    throw ConfigError("--schedule: " + std::string(to_string(out.mode)) +
                      " requires file=PATH in '" + spec + "'");
  if (out.mode == Mode::kDefault && !out.file.empty())
    throw ConfigError("--schedule: 'file' without record/replay/fuzz in '" +
                      spec + "'");
  return out;
}

std::string ScheduleSpec::describe() const {
  std::ostringstream os;
  os << to_string(mode);
  if (mode == Mode::kFuzz) os << " seed=" << seed;
  if (!file.empty()) os << (mode == Mode::kReplay ? " from " : " -> ") << file;
  return os.str();
}

std::unique_ptr<ScheduleController> ScheduleController::make(
    const ScheduleSpec& spec) {
  switch (spec.mode) {
    case Mode::kDefault: return nullptr;
    case Mode::kFuzz: return std::make_unique<FuzzController>(spec);
    case Mode::kRecord: return std::make_unique<RecordController>(spec);
    case Mode::kReplay: return std::make_unique<ReplayController>(spec);
  }
  return nullptr;
}

int ScheduleController::choose(PointKind kind, int rank, int n) {
  USW_ASSERT_MSG(n >= 1, "schedule point with no candidates");
  // A single candidate carries no decision: skipping it (identically in
  // every mode) keeps recordings minimal and replay-compatible.
  if (n <= 1) return 0;
  const auto host_t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  const int chosen = decide(kind, rank, n, total_);
  USW_ASSERT_MSG(chosen >= 0 && chosen < n, "controller chose out of range");
  counters_.by_kind[static_cast<int>(kind)] += 1;
  ++total_;
  if (logging()) log_.push_back(Entry{kind, rank, n, chosen});
  // Host-profile bookkeeping only; the measured time never influences the
  // decision or any virtual clock.
  host_.ns[static_cast<int>(kind)] += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_t0)
          .count());
  host_.calls[static_cast<int>(kind)] += 1;
  return chosen;
}

void ScheduleController::finish() {
  std::lock_guard<std::mutex> lk(mu_);
  on_finish(log_);
}

PointCounters ScheduleController::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

ScheduleController::HostOverhead ScheduleController::host_overhead() const {
  std::lock_guard<std::mutex> lk(mu_);
  return host_;
}

std::uint64_t ScheduleController::points_seen() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

}  // namespace usw::schedpt
