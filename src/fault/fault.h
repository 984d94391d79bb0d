#pragma once

// Deterministic, seeded fault injection + recovery policy knobs.
//
// Real TaihuLight runs at 128+ core-groups see CPE kernels stall or die,
// DMA transfers fail, and MPI messages arrive late or not at all. This
// module models those failures *inside the discrete-event simulation* so
// the recovery machinery (offload retry, CPE-group degradation, message
// retransmit, restart-from-checkpoint) can be exercised reproducibly.
//
// Determinism contract: every injection decision is a pure hash of
// (plan seed, fault kind, stable event identifiers) — never a draw from a
// sequential PRNG stream. Hashes are evaluation-order independent, so any
// scheduler interleaving sees the same faults and stays bit-identical
// under the same seed. Faults are
// charged in virtual time only; payloads are never corrupted, which is
// what makes a recovered run's numerics bit-equal to a fault-free run.
//
// CLI spec grammar (see FaultPlan::parse):
//
//   --inject=kind[:key=value...][,kind[:key=value...]...]
//
//   kinds: cpe_stall   one CPE of an offload runs `factor` x slower
//          offload_fail the whole offload fails at completion; the
//                       scheduler retries with backoff, then degrades
//          dma_error    a tile's input DMA fails once and is re-issued
//          msg_delay    a message arrives `factor` x net-latency late
//          msg_loss     a message is dropped; the sender retransmits
//                       on a cost-model-derived timeout
//   keys:  p=<prob>    per-event probability (default 1 if step= given,
//                      else required)
//          step=<n>    only fire at this timestep (offload-side kinds)
//          factor=<f>  slowdown / delay multiplier (default 8)
//
// Example: --inject=cpe_stall:p=1e-3,msg_delay:p=1e-2:factor=8,offload_fail:step=7

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/units.h"

namespace usw::fault {

enum class FaultKind {
  kCpeStall,
  kOffloadFail,
  kDmaError,
  kMsgDelay,
  kMsgLoss,
};

const char* to_string(FaultKind kind);

/// One clause of an --inject spec.
struct FaultRule {
  FaultKind kind = FaultKind::kCpeStall;
  double p = -1.0;      ///< per-event probability; < 0 = unset
  int step = -1;        ///< >= 0: fire only at this timestep
  double factor = 8.0;  ///< stall slowdown / delay multiplier

  /// Effective probability: explicit p, else 1 when step-pinned, else 0.
  double probability() const { return p >= 0.0 ? p : (step >= 0 ? 1.0 : 0.0); }
};

/// Parsed, immutable injection plan. Shared read-only by every rank and
/// by the Network, so it is safe to consult from any thread.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses an --inject spec (see grammar above). Throws ConfigError on an
  /// unknown kind or key, a malformed number, or an out-of-range value.
  /// An empty spec yields an empty (inactive) plan.
  static FaultPlan parse(const std::string& spec, std::uint64_t seed);

  bool empty() const { return rules_.empty(); }
  bool has(FaultKind kind) const {
    for (const FaultRule& r : rules_)
      if (r.kind == kind) return true;
    return false;
  }

  /// Human-readable one-line description (for run banners).
  std::string describe() const;

  // -- Injection decisions (pure hashes; const and thread-safe) ----------

  struct Stall {
    int cpe = 0;         ///< which CPE of the group stalls
    double factor = 1.0; ///< its busy time is multiplied by this
  };

  /// Does the offload (rank, step, task, attempt) contain a stalled CPE?
  std::optional<Stall> cpe_stall(std::uint64_t incarnation, int rank, int step,
                                 int task, int attempt, int n_cpes) const;

  /// Does the offload (rank, step, task, attempt) fail at completion?
  bool offload_fails(std::uint64_t incarnation, int rank, int step, int task,
                     int attempt) const;

  /// Does tile `tile` of the offload suffer a failed (re-issued) input DMA?
  bool dma_error(std::uint64_t incarnation, int rank, int step, int task,
                 int tile) const;

  /// Extra-delay multiplier for message (seq, attempt), if delayed.
  std::optional<double> msg_delay_factor(std::uint64_t seq, int attempt) const;

  /// Is message (seq, attempt) lost in the network?
  bool msg_lost(std::uint64_t seq, int attempt) const;

 private:
  const FaultRule* rule(FaultKind kind) const;
  /// Uniform [0,1) hash of (seed, kind, a, b, c, d, e).
  double uniform(FaultKind kind, std::uint64_t a, std::uint64_t b,
                 std::uint64_t c, std::uint64_t d, std::uint64_t e) const;
  std::uint64_t hash(FaultKind kind, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c, std::uint64_t d, std::uint64_t e) const;

  std::uint64_t seed_ = 0;
  std::vector<FaultRule> rules_;
};

/// Recovery policy knobs, consumed by comm (retransmit) and the controller
/// (restart-on-deadline). The scheduler's offload retry and degradation
/// policy is fixed (sched/scheduler.cc).
struct RecoveryConfig {
  /// Restart the step from the last checkpoint when its (virtual) wall
  /// exceeds this. 0 disables restart-on-deadline.
  TimePs step_deadline = 0;
  /// Upper bound on checkpoint restarts per run (termination guarantee).
  int max_restarts = 4;
  /// Retransmit lost messages on the cost-model timeout (default on).
  /// Disabling it turns message loss into a virtual-time deadlock — used
  /// by the diagnostics smoke tests to induce a hang deterministically.
  bool retransmit = true;
};

/// Per-rank view of a FaultPlan: folds the rank id and the restart
/// incarnation into every decision, so replayed steps after a
/// restart-from-checkpoint see fresh fault draws. (Message-level faults
/// key on the network sequence number, which is monotonic across
/// restarts, and bypass the injector.)
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int rank) : plan_(&plan), rank_(rank) {}

  const FaultPlan& plan() const { return *plan_; }
  bool active() const { return !plan_->empty(); }
  std::uint64_t incarnation() const { return incarnation_; }

  /// Called (collectively, on every rank) at each restart-from-checkpoint
  /// so the replay does not deterministically re-hit the same faults.
  void bump_incarnation() { ++incarnation_; }

  std::optional<FaultPlan::Stall> cpe_stall(int step, int task, int attempt,
                                            int n_cpes) const {
    return plan_->cpe_stall(incarnation_, rank_, step, task, attempt, n_cpes);
  }
  bool offload_fails(int step, int task, int attempt) const {
    return plan_->offload_fails(incarnation_, rank_, step, task, attempt);
  }

 private:
  const FaultPlan* plan_;
  int rank_;
  std::uint64_t incarnation_ = 0;
};

}  // namespace usw::fault
