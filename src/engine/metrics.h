// Structured per-phase metrics for scenario runs (DESIGN.md §6).
//
// Every executed phase appends one phase_metrics row with a *fixed*
// schema, whatever the backend — that is what makes cross-backend sweeps
// and bench JSON comparable ("schema-identical"), and what the
// determinism tests hash: two runs of the same scenario with the same
// seed must produce bit-identical recorder output.
#ifndef DRT_ENGINE_METRICS_H
#define DRT_ENGINE_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/table.h"

namespace drt::engine {

/// Aggregate accuracy/cost of one publish sweep.
struct sweep_stats {
  std::size_t events = 0;
  std::size_t population = 0;  ///< live subscriptions during the sweep
  std::uint64_t deliveries = 0;
  std::uint64_t interested = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  std::uint64_t messages = 0;
  std::uint64_t hops_total = 0;  ///< sum over events of the worst path
  std::size_t max_hops = 0;

  /// The paper's "false positive rate ... 2-3%": the probability that a
  /// subscriber receives an event it is not interested in, i.e. FP count
  /// over (events x population).
  double fp_rate() const {
    const auto denom =
        static_cast<double>(events) * static_cast<double>(population);
    return denom == 0.0 ? 0.0
                        : static_cast<double>(false_positives) / denom;
  }
  double fn_rate() const {
    return interested == 0 ? 0.0
                           : static_cast<double>(false_negatives) /
                                 static_cast<double>(interested);
  }
  double messages_per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(messages) /
                             static_cast<double>(events);
  }
  double mean_hops() const {
    return events == 0 ? 0.0
                       : static_cast<double>(hops_total) /
                             static_cast<double>(events);
  }
};

/// One executed (or skipped) phase.  Fields that do not apply to a phase
/// kind stay at their defaults so the schema is uniform.
struct phase_metrics {
  std::size_t index = 0;
  std::string phase;
  bool skipped = false;    ///< backend lacked the required capability
  double ramp = -1.0;      ///< param_ramp step value; -1 otherwise

  std::size_t population = 0;  ///< live subscriptions after the phase
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  std::size_t corruptions = 0;

  int rounds = 0;   ///< converge: rounds to legal (-1 = diverged)
  int legal = -1;   ///< 1/0 after a legality check; -1 = not checked

  std::size_t events = 0;
  std::size_t deliveries = 0;
  std::size_t interested = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  std::size_t max_hops = 0;

  std::uint64_t messages = 0;  ///< network messages spent in the phase
  std::uint64_t rebuilds = 0;  ///< structure rebuilds (baselines)

  // Stabilizer scheduling cost (DESIGN.md §11).  Both stay 0 for
  // backends without cap_stabilize; in full mode skipped is always 0.
  std::uint64_t stabilize_visited = 0;  ///< passes run during the phase
  std::uint64_t stabilize_skipped = 0;  ///< ticks skipped (dirty mode)

  /// Sweep-phase rates, with the same conventions as sweep_stats.
  double fp_rate() const {
    const auto denom =
        static_cast<double>(events) * static_cast<double>(population);
    return denom == 0.0 ? 0.0
                        : static_cast<double>(false_positives) / denom;
  }
  double fn_rate() const {
    return interested == 0 ? 0.0
                           : static_cast<double>(false_negatives) /
                                 static_cast<double>(interested);
  }
  double messages_per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(messages) /
                             static_cast<double>(events);
  }

  // Structural snapshot — filled only by the final "shape" row.
  std::size_t height = 0;
  std::size_t max_degree = 0;
  double avg_degree = 0.0;
  std::size_t routing_state = 0;
};

class metrics_recorder {
 public:
  metrics_recorder() = default;
  metrics_recorder(std::string backend, std::string scenario,
                   std::uint64_t seed)
      : backend_(std::move(backend)), scenario_(std::move(scenario)),
        seed_(seed) {}

  void add(phase_metrics m);

  const std::vector<phase_metrics>& phases() const { return phases_; }
  const std::string& backend() const { return backend_; }
  const std::string& scenario() const { return scenario_; }
  std::uint64_t seed() const { return seed_; }

  /// Most recent row with the given phase label, nullptr when absent.
  const phase_metrics* last(const std::string& phase) const;

  /// The fixed column schema, identical for every backend and scenario.
  static std::vector<std::string> headers();

  /// One row per phase, leading with backend/scenario identity columns.
  util::table to_table() const;

  /// Append this recorder's rows to an existing table built with
  /// headers() (cross-backend sweeps concatenate recorders this way).
  void append_rows(util::table& out) const;

  /// FNV-1a over the formatted phase rows (identity columns excluded, so
  /// two backends producing identical metrics hash identically).
  std::uint64_t digest() const;

 private:
  std::vector<std::string> row_cells(const phase_metrics& m) const;

  std::string backend_;
  std::string scenario_;
  std::uint64_t seed_ = 0;
  std::vector<phase_metrics> phases_;
};

}  // namespace drt::engine

#endif  // DRT_ENGINE_METRICS_H
