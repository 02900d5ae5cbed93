// Deterministic discrete-event simulator: the distributed-system substrate
// the DR-tree overlay runs on.
//
// The paper's system model (§2.1) is an asynchronous message-passing
// network of processes that join, leave, crash, and suffer transient
// state corruption.  This engine models exactly that: virtual time, typed
// messages delivered after a per-link delay, optional message loss,
// periodic timers (the paper's "periodically triggered" stabilization
// events), and crash/restart of processes.  Everything is driven by one
// seeded RNG, so every experiment is bit-reproducible.
//
// The messaging core is allocation-free on the hot path: payloads travel
// in typed sim::envelope values (sim/message.h) and the scheduler is a
// two-level calendar queue (sim/event_queue.h) with O(1) amortized
// schedule/pop.  Event execution follows the strict total order
// (at, seq) — see the determinism contract in DESIGN.md.
//
// Message fate (latency, loss, partition cuts, duplication) is decided
// by a pluggable net::link_model consulted on the send path (DESIGN.md
// §7).  The default uniform model reproduces the legacy hard-coded
// uniform-delay/iid-loss behavior bit-for-bit.
#ifndef DRT_SIM_SIMULATOR_H
#define DRT_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/model.h"
#include "sim/event_queue.h"
#include "sim/live_set.h"
#include "sim/message.h"
#include "util/expect.h"
#include "util/rng.h"

namespace drt::sim {

class simulator;

/// A process: owns local state, reacts to messages and timers.  Handlers
/// run atomically (the scheduler interleaves handler executions, never
/// preempts one), matching the locally-atomic step semantics the paper's
/// proofs assume.
class process {
 public:
  virtual ~process() = default;

  process_id id() const { return id_; }
  simulator& sim() const { return *sim_; }
  bool alive() const;

  /// Called once when the process is added to the simulation.
  virtual void on_start() {}
  /// A message from `from` (which may have crashed since sending).  Read
  /// the payload with msg.visit<Payload>() — nullptr for payload-less
  /// messages, and the cast is tag-checked (aborts on type confusion).
  virtual void on_message(process_id from, std::uint64_t type,
                          const envelope& msg) = 0;
  /// A timer registered via simulator::schedule_timer fired.
  virtual void on_timer(std::uint64_t /*timer_type*/) {}
  /// The process crashed (uncontrolled departure).  State is NOT cleared
  /// automatically: a restarted process resumes with stale state, which is
  /// precisely the transient-fault model self-stabilization handles.
  virtual void on_crash() {}

 private:
  friend class simulator;
  process_id id_ = kNoProcess;
  simulator* sim_ = nullptr;
};

struct simulator_config {
  std::uint64_t seed = 1;
  /// Legacy shorthand for the default transport: when `model` is unset,
  /// the simulator runs a net::uniform_model built from these three
  /// fields (identical behavior to the original hard-coded send path).
  sim_time min_delay = 0.5;      ///< per-message latency lower bound
  sim_time max_delay = 1.5;      ///< per-message latency upper bound
  double message_loss = 0.0;     ///< iid drop probability per message
  /// Explicit network model; overrides the shorthand fields when set.
  /// Validated (net::validate) at simulator construction.
  std::optional<net::model_config> model;
};

/// Counters the experiment harnesses read.
struct sim_metrics {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;     ///< random loss (any model)
  std::uint64_t messages_partitioned = 0; ///< blocked by filter or partition
  std::uint64_t messages_duplicated = 0;  ///< extra copies the network grew
  std::uint64_t messages_to_dead = 0;     ///< purged at crash or sent to dead
  std::uint64_t timers_fired = 0;
  std::uint64_t handler_steps = 0;  ///< total handler executions
};

class simulator {
 public:
  explicit simulator(simulator_config config = {});
  ~simulator();

  simulator(const simulator&) = delete;
  simulator& operator=(const simulator&) = delete;

  // ----------------------------------------------------------- topology
  /// Register a process; it becomes alive and receives on_start().
  process_id add_process(std::unique_ptr<process> p);

  /// Uncontrolled departure: the process stops receiving messages/timers.
  /// Messages already in flight *to* it are purged from the queue and
  /// counted as messages_to_dead; timers stay queued (periodic chains
  /// survive a crash/restart cycle).
  void crash(process_id id);

  /// Restart a crashed process (keeps its — possibly stale — state).
  void restart(process_id id);

  bool is_alive(process_id id) const { return live_.contains(id); }
  process& get(process_id id) {
    DRT_EXPECT(id < processes_.size());
    return *processes_[id];
  }
  const process& get(process_id id) const {
    DRT_EXPECT(id < processes_.size());
    return *processes_[id];
  }

  /// Visit every live process id in ascending order without
  /// materializing a vector (the per-tick accounting loops in the
  /// overlay/harness run on this).  The walk touches the live bitmap
  /// only, one word per 64 ids.  The visitor may return void, or bool
  /// with false meaning "stop early".
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    live_.for_each(std::forward<Fn>(fn));
  }
  /// O(1): the live set keeps its count.
  std::size_t live_count() const { return live_.count(); }
  /// The k-th live id in ascending id order (0-based, k < live_count()),
  /// in O(log N) — the order statistic behind the contact oracle.
  process_id nth_live(std::size_t k) const { return live_.nth(k); }
  /// Live ids strictly below `id`, in O(log N).
  std::size_t live_rank(process_id id) const { return live_.rank(id); }
  std::size_t process_count() const { return processes_.size(); }

  // ----------------------------------------------------------- messaging
  /// Send message `type` with payload `body` (may be omitted).  The
  /// configured net::link_model decides the fate: delivery delay, random
  /// loss, partition cuts, duplication.  Payloads up to
  /// envelope::kMaxPooledPayload travel in slab-recycled pool blocks —
  /// allocation-free once the simulation reaches a steady state.
  template <typename Payload>
  void send(process_id from, process_id to, std::uint64_t type,
            Payload body) {
    post_message(from, to, type, envelope::wrap(pool_, std::move(body)));
  }
  void send(process_id from, process_id to, std::uint64_t type);

  /// Send only the initialized prefix of a fixed-capacity payload (see
  /// envelope::wrap_prefix): a k-event batch rides one block sized to the
  /// k events actually present, not to the struct's full capacity.
  template <typename Payload>
  void send_prefix(process_id from, process_id to, std::uint64_t type,
                   const Payload& body, std::size_t payload_bytes) {
    post_message(from, to, type,
                 envelope::wrap_prefix(pool_, body, payload_bytes));
  }

  /// The payload pool backing pooled sends (slab/footprint accounting).
  const payload_pool& pool() const { return pool_; }

  /// Install a link filter: messages with allow(from, to) == false are
  /// dropped at send time (counted as partitioned).  Pass nullptr to
  /// heal.  A test hook for arbitrary link predicates; declarative
  /// partitions should use partition()/heal_partition() on a dynamic
  /// net model instead (those also inform the reachability oracle).
  using link_filter = std::function<bool(process_id from, process_id to)>;
  void set_link_filter(link_filter allow) { link_filter_ = std::move(allow); }

  // ------------------------------------------------------ network model
  const net::link_model& net_model() const { return *net_; }
  net::link_model& net_model() { return *net_; }
  /// The dynamic fault layer, or nullptr when the configured model has
  /// none (partition/degrade calls then return false).
  net::dynamic_model* dynamic_net() { return dynamic_; }
  const net::dynamic_model* dynamic_net() const { return dynamic_; }

  /// Partition the network: `side_b` on one side, everyone else on the
  /// other.  Cross-cut messages already in flight are purged (a cut
  /// severs links, not just future sends) and counted as partitioned;
  /// subsequent cross-cut sends are dropped the same way.  Returns false
  /// (and does nothing) when the model has no dynamic layer.
  bool partition(const std::vector<process_id>& side_b);
  /// Remove the active partition.  False when the model is not dynamic.
  bool heal_partition();
  /// Ramp all links to `latency_factor` x latency and `extra_loss`
  /// stacked loss over `ramp` virtual time starting now, then hold.
  bool degrade_links(double latency_factor, double extra_loss,
                     sim_time ramp);
  bool clear_degradation();

  /// Reachability under the active partition (true when none): the
  /// failure-detector oracle overlay protocols consult.  A partitioned
  /// peer is indistinguishable from a crashed one.
  bool reachable(process_id from, process_id to) const {
    return dynamic_ == nullptr || dynamic_->allows(from, to);
  }

  /// Trace hook: invoked at every message *delivery* (after the latency,
  /// before the handler).  For logging/analysis tooling; pass nullptr to
  /// disable.
  struct trace_event {
    sim_time at = 0.0;
    process_id from = kNoProcess;
    process_id to = kNoProcess;
    std::uint64_t type = 0;
  };
  using trace_hook = std::function<void(const trace_event&)>;
  void set_trace(trace_hook hook) { trace_ = std::move(hook); }

  /// One-shot timer for `target` after `delay`.
  void schedule_timer(process_id target, std::uint64_t timer_type,
                      sim_time delay);
  /// One-shot timer that — like a periodic — does NOT count toward
  /// pending_work(): run_steps()-style quiescence ignores it, and it is
  /// silently dropped if the target is dead when it comes due.  The
  /// dirty-mode stabilizer arms its future passes with these, so an
  /// armed pass never keeps settle() spinning.
  void schedule_quiet_timer(process_id target, std::uint64_t timer_type,
                            sim_time delay);
  /// Recurring timer with the given period, first firing after `phase`.
  /// Periodic timers drive the paper's CHECK_* stabilization modules.
  void schedule_periodic(process_id target, std::uint64_t timer_type,
                         sim_time period, sim_time phase);
  /// Cancel all periodic timers of one type for a process.
  void cancel_periodic(process_id target, std::uint64_t timer_type);

  // ----------------------------------------------------------- execution
  /// Run until the event queue drains or `until` virtual time is reached.
  /// Periodic timers alone do not keep the run alive past `until`.
  void run_until(sim_time until);

  /// Process events — executing any periodic timers that come due along
  /// the way — until no non-periodic work (messages, one-shot timers)
  /// remains queued, or the step budget is exhausted.  Returns the number
  /// of handler steps taken.  This is how experiments "drain" the protocol
  /// to quiescence.
  std::uint64_t run_steps(std::uint64_t max_steps);

  /// Non-periodic events currently queued (messages + one-shot timers;
  /// quiet timers and periodics excluded).
  std::size_t pending_work() const { return pending_work_; }

  /// Virtual time of the earliest queued event of any kind, or +infinity
  /// when the queue is empty.  The sharded kernel peeks this to skip
  /// dispatching workers at shards with nothing due inside a window.
  sim_time next_event_time();

  sim_time now() const { return now_; }
  const sim_metrics& metrics() const { return metrics_; }
  util::rng& rng() { return rng_; }
  const simulator_config& config() const { return config_; }

 private:
  /// One periodic chain of a process: its timer type and the generation
  /// its firings must carry (bumped to cancel outstanding firings).
  struct periodic_chain {
    std::uint64_t type = 0;
    std::uint64_t generation = 0;
  };
  /// The chain of (target, type), created at generation 0 on first use.
  periodic_chain& chain(process_id target, std::uint64_t type);

  void post_message(process_id from, process_id to, std::uint64_t type,
                    envelope msg);
  void push_event(pending_event ev);
  bool pop_and_execute();

  simulator_config config_;
  std::unique_ptr<net::link_model> net_;
  net::dynamic_model* dynamic_ = nullptr;  ///< net_'s fault layer, if any
  util::rng rng_;
  sim_time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_work_ = 0;
  sim_metrics metrics_;
  link_filter link_filter_;
  trace_hook trace_;
  std::vector<std::unique_ptr<process>> processes_;
  live_set live_;
  /// Periodic chains by process id; a process has one per timer type
  /// (the overlay uses one), so a linear scan finds it.
  std::vector<std::vector<periodic_chain>> periodic_;
  payload_pool pool_;
  calendar_queue queue_;
};

inline bool process::alive() const {
  return sim_ != nullptr && sim_->is_alive(id_);
}

}  // namespace drt::sim

#endif  // DRT_SIM_SIMULATOR_H
