#include "sim/simulator.h"

#include <algorithm>
#include <limits>

namespace drt::sim {

namespace {
/// The model a config describes: the explicit one when set, else a
/// uniform model from the legacy shorthand fields.  net::make_model
/// validates (the shorthand path re-checks the legacy invariants the
/// old constructor asserted inline).
net::model_config resolve_model(const simulator_config& config) {
  if (config.model.has_value()) return *config.model;
  net::uniform_model_config u;
  u.min_delay = config.min_delay;
  u.max_delay = config.max_delay;
  u.loss = config.message_loss;
  return u;
}

/// Calendar-queue bucket width: ~1/8 of the model's mean link delay, so
/// a typical in-flight message population spreads over tens of buckets.
/// Clamped away from zero for degenerate (zero-delay) configurations,
/// where the queue gracefully decays to one sorted bucket.
double bucket_width_for(const net::link_model& model) {
  sim_time lo = 0.0;
  sim_time hi = 0.0;
  model.delay_bounds(lo, hi);
  return std::max(0.5 * (lo + hi) / 8.0, 1e-6);
}
}  // namespace

simulator::simulator(simulator_config config)
    : config_(config),
      net_(net::make_model(resolve_model(config))),
      dynamic_(net_->as_dynamic()),
      rng_(config.seed),
      queue_(bucket_width_for(*net_)) {}

simulator::~simulator() = default;

process_id simulator::add_process(std::unique_ptr<process> p) {
  DRT_EXPECT(p != nullptr);
  const auto id = static_cast<process_id>(processes_.size());
  p->id_ = id;
  p->sim_ = this;
  processes_.push_back(std::move(p));
  periodic_.emplace_back();
  live_.insert(id);
  net_->on_process_added(id, rng_);
  processes_.back()->on_start();
  return id;
}

bool simulator::partition(const std::vector<process_id>& side_b) {
  if (dynamic_ == nullptr) return false;
  dynamic_->partition(side_b);
  // Sever in-flight traffic too: a partition cuts links, and packets on
  // a cut link are lost, not delayed until the heal.
  const auto purged = queue_.erase_if([this](const pending_event& ev) {
    return ev.what == pending_event::kind::message &&
           !dynamic_->allows(ev.from, ev.to);
  });
  metrics_.messages_partitioned += purged;
  DRT_ENSURE(pending_work_ >= purged);
  pending_work_ -= purged;
  return true;
}

bool simulator::heal_partition() {
  if (dynamic_ == nullptr) return false;
  dynamic_->heal();
  return true;
}

bool simulator::degrade_links(double latency_factor, double extra_loss,
                              sim_time ramp) {
  if (dynamic_ == nullptr) return false;
  dynamic_->degrade(now_, ramp, latency_factor, extra_loss);
  return true;
}

bool simulator::clear_degradation() {
  if (dynamic_ == nullptr) return false;
  dynamic_->clear_degradation();
  return true;
}

void simulator::crash(process_id id) {
  auto& p = get(id);
  if (!is_alive(id)) return;
  live_.erase(id);
  // Dead-letter purge: in-flight messages to the crashed process would
  // otherwise sit in the queue until their delivery times, spinning
  // run_steps() budget one pop per dead letter.  Drop and count them now.
  // Timers are kept: periodic chains must survive a crash/restart cycle.
  const auto purged = queue_.erase_if([id](const pending_event& ev) {
    return ev.what == pending_event::kind::message && ev.to == id;
  });
  metrics_.messages_to_dead += purged;
  DRT_ENSURE(pending_work_ >= purged);
  pending_work_ -= purged;
  p.on_crash();
}

void simulator::restart(process_id id) {
  auto& p = get(id);
  if (is_alive(id)) return;
  live_.insert(id);
  p.on_start();
}

void simulator::send(process_id from, process_id to, std::uint64_t type) {
  post_message(from, to, type, envelope{});
}

void simulator::post_message(process_id from, process_id to,
                             std::uint64_t type, envelope msg) {
  DRT_EXPECT(to < processes_.size());
  ++metrics_.messages_sent;
  if (link_filter_ && !link_filter_(from, to)) {
    ++metrics_.messages_partitioned;
    return;
  }
  const net::link_decision d = net_->on_send(from, to, now_, rng_);
  if (!d.deliver) {
    ++(d.partitioned ? metrics_.messages_partitioned
                     : metrics_.messages_dropped);
    return;
  }
  pending_event ev;
  ev.at = now_ + d.delay;
  ev.what = pending_event::kind::message;
  ev.from = from;
  ev.to = to;
  ev.type = type;
  ev.payload = std::move(msg);
  if (d.duplicate_lag >= 0.0) {
    // Network-level duplication: the payload block is shared between the
    // two deliveries, so the duplicate is flagged on the event (the
    // message kinds repurpose the periodic-only generation/period slots)
    // and re-queued after the first delivery instead of copied.
    ++metrics_.messages_duplicated;
    ev.generation = 1;
    ev.period = ev.at + d.duplicate_lag;
  }
  push_event(std::move(ev));
}

void simulator::schedule_timer(process_id target, std::uint64_t timer_type,
                               sim_time delay) {
  DRT_EXPECT(target < processes_.size());
  DRT_EXPECT(delay >= 0.0);
  pending_event ev;
  ev.at = now_ + delay;
  ev.what = pending_event::kind::timer;
  ev.to = target;
  ev.type = timer_type;
  push_event(std::move(ev));
}

void simulator::schedule_quiet_timer(process_id target,
                                     std::uint64_t timer_type,
                                     sim_time delay) {
  DRT_EXPECT(target < processes_.size());
  DRT_EXPECT(delay >= 0.0);
  pending_event ev;
  ev.at = now_ + delay;
  ev.what = pending_event::kind::quiet;
  ev.to = target;
  ev.type = timer_type;
  push_event(std::move(ev));
}

void simulator::schedule_periodic(process_id target, std::uint64_t timer_type,
                                  sim_time period, sim_time phase) {
  DRT_EXPECT(target < processes_.size());
  DRT_EXPECT(period > 0.0);
  const auto generation = chain(target, timer_type).generation;
  pending_event ev;
  ev.at = now_ + phase;
  ev.what = pending_event::kind::periodic;
  ev.to = target;
  ev.type = timer_type;
  ev.period = period;
  ev.generation = generation;
  push_event(std::move(ev));
}

void simulator::cancel_periodic(process_id target, std::uint64_t timer_type) {
  DRT_EXPECT(target < processes_.size());
  // Outstanding firings with the old generation are ignored on pop.
  ++chain(target, timer_type).generation;
}

simulator::periodic_chain& simulator::chain(process_id target,
                                            std::uint64_t type) {
  auto& chains = periodic_[target];
  for (auto& c : chains) {
    if (c.type == type) return c;
  }
  return chains.emplace_back(periodic_chain{type, 0});
}

void simulator::push_event(pending_event ev) {
  ev.seq = next_seq_++;
  if (ev.what == pending_event::kind::message ||
      ev.what == pending_event::kind::timer) {
    ++pending_work_;
  }
  queue_.push(std::move(ev));
}

bool simulator::pop_and_execute() {
  if (queue_.empty()) return false;
  pending_event ev = queue_.pop();
  if (ev.what == pending_event::kind::message ||
      ev.what == pending_event::kind::timer) {
    DRT_ENSURE(pending_work_ > 0);
    --pending_work_;
  }
  DRT_ENSURE(ev.at + 1e-12 >= now_);
  now_ = std::max(now_, ev.at);

  auto& target = *processes_[ev.to];
  const bool alive = is_alive(ev.to);
  switch (ev.what) {
    case pending_event::kind::message:
      if (!alive) {
        // Sent while the target was already down (crash-time purge
        // removed everything in flight at that point).  Any pending
        // duplicate dies with it.
        ++metrics_.messages_to_dead;
        return true;
      }
      ++metrics_.messages_delivered;
      ++metrics_.handler_steps;
      if (trace_) trace_({now_, ev.from, ev.to, ev.type});
      target.on_message(ev.from, ev.type, ev.payload);
      if (ev.generation != 0) {
        // Duplicated by the network (see post_message): re-queue the
        // same event — payload block included — for its second arrival.
        pending_event dup = std::move(ev);
        dup.at = dup.period;
        dup.generation = 0;
        push_event(std::move(dup));
      }
      return true;
    case pending_event::kind::timer:
    case pending_event::kind::quiet:
      if (!alive) return true;
      ++metrics_.timers_fired;
      ++metrics_.handler_steps;
      target.on_timer(ev.type);
      return true;
    case pending_event::kind::periodic: {
      if (chain(ev.to, ev.type).generation != ev.generation) {
        return true;  // cancelled
      }
      // Re-arm first so a handler cancelling the timer also stops this
      // chain, then fire.
      pending_event next;
      next.at = now_ + ev.period;
      next.what = pending_event::kind::periodic;
      next.to = ev.to;
      next.type = ev.type;
      next.period = ev.period;
      next.generation = ev.generation;
      push_event(std::move(next));
      if (alive) {
        ++metrics_.timers_fired;
        ++metrics_.handler_steps;
        target.on_timer(ev.type);
      }
      return true;
    }
  }
  return true;
}

sim_time simulator::next_event_time() {
  const pending_event* top = queue_.peek();
  return top != nullptr ? top->at
                        : std::numeric_limits<sim_time>::infinity();
}

void simulator::run_until(sim_time until) {
  DRT_EXPECT(until >= now_);
  while (const pending_event* top = queue_.peek()) {
    if (top->at > until) break;
    pop_and_execute();
  }
  now_ = std::max(now_, until);
}

std::uint64_t simulator::run_steps(std::uint64_t max_steps) {
  const auto start = metrics_.handler_steps;
  while (metrics_.handler_steps - start < max_steps && pending_work_ > 0) {
    pop_and_execute();
  }
  return metrics_.handler_steps - start;
}

}  // namespace drt::sim
