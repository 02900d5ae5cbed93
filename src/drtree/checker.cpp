#include "drtree/checker.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "drtree/dot.h"
#include "obs/trace.h"

namespace drt::overlay {

using spatial::kNoPeer;
using spatial::peer_id;

namespace {

std::string where(peer_id p, std::size_t h) {
  std::ostringstream out;
  out << "peer " << p << " @h" << h;
  return out.str();
}

}  // namespace

check_report checker::check(bool check_containment,
                            bool dump_on_violation) const {
  check_report r;
  r.live_peers = overlay_.live_count();
  if (r.live_peers == 0) return r;

  auto complain = [&](const std::string& text,
                      peer_id who = kNoPeer) {
    r.violations.push_back(text);
    if (who != kNoPeer && std::find(r.offenders.begin(), r.offenders.end(),
                                    who) == r.offenders.end()) {
      r.offenders.push_back(who);
    }
  };

  const auto m = overlay_.config().min_children;
  const auto big_m = overlay_.config().max_children;
  const bool check_cover_rule =
      overlay_.config().election == election_policy::largest_mbr;

  double children_sum = 0.0;
  std::size_t interior_count = 0;

  peer_id root = kNoPeer;
  overlay_.for_each_live([&](peer_id p) {
    const auto& peer = overlay_.peer(p);
    if (peer.is_root()) {
      ++r.roots;
      root = p;
    }
  });
  if (r.roots != 1) {
    std::ostringstream out;
    out << "expected exactly one root, found " << r.roots;
    complain(out.str());
  }

  overlay_.for_each_live([&](peer_id p) {
    const auto& peer = overlay_.peer(p);
    const auto heights = peer.instance_heights();
    r.instances += heights.size();

    // Heights must be exactly 0..top (the peer is present at every level
    // of its subtree).
    for (std::size_t i = 0; i < heights.size(); ++i) {
      if (heights[i] != i) {
        complain("peer " + std::to_string(p) +
                     " has non-contiguous instance heights",
                 p);
        break;
      }
    }

    std::size_t peer_links = 0;
    for (const auto h : heights) {
      const auto& ins = peer.inst(h);
      peer_links += ins.children.size() + 1;

      if (h == 0) {
        if (ins.mbr != peer.filter()) {
          complain(where(p, h) + ": leaf MBR differs from filter", p);
        }
        if (!ins.children.empty()) {
          complain(where(p, h) + ": leaf instance has children", p);
        }
      } else {
        ++interior_count;
        children_sum += static_cast<double>(ins.children.size());
        r.max_interior_children =
            std::max(r.max_interior_children, ins.children.size());

        // Degree bounds (Definition 3.1 bullet 1).  A two-peer system
        // cannot avoid a 2-child root below m; the root is exempt from m.
        const bool is_root_instance = peer.is_root() && h == peer.top();
        if (ins.children.size() > big_m) {
          complain(where(p, h) + ": more than M children (" +
                       std::to_string(ins.children.size()) + ")",
                   p);
        }
        if (is_root_instance) {
          if (ins.children.size() < 2) {
            complain(where(p, h) + ": root with fewer than 2 children", p);
          }
        } else if (ins.children.size() < m) {
          complain(where(p, h) + ": fewer than m children (" +
                       std::to_string(ins.children.size()) + ")",
                   p);
        }

        // underloaded flag correctness (Fig. 12).
        if (ins.underloaded != (ins.children.size() < m)) {
          complain(where(p, h) + ": underloaded flag incorrect", p);
        }

        // Self-child invariant (§3: "recursively its own child").
        if (!ins.has_child(p)) {
          complain(where(p, h) + ": missing own lower instance in children", p);
        }

        // Children coherence + MBR exactness (bullets 2 and 4).
        auto expected = spatial::box::empty();
        for (const auto q : ins.children) {
          if (!overlay_.alive(q)) {
            complain(where(p, h) + ": dead child " + std::to_string(q), p);
            continue;
          }
          const auto* qi = overlay_.peer(q).find_inst(h - 1);
          if (qi == nullptr) {
            complain(where(p, h) + ": child " + std::to_string(q) +
                         " lacks an instance at h-1",
                     p);
            continue;
          }
          if (qi->parent != p) {
            complain(where(p, h) + ": child " + std::to_string(q) +
                         " points to a different parent",
                     p);
          }
          expected = join(expected, qi->mbr);
        }
        if (ins.mbr != expected) {
          complain(where(p, h) + ": MBR is not the union of children MBRs", p);
        }

        // Cover optimality (bullet 3): no child covers better than the
        // peer's own lower instance.
        if (check_cover_rule) {
          const auto* own = peer.find_inst(h - 1);
          const double own_area =
              own == nullptr
                  ? -1.0
                  : own->mbr.clamped(overlay_.config().workspace).area();
          for (const auto q : ins.children) {
            if (q == p || !overlay_.alive(q)) continue;
            const auto* qi = overlay_.peer(q).find_inst(h - 1);
            if (qi == nullptr) continue;
            const double qa =
                qi->mbr.clamped(overlay_.config().workspace).area();
            if (qa > own_area) {
              complain(where(p, h) + ": child " + std::to_string(q) +
                           " offers a better cover",
                       p);
              break;
            }
          }
        }
      }

      // Parent coherence (bullet 2).
      if (h < peer.top()) {
        if (ins.parent != p) {
          complain(where(p, h) + ": non-top instance not own-parented", p);
        }
      } else if (ins.parent == p) {
        // Root instance; uniqueness checked globally.
      } else if (ins.parent == kNoPeer || !overlay_.alive(ins.parent)) {
        complain(where(p, h) + ": parent missing or dead", p);
      } else {
        const auto* pi = overlay_.peer(ins.parent).find_inst(h + 1);
        if (pi == nullptr || !pi->has_child(p)) {
          complain(where(p, h) + ": not registered at parent " +
                       std::to_string(ins.parent),
                   p);
        }
      }
    }
    r.memory_links += peer_links;
    r.max_peer_links = std::max(r.max_peer_links, peer_links);
  });

  if (interior_count > 0) {
    r.avg_interior_children = children_sum / static_cast<double>(interior_count);
  }

  // Reachability from the root (every subscriber must be in the tree).
  if (root != kNoPeer && r.roots == 1) {
    r.height = overlay_.peer(root).top();
    std::unordered_set<peer_id> seen;
    std::deque<std::pair<peer_id, std::size_t>> frontier;  // (peer, height)
    frontier.emplace_back(root, r.height);
    seen.insert(root);
    while (!frontier.empty()) {
      const auto [p, h] = frontier.front();
      frontier.pop_front();
      if (h == 0) continue;
      const auto* ins = overlay_.alive(p) ? overlay_.peer(p).find_inst(h)
                                          : nullptr;
      if (ins == nullptr) continue;
      for (const auto q : ins->children) {
        if (overlay_.alive(q)) frontier.emplace_back(q, h - 1);
        seen.insert(q);
      }
    }
    std::size_t reached = 0;
    overlay_.for_each_live([&](peer_id p) {
      if (seen.count(p)) {
        ++reached;
      } else {
        complain("peer " + std::to_string(p) + " unreachable from root", p);
      }
    });
    r.reachable = reached;
  }

  // Properties 3.1 / 3.2 over strictly-contained pairs.
  if (check_containment && root != kNoPeer && r.roots == 1) {
    // The all-pairs scans below genuinely need a random-access snapshot;
    // build it here so the common check(false) path stays allocation-free.
    std::vector<peer_id> live;
    live.reserve(r.live_peers);
    overlay_.for_each_live([&](peer_id p) { live.push_back(p); });

    // Ancestor peer chains from each peer's topmost instance.
    std::unordered_map<peer_id, std::vector<peer_id>> ancestors;
    for (const auto p : live) {
      std::vector<peer_id> chain;
      peer_id cur = p;
      std::size_t h = overlay_.peer(p).top();
      std::size_t guard = 0;
      while (guard++ < 128) {
        const auto* ins = overlay_.peer(cur).find_inst(h);
        if (ins == nullptr || ins->parent == cur) break;
        if (!overlay_.alive(ins->parent)) break;
        cur = ins->parent;
        ++h;
        chain.push_back(cur);
      }
      ancestors.emplace(p, std::move(chain));
    }
    auto parent_of_top = [&](peer_id p) -> peer_id {
      const auto& chain = ancestors.at(p);
      return chain.empty() ? kNoPeer : chain.front();
    };
    auto is_ancestor = [&](peer_id a, peer_id b) {
      // Is a's top an ancestor of b's top?
      const auto& chain = ancestors.at(b);
      return std::find(chain.begin(), chain.end(), a) != chain.end();
    };

    for (const auto s2 : live) {       // container
      for (const auto s1 : live) {     // containee
        if (s1 == s2) continue;
        const auto& f1 = overlay_.peer(s1).filter();
        const auto& f2 = overlay_.peer(s2).filter();
        if (!f2.contains(f1) || f1 == f2) continue;  // need strict s1 < s2
        ++r.containment_pairs;
        // Property 3.1: the containee's top must not be an ancestor of
        // the container's top.  Counted, not fatal: the properties are
        // routing-accuracy goals, not part of Definition 3.1 legality
        // (the paper itself notes insertion/removal order "may lead to
        // sub-optimal configurations").
        if (is_ancestor(s1, s2)) ++r.weak_violations;
        // Property 3.2: some container s3 of s1 (s2 itself or another
        // container not comparable upward) is an ancestor or sibling.
        bool satisfied = false;
        for (const auto s3 : live) {
          if (s3 == s1) continue;
          const auto& f3 = overlay_.peer(s3).filter();
          if (!f3.contains(f1)) continue;
          if (is_ancestor(s3, s1) ||
              (parent_of_top(s3) != kNoPeer &&
               parent_of_top(s3) == parent_of_top(s1))) {
            satisfied = true;
            break;
          }
        }
        if (satisfied) ++r.strong_satisfied;
      }
    }
  }

  if (!r.violations.empty()) {
    if (auto* t = overlay_.trace()) {
      t->emit(overlay_.sim().now(), obs::trace_kind::violation, 0,
              r.violations.size());
    }
    // First violating assertion-level check of a tracing overlay: freeze
    // the flight recorder so the illegal state explains itself from CI
    // artifacts.  Polling checks (dump_on_violation == false) only emit
    // the trace record — transient illegality mid-convergence is normal.
    if (dump_on_violation && overlay_.claim_violation_dump()) {
      r.dump_path = dump(r);
    }
  }

  return r;
}

std::string checker::dump(const check_report& report) const {
  std::ostringstream ctx;
  ctx << "checker found " << report.violations.size() << " violation(s), "
      << report.live_peers << " live peers, " << report.roots << " roots\n";
  constexpr std::size_t kMaxViolations = 50;
  for (std::size_t i = 0;
       i < report.violations.size() && i < kMaxViolations; ++i) {
    ctx << "  " << report.violations[i] << "\n";
  }
  if (report.violations.size() > kMaxViolations) {
    ctx << "  ... " << report.violations.size() - kMaxViolations
        << " more\n";
  }
  constexpr std::size_t kMaxOffenders = 8;
  ctx << "\n--- offending peers' instance chains ---\n";
  for (std::size_t i = 0;
       i < report.offenders.size() && i < kMaxOffenders; ++i) {
    ctx << describe_instance_chain(overlay_, report.offenders[i]);
  }
  ctx << "\n--- offender chain subgraphs (graphviz) ---\n";
  for (std::size_t i = 0;
       i < report.offenders.size() && i < kMaxOffenders; ++i) {
    ctx << to_dot_instance_chain(overlay_, report.offenders[i]);
  }
  const auto* t = overlay_.trace();
  return obs::write_flight_dump(
      "checker-violation",
      t != nullptr ? t->snapshot() : std::vector<obs::trace_record>{}, 512,
      ctx.str());
}

bool checker::within_height_bound(std::size_t height, std::size_t m,
                                  std::size_t n, std::size_t slack) {
  if (n <= 1) return height == 0;
  const double bound =
      std::ceil(std::log(static_cast<double>(n)) /
                std::log(static_cast<double>(std::max<std::size_t>(m, 2))));
  return static_cast<double>(height) <= bound + static_cast<double>(slack);
}

}  // namespace drt::overlay
