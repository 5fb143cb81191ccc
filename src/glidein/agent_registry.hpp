// Broker-side registry of glide-in agents. The paper's key startup result
// rests on this: "information about existing VMs is kept locally by
// CrossBroker", so interactive submission in shared mode skips the
// discovery and selection phases entirely.
#pragma once

#include <map>
#include <memory>
#include <ranges>
#include <span>
#include <unordered_map>
#include <vector>

#include "glidein/agent.hpp"

namespace cg::glidein {

class AgentRegistry {
public:
  explicit AgentRegistry(sim::Simulation& sim) : sim_{sim} {}

  /// Creates a new agent bound to a site; the caller submits its carrier job.
  GlideinAgent& create(SiteId site, GlideinAgentConfig config = {});

  /// Permanently removes an agent (after death or dismissal).
  void remove(AgentId id);

  [[nodiscard]] GlideinAgent* find(AgentId id);
  /// The agent whose carrier LRMS job is `job`, if any.
  [[nodiscard]] GlideinAgent* find_by_carrier(JobId job);

  /// The agents bound to `site`, in agent-id order; empty for a site with
  /// none. A site snapshot walks only these, so its cost does not grow with
  /// the rest of the grid. Invalidated by create() and remove().
  [[nodiscard]] std::span<GlideinAgent* const> agents_at(SiteId site) const;
  /// Number of sites with at least one agent (one index bucket each).
  [[nodiscard]] std::size_t sites_with_agents() const { return by_site_.size(); }

  [[nodiscard]] int total_agents() const { return static_cast<int>(agents_.size()); }
  [[nodiscard]] int running_agents() const;

  /// Every agent in id order, as a view over the registry (no copy).
  [[nodiscard]] auto all() const {
    return agents_ | std::views::transform(
                         [](const auto& entry) -> GlideinAgent& {
                           return *entry.second;
                         });
  }

private:
  sim::Simulation& sim_;
  IdGenerator<AgentId> ids_;
  std::map<AgentId, std::unique_ptr<GlideinAgent>> agents_;
  /// Per-site index over agents_: ids are issued in increasing order, so
  /// appending keeps each bucket sorted by id. Empty buckets are erased.
  std::unordered_map<SiteId, std::vector<GlideinAgent*>> by_site_;
};

}  // namespace cg::glidein
