#include "glidein/agent_registry.hpp"

namespace cg::glidein {

GlideinAgent& AgentRegistry::create(SiteId site, GlideinAgentConfig config) {
  const AgentId id = ids_.next();
  auto agent = std::make_unique<GlideinAgent>(sim_, id, site, config);
  auto [it, inserted] = agents_.emplace(id, std::move(agent));
  by_site_[site].push_back(it->second.get());
  return *it->second;
}

void AgentRegistry::remove(AgentId id) {
  const auto it = agents_.find(id);
  if (it == agents_.end()) return;
  const auto bucket = by_site_.find(it->second->site());
  std::erase(bucket->second, it->second.get());
  if (bucket->second.empty()) by_site_.erase(bucket);
  agents_.erase(it);
}

GlideinAgent* AgentRegistry::find(AgentId id) {
  const auto it = agents_.find(id);
  return it != agents_.end() ? it->second.get() : nullptr;
}

GlideinAgent* AgentRegistry::find_by_carrier(JobId job) {
  for (auto& [id, agent] : agents_) {
    if (agent->carrier_job_id() == job) return agent.get();
  }
  return nullptr;
}

std::span<GlideinAgent* const> AgentRegistry::agents_at(SiteId site) const {
  const auto it = by_site_.find(site);
  if (it == by_site_.end()) return {};
  return it->second;
}

int AgentRegistry::running_agents() const {
  int n = 0;
  for (const auto& [id, agent] : agents_) {
    if (agent->state() == AgentState::kRunning) ++n;
  }
  return n;
}

}  // namespace cg::glidein
