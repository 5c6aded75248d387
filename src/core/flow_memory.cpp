#include "core/flow_memory.hpp"

namespace edgesim::core {

FlowMemory::FlowMemory(SimTime idleTimeout,
                       telemetry::MetricsRegistry* telemetry)
    : idleTimeout_(idleTimeout) {
  if (telemetry == nullptr) return;
  hits_ = &telemetry->counter("edgesim_flow_memory_lookups_total",
                              {{"shard", "0"}, {"result", "hit"}});
  misses_ = &telemetry->counter("edgesim_flow_memory_lookups_total",
                                {{"shard", "0"}, {"result", "miss"}});
  expirations_ = &telemetry->counter("edgesim_flow_memory_evictions_total",
                                     {{"shard", "0"}, {"reason", "expired"}});
  invalidations_ =
      &telemetry->counter("edgesim_flow_memory_evictions_total",
                          {{"shard", "0"}, {"reason", "invalidated"}});
  occupancy_ = &telemetry->gauge("edgesim_flow_memory_flows", {{"shard", "0"}});
}

void FlowMemory::upsert(Ipv4 client, Endpoint service, Endpoint instance,
                        const std::string& cluster, SimTime now) {
  auto [it, inserted] = flows_.try_emplace(Key{client, service});
  it->second = MemorizedFlow{Endpoint(client, 0), service, instance, cluster,
                             now};
  if (inserted && occupancy_ != nullptr) occupancy_->add(1);
}

void FlowMemory::touch(Ipv4 client, Endpoint service, SimTime now) {
  const auto it = flows_.find(Key{client, service});
  if (it != flows_.end() && it->second.lastSeen < now) {
    it->second.lastSeen = now;
  }
}

bool FlowMemory::rebind(Ipv4 client, Endpoint service, Endpoint instance,
                        const std::string& cluster, SimTime now) {
  const auto it = flows_.find(Key{client, service});
  if (it == flows_.end()) return false;
  it->second.instance = instance;
  it->second.cluster = cluster;
  it->second.lastSeen = now;
  return true;
}

std::vector<MemorizedFlow> FlowMemory::flowsForClient(Ipv4 client) const {
  std::vector<MemorizedFlow> flows;
  for (const auto& [key, flow] : flows_) {
    if (key.client == client) flows.push_back(flow);
  }
  return flows;
}

std::vector<MemorizedFlow> FlowMemory::snapshot() const {
  std::vector<MemorizedFlow> flows;
  flows.reserve(flows_.size());
  for (const auto& [key, flow] : flows_) flows.push_back(flow);
  return flows;
}

std::optional<MemorizedFlow> FlowMemory::lookup(Ipv4 client,
                                                Endpoint service) const {
  const auto it = flows_.find(Key{client, service});
  if (it == flows_.end()) {
    if (misses_ != nullptr) misses_->add();
    return std::nullopt;
  }
  if (hits_ != nullptr) hits_->add();
  return it->second;
}

std::vector<MemorizedFlow> FlowMemory::expire(SimTime now) {
  std::vector<MemorizedFlow> expired;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.lastSeen >= idleTimeout_) {
      expired.push_back(std::move(it->second));
      it = flows_.erase(it);
      if (expirations_ != nullptr) expirations_->add();
      if (occupancy_ != nullptr) occupancy_->add(-1);
    } else {
      ++it;
    }
  }
  return expired;
}

template <typename Pred>
void FlowMemory::forgetIf(Pred evict) {
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (evict(it->second)) {
      it = flows_.erase(it);
      if (invalidations_ != nullptr) invalidations_->add();
      if (occupancy_ != nullptr) occupancy_->add(-1);
    } else {
      ++it;
    }
  }
}

void FlowMemory::forgetInstance(Endpoint instance) {
  forgetIf(
      [&](const MemorizedFlow& flow) { return flow.instance == instance; });
}

void FlowMemory::forgetServiceExcept(Endpoint service,
                                     const std::string& keepCluster) {
  forgetIf([&](const MemorizedFlow& flow) {
    return flow.service == service && flow.cluster != keepCluster;
  });
}

std::size_t FlowMemory::flowsFor(Endpoint service,
                                 const std::string& cluster) const {
  std::size_t count = 0;
  for (const auto& [key, flow] : flows_) {
    if (flow.service == service && flow.cluster == cluster) ++count;
  }
  return count;
}

}  // namespace edgesim::core
