// FlowMemory (§V): the controller-side memory of installed redirect flows.
//
// The switch keeps *short* idle timeouts (cheap tables); the controller
// memorizes each flow so a returning client is redirected to the same
// instance without rescheduling.  Memorized flows carry their own, longer
// idle timeout; expiry both forgets stale clients and is the trigger for
// scaling down idle edge service instances.
//
// One unordered_map keyed by (client, service), touched only from the
// simulation thread.  Its iteration order -- and therefore expire()'s
// scale-down order and the traces -- is a function of the op sequence
// alone, which the determinism goldens pin.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics_registry.hpp"

namespace edgesim::core {

struct MemorizedFlow {
  Endpoint client;    // client IP + source port is NOT part of the key;
                      // the client is identified by IP (port field unused)
  Endpoint service;   // registered service address
  Endpoint instance;  // chosen instance endpoint
  std::string cluster;
  SimTime lastSeen;
};

class FlowMemory {
 public:
  struct Key {
    Ipv4 client;
    Endpoint service;
    bool operator==(const Key&) const = default;
  };

  /// `telemetry` (optional) registers occupancy / hit / miss / eviction
  /// series, labelled shard="0" (the table was once striped).
  explicit FlowMemory(SimTime idleTimeout,
                      telemetry::MetricsRegistry* telemetry = nullptr);

  /// Record or refresh a flow.
  void upsert(Ipv4 client, Endpoint service, Endpoint instance,
              const std::string& cluster, SimTime now);

  /// Refresh the last-seen time (e.g. on switch flow-removed with recent
  /// traffic, or on packet-in from a remembered client).  Never moves
  /// last-seen backwards.
  void touch(Ipv4 client, Endpoint service, SimTime now);

  /// Copy of the memorized flow, or nullopt.
  std::optional<MemorizedFlow> lookup(Ipv4 client, Endpoint service) const;

  /// Drop flows idle for >= idleTimeout; returns the expired flows in
  /// table order.
  std::vector<MemorizedFlow> expire(SimTime now);

  /// Re-point an EXISTING flow at a new instance/cluster without touching
  /// its identity -- the handover path: the client keeps talking to the
  /// registered service address while the controller re-steers the flow.
  /// Returns false when no flow is memorized for (client, service) -- e.g.
  /// it expired while the handover was deploying the target instance.
  bool rebind(Ipv4 client, Endpoint service, Endpoint instance,
              const std::string& cluster, SimTime now);

  /// Every flow memorized for `client`, in table order; the handover
  /// trigger enumerates these when the client's attachment moves.
  std::vector<MemorizedFlow> flowsForClient(Ipv4 client) const;

  /// EVERY memorized flow, in table order: the controller's intended
  /// steering state, which the RuleReconciler diffs against the switch
  /// tables.
  std::vector<MemorizedFlow> snapshot() const;

  /// Forget all flows pointing at `instance` (e.g. instance scaled down).
  void forgetInstance(Endpoint instance);

  /// Forget all flows for `service` that do NOT point at `keepCluster` --
  /// used when a BEST deployment becomes ready (§IV-A2): clients re-resolve
  /// and land on the optimal cluster at their next flow setup.
  void forgetServiceExcept(Endpoint service, const std::string& keepCluster);

  /// Number of live flows referring to (service, cluster); the scale-down
  /// policy keys off this reaching zero.
  std::size_t flowsFor(Endpoint service, const std::string& cluster) const;

  std::size_t size() const { return flows_.size(); }
  SimTime idleTimeout() const { return idleTimeout_; }

  /// Always 1: one table, reported as shard "0".
  std::size_t shardCount() const { return 1; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      const auto h1 = std::hash<Ipv4>{}(key.client);
      const auto h2 = std::hash<Endpoint>{}(key.service);
      return h1 ^ (h2 * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// Erase every flow matching `evict`, counting each as invalidated.
  template <typename Pred>
  void forgetIf(Pred evict);

  SimTime idleTimeout_;
  std::unordered_map<Key, MemorizedFlow, KeyHash> flows_;
  // Telemetry handles (null when telemetry is off).
  telemetry::Counter* hits_ = nullptr;
  telemetry::Counter* misses_ = nullptr;
  telemetry::Counter* expirations_ = nullptr;
  telemetry::Counter* invalidations_ = nullptr;
  telemetry::Gauge* occupancy_ = nullptr;
};

}  // namespace edgesim::core
