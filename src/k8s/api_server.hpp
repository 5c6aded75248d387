// Kubernetes API server: typed object stores with list/watch semantics.
//
// Mutations commit after `apiLatency`; watch events reach informers after a
// further `watchLatency`.  Controllers never see state synchronously --
// that asynchrony is where most of the K8s scale-up overhead (fig. 11)
// comes from, so it is modelled explicitly rather than folded into one
// constant.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "k8s/objects.hpp"
#include "k8s/params.hpp"
#include "sim/simulation.hpp"
#include "util/result.hpp"

namespace edgesim::k8s {

enum class WatchEventType { kAdded, kModified, kDeleted };

template <typename T>
struct WatchEvent {
  WatchEventType type;
  T object;  // snapshot at event time
};

/// The owner reference a store indexes for `listByOwner` (nullptr: the
/// kind has none).  Only pods are looked up by owner: the ReplicaSet
/// controller's owned-pod scan.
inline const std::string* ownerOf(const Pod& pod) {
  return &pod.ownerReplicaSet;
}
template <typename T>
const std::string* ownerOf(const T& /*object*/) {
  return nullptr;
}

/// One typed object store (a "resource" in K8s terms).
///
/// Like a client-go informer's indexers, the store keeps a label index
/// ((key, value) -> names) and an owner index (owner -> names), so selector
/// and owner lookups cost time in proportion to the candidates, not the
/// store size.  Both indexes hold names in std::set, i.e. in name order:
/// the order list() returns and every caller's side effects follow.
///
/// Each label pair also carries a commit counter (labelVersion): every
/// create, update and remove bumps the counter of every pair the object
/// carries before or after the commit.  An object that matches a selector
/// carries all of its pairs, so while the counter of any one selector pair
/// stands still, listBySelector(selector) returns the same objects in the
/// same state.  Counters are bumped at commit, the moment the live store
/// changes, not at watch delivery.
///
/// Two more counters serve the controllers' memos (DESIGN.md §16.7):
/// ownerVersion, bumped by every commit to an object owned (see ownerOf)
/// before or after it, so while it stands still listByOwner returns the
/// same objects in the same state; and membershipVersion, bumped only by a
/// committed create or remove, so while it stands still every get() returns
/// the same pointer (see CachedLookup).
template <typename T>
class Store {
 public:
  using Watcher = std::function<void(const WatchEvent<T>&)>;
  using NameSet = std::set<std::string>;

  Store(Simulation& sim, const ControlPlaneParams& params, std::string kind)
      : sim_(sim), params_(params), kind_(std::move(kind)) {}

  /// Create; fails with kAlreadyExists if the name is taken. `cb` optional.
  void create(T object, std::function<void(Status)> cb = nullptr) {
    sim_.schedule(params_.apiLatency, [this, object = std::move(object),
                                       cb = std::move(cb)]() mutable {
      const std::string& name = object.meta.name;
      if (items_.count(name) != 0) {
        if (cb) cb(makeError(Errc::kAlreadyExists, kind_ + "/" + name));
        return;
      }
      object.meta.uid = nextUid_++;
      object.meta.resourceVersion = ++resourceVersion_;
      object.meta.creationTime = sim_.now();
      const T& stored = items_.emplace(name, object).first->second;
      ++membershipVersion_;
      indexLabels(name, stored.meta.labels);
      indexOwner(name, ownerOf(stored));
      notify(WatchEventType::kAdded, std::move(object));
      if (commitHook_) commitHook_(stored.meta.name);
      if (cb) cb(Status());
    });
  }

  /// Read-modify-write by name; `mutate` runs at commit time so it sees the
  /// latest state (models resourceVersion-checked updates with retry).
  void update(const std::string& name, std::function<void(T&)> mutate,
              std::function<void(Status)> cb = nullptr) {
    sim_.schedule(params_.apiLatency, [this, name, mutate = std::move(mutate),
                                       cb = std::move(cb)] {
      const auto it = items_.find(name);
      if (it == items_.end()) {
        if (cb) cb(makeError(Errc::kNotFound, kind_ + "/" + name));
        return;
      }
      T& object = it->second;
      // `mutate` may relabel or re-own the object: re-index on a change.
      const Labels labelsBefore = object.meta.labels;
      const std::string* owner = ownerOf(object);
      const std::string ownerBefore = owner != nullptr ? *owner : "";
      mutate(object);
      if (object.meta.labels != labelsBefore) {
        unindexLabels(name, labelsBefore);
        indexLabels(name, object.meta.labels);
      } else {
        bumpLabels(object.meta.labels);
      }
      if (owner != nullptr && *owner != ownerBefore) {
        unindexOwner(name, &ownerBefore);
        indexOwner(name, owner);
      } else {
        bumpOwner(owner);
      }
      object.meta.resourceVersion = ++resourceVersion_;
      notify(WatchEventType::kModified, object);
      if (commitHook_) commitHook_(name);
      if (cb) cb(Status());
    });
  }

  void remove(const std::string& name,
              std::function<void(Status)> cb = nullptr) {
    sim_.schedule(params_.apiLatency, [this, name, cb = std::move(cb)] {
      const auto it = items_.find(name);
      if (it == items_.end()) {
        if (cb) cb(makeError(Errc::kNotFound, kind_ + "/" + name));
        return;
      }
      T object = std::move(it->second);
      items_.erase(it);
      ++membershipVersion_;
      unindexLabels(name, object.meta.labels);
      unindexOwner(name, ownerOf(object));
      notify(WatchEventType::kDeleted, std::move(object));
      if (commitHook_) commitHook_(name);
      if (cb) cb(Status());
    });
  }

  // -- synchronous reads (informer-cache view) ----------------------------
  const T* get(const std::string& name) const {
    const auto it = items_.find(name);
    return it == items_.end() ? nullptr : &it->second;
  }

  std::vector<const T*> list() const {
    std::vector<const T*> out;
    out.reserve(items_.size());
    for (const auto& [name, object] : items_) out.push_back(&object);
    return out;
  }

  /// Call `fn(object)` for every object in name order, without building
  /// list()'s vector.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const auto& [name, object] : items_) fn(object);
  }

  /// Objects whose labels match every selector pair, in name order; an
  /// empty selector matches everything.  Candidates come from the label
  /// index of the selector's rarest pair.
  std::vector<const T*> listBySelector(const Labels& selector) const {
    if (selector.empty()) return list();
    const NameSet* candidates =
        &labelled(selector.begin()->first, selector.begin()->second);
    for (const auto& [key, value] : selector) {
      const NameSet& names = labelled(key, value);
      if (names.size() < candidates->size()) candidates = &names;
    }
    std::vector<const T*> out;
    for (const auto& name : *candidates) {
      const T& object = items_.find(name)->second;
      if (selectorMatches(selector, object.meta.labels)) out.push_back(&object);
    }
    return out;
  }

  /// Objects whose owner reference (see ownerOf) is `owner`, in name order.
  std::vector<const T*> listByOwner(const std::string& owner) const {
    std::vector<const T*> out;
    const auto it = ownerIndex_.find(owner);
    if (it == ownerIndex_.end()) return out;
    out.reserve(it->second.names.size());
    for (const auto& name : it->second.names) {
      out.push_back(&items_.find(name)->second);
    }
    return out;
  }

  /// Commit counter of the label pair key=value (see the class comment).
  /// The reference stays valid for the store's lifetime: counters are never
  /// erased, even when the last object carrying the pair goes, because a
  /// counter restarted from zero could return to a value a caller recorded
  /// and make a stale observation look current.  There is one counter per
  /// distinct pair ever used or asked for.
  const std::uint64_t& labelVersion(const std::string& key,
                                    const std::string& value) {
    return labelIndex_[key][value].version;
  }

  /// Commit counter of the objects owned by `owner` (see the class
  /// comment); a re-own bumps the old and the new owner's.  Never erased,
  /// for the same reason as labelVersion's.
  const std::uint64_t& ownerVersion(const std::string& owner) {
    return ownerIndex_[owner].version;
  }

  /// Committed creates plus committed removes.  Updates and failed calls
  /// leave it alone: while it stands still, no name gained or lost its
  /// object, and every object stayed at its address.
  std::uint64_t membershipVersion() const { return membershipVersion_; }

  /// Register a watcher; events arrive `watchLatency` after commit.
  void watch(Watcher watcher) { watchers_.push_back(std::move(watcher)); }

  /// Called with the object's name at every committed create, update and
  /// remove, inside the commit itself: the moment get() changes, before
  /// any watcher hears of it.  One hook; nullptr detaches it.
  using CommitHook = std::function<void(const std::string& name)>;
  void setCommitHook(CommitHook hook) { commitHook_ = std::move(hook); }

  std::size_t size() const { return items_.size(); }

 private:
  /// One shared snapshot per commit; each watcher's delivery event holds a
  /// reference to it and to the watcher (deque: stable across watch()).
  void notify(WatchEventType type, T object) {
    if (watchers_.empty()) return;
    const auto event = std::make_shared<const WatchEvent<T>>(
        WatchEvent<T>{type, std::move(object)});
    for (const Watcher& watcher : watchers_) {
      sim_.schedule(params_.watchLatency,
                    [&watcher, event] { watcher(*event); });
    }
  }

  /// One label pair: the names carrying it and its commit counter.  An
  /// entry outlives its last name so that the counter is never reset.
  struct LabelEntry {
    NameSet names;
    std::uint64_t version = 0;
  };

  /// Names of the objects labelled key=value (empty when there are none).
  const NameSet& labelled(const std::string& key,
                          const std::string& value) const {
    static const NameSet kNone;
    const auto byKey = labelIndex_.find(key);
    if (byKey == labelIndex_.end()) return kNone;
    const auto byValue = byKey->second.find(value);
    return byValue == byKey->second.end() ? kNone : byValue->second.names;
  }

  void indexLabels(const std::string& name, const Labels& labels) {
    for (const auto& [key, value] : labels) {
      LabelEntry& entry = labelIndex_[key][value];
      entry.names.insert(name);
      ++entry.version;
    }
  }

  void unindexLabels(const std::string& name, const Labels& labels) {
    for (const auto& [key, value] : labels) {
      LabelEntry& entry = labelIndex_.find(key)->second.find(value)->second;
      entry.names.erase(name);
      ++entry.version;
    }
  }

  /// A commit that keeps the object's labels still changes the object.
  void bumpLabels(const Labels& labels) {
    for (const auto& [key, value] : labels) {
      ++labelIndex_.find(key)->second.find(value)->second.version;
    }
  }

  /// One owner: the names it owns and their commit counter.  Like a
  /// LabelEntry, an entry outlives its last name.
  struct OwnerEntry {
    NameSet names;
    std::uint64_t version = 0;
  };

  void indexOwner(const std::string& name, const std::string* owner) {
    if (owner == nullptr || owner->empty()) return;
    OwnerEntry& entry = ownerIndex_[*owner];
    entry.names.insert(name);
    ++entry.version;
  }

  void unindexOwner(const std::string& name, const std::string* owner) {
    if (owner == nullptr || owner->empty()) return;
    OwnerEntry& entry = ownerIndex_.find(*owner)->second;
    entry.names.erase(name);
    ++entry.version;
  }

  /// A commit that keeps the object's owner still changes an owned object.
  void bumpOwner(const std::string* owner) {
    if (owner == nullptr || owner->empty()) return;
    ++ownerIndex_.find(*owner)->second.version;
  }

  Simulation& sim_;
  const ControlPlaneParams& params_;
  std::string kind_;
  std::map<std::string, T> items_;
  /// label key -> label value -> names carrying that label, and its
  /// commit counter.
  std::map<std::string, std::map<std::string, LabelEntry>> labelIndex_;
  std::map<std::string, OwnerEntry> ownerIndex_;
  std::deque<Watcher> watchers_;
  CommitHook commitHook_;
  std::uint64_t nextUid_ = 1;
  std::uint64_t resourceVersion_ = 0;
  std::uint64_t membershipVersion_ = 0;
};

/// A membershipVersion no store reaches: "not looked up yet".
inline constexpr std::uint64_t kNeverLooked = ~std::uint64_t{0};

/// One name's get() result, looked up again only when the store's
/// membershipVersion moved since the last lookup.  Between two moves the
/// store neither created nor removed an object, so the pointer it holds
/// (nullptr included) is still what get() would return.
template <typename T>
class CachedLookup {
 public:
  const T* get(const Store<T>& store, const std::string& name) {
    if (seen_ != store.membershipVersion()) {
      object_ = store.get(name);
      seen_ = store.membershipVersion();
    }
    return object_;
  }

 private:
  const T* object_ = nullptr;
  std::uint64_t seen_ = kNeverLooked;
};

/// The API server bundles one store per resource kind.
class ApiServer {
 public:
  ApiServer(Simulation& sim, const ControlPlaneParams& params)
      : deployments_(sim, params, "Deployment"),
        replicaSets_(sim, params, "ReplicaSet"),
        pods_(sim, params, "Pod"),
        services_(sim, params, "Service"),
        endpoints_(sim, params, "Endpoints") {}

  Store<Deployment>& deployments() { return deployments_; }
  Store<ReplicaSet>& replicaSets() { return replicaSets_; }
  Store<Pod>& pods() { return pods_; }
  Store<Service>& services() { return services_; }
  Store<Endpoints>& endpoints() { return endpoints_; }

 private:
  Store<Deployment> deployments_;
  Store<ReplicaSet> replicaSets_;
  Store<Pod> pods_;
  Store<Service> services_;
  Store<Endpoints> endpoints_;
};

}  // namespace edgesim::k8s
