// Kubernetes API server: typed object stores with list/watch semantics.
//
// Mutations commit after `apiLatency`; watch events reach informers after a
// further `watchLatency`.  Controllers never see state synchronously --
// that asynchrony is where most of the K8s scale-up overhead (fig. 11)
// comes from, so it is modelled explicitly rather than folded into one
// constant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "k8s/objects.hpp"
#include "k8s/params.hpp"
#include "sim/simulation.hpp"
#include "util/result.hpp"

namespace edgesim::k8s {

enum class WatchEventType { kAdded, kModified, kDeleted };

/// What a watcher is handed: the version its commit made, not a copy.  The
/// commit's delivery event holds that version, and a later commit copies
/// the object before changing it while the event is undelivered, so
/// `object` shows the contents of this commit for the whole call.  A
/// watcher that needs them afterwards copies them.
template <typename T>
struct WatchEvent {
  WatchEventType type;
  const T& object;
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

template <typename T>
class CachedLookup;

/// One typed object store (a "resource" in K8s terms).
///
/// Each object is held as a shared version (DESIGN.md §16.8).  Every watch
/// event of a commit shares the version that commit made.  A later commit
/// changes the object in place when nothing but the store holds its
/// version, and otherwise first copies it (copy-on-write), so an
/// undelivered event keeps its commit's contents.  A get() / list()
/// pointer is therefore valid until the next commit of that object, not
/// until its removal; CachedLookup caches the store's slot instead.
///
/// Like a client-go informer's indexers, the store keeps a label index
/// ((key, value) -> names) and an owner index (owner -> names), so selector
/// and owner lookups cost time in proportion to the candidates, not the
/// store size.  Both indexes hold names in std::set, i.e. in name order:
/// the order list() returns and every caller's side effects follow.  Each
/// slot records the index entries its object is filed under, so an update
/// finds a relabel or re-own by comparing against them, without copying
/// the labels or the owner first.
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
/// committed create or remove, so while it stands still every name keeps
/// its slot (see CachedLookup).
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
      const auto [it, created] = items_.try_emplace(object.meta.name);
      const std::string& name = it->first;
      if (!created) {
        if (cb) cb(makeError(Errc::kAlreadyExists, kind_ + "/" + name));
        return;
      }
      object.meta.uid = nextUid_++;
      object.meta.resourceVersion = ++resourceVersion_;
      object.meta.creationTime = sim_.now();
      Slot& slot = it->second;
      slot.version = std::make_shared<T>(std::move(object));
      ++membershipVersion_;
      fileLabels(name, slot);
      fileOwner(name, slot);
      notify(WatchEventType::kAdded, slot.version);
      if (commitHook_) commitHook_(name);
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
      Slot& slot = it->second;
      // Copy-on-write: a version someone else still holds (an undelivered
      // watch event) keeps its contents; the store moves on to a copy.
      if (slot.version.use_count() > 1) {
        slot.version = std::make_shared<T>(std::as_const(*slot.version));
      }
      T& object = *slot.version;
      mutate(object);
      // `mutate` may relabel or re-own the object: re-file on a change.
      if (labelsFiledAsIs(slot)) {
        bumpLabels(slot);
      } else {
        unfileLabels(name, slot);
        fileLabels(name, slot);
      }
      if (ownerFiledAsIs(slot)) {
        bumpOwner(slot);
      } else {
        unfileOwner(name, slot);
        fileOwner(name, slot);
      }
      object.meta.resourceVersion = ++resourceVersion_;
      notify(WatchEventType::kModified, slot.version);
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
      Slot slot = std::move(it->second);
      items_.erase(it);
      ++membershipVersion_;
      unfileLabels(name, slot);
      unfileOwner(name, slot);
      notify(WatchEventType::kDeleted, std::move(slot.version));
      if (commitHook_) commitHook_(name);
      if (cb) cb(Status());
    });
  }

  // -- synchronous reads (informer-cache view) ----------------------------
  // A returned pointer is valid until the object's next commit.

  const T* get(const std::string& name) const {
    const Slot* slot = find(name);
    return slot == nullptr ? nullptr : slot->version.get();
  }

  /// The current version of `name` (nullptr when absent), shared: it keeps
  /// its contents for as long as the pointer lives, because the store's
  /// next commit of the object copies it first.
  std::shared_ptr<const T> share(const std::string& name) const {
    const Slot* slot = find(name);
    return slot == nullptr ? nullptr : slot->version;
  }

  std::vector<const T*> list() const {
    std::vector<const T*> out;
    out.reserve(items_.size());
    for (const auto& [name, slot] : items_) out.push_back(slot.version.get());
    return out;
  }

  /// Call `fn(object)` for every object in name order, without building
  /// list()'s vector.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const auto& [name, slot] : items_) fn(std::as_const(*slot.version));
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
      const T* object = get(name);
      if (selectorMatches(selector, object->meta.labels)) out.push_back(object);
    }
    return out;
  }

  /// Objects whose owner reference (see ownerOf) is `owner`, in name order.
  std::vector<const T*> listByOwner(const std::string& owner) const {
    std::vector<const T*> out;
    const auto it = ownerIndex_.find(owner);
    if (it == ownerIndex_.end()) return out;
    out.reserve(it->second.names.size());
    for (const auto& name : it->second.names) out.push_back(get(name));
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
  /// object, and every name kept its slot.
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
  friend class CachedLookup<T>;

  /// One label pair: the names carrying it and its commit counter.  An
  /// entry outlives its last name so that the counter is never reset.
  struct LabelEntry {
    NameSet names;
    std::uint64_t version = 0;
  };

  /// One owner: the names it owns and their commit counter.  Like a
  /// LabelEntry, an entry outlives its last name.
  struct OwnerEntry {
    NameSet names;
    std::uint64_t version = 0;
  };

  /// One label pair an object is filed under: its key, value and entry in
  /// labelIndex_.  Index nodes are never erased, so the pointers stay valid.
  struct FiledLabel {
    const std::string* key = nullptr;
    const std::string* value = nullptr;
    LabelEntry* entry = nullptr;
  };

  /// One name's object: its current version and the index entries it is
  /// filed under (labels in key order; owner nullptr when unowned).  A
  /// std::map node, so the slot stays put until the name is removed.
  struct Slot {
    std::shared_ptr<T> version;
    std::vector<FiledLabel> labels;
    std::pair<const std::string, OwnerEntry>* owner = nullptr;
  };

  const Slot* find(const std::string& name) const {
    const auto it = items_.find(name);
    return it == items_.end() ? nullptr : &it->second;
  }

  /// One delivery event per commit, holding the committed version: it
  /// calls the watchers registered at commit time, in registration order
  /// (DESIGN.md §16.8).  Watchers live in a std::deque, so indexes and
  /// references stay valid when watch() adds another.
  void notify(WatchEventType type, std::shared_ptr<const T> version) {
    if (watchers_.empty()) return;
    sim_.schedule(params_.watchLatency,
                  [this, type, version = std::move(version),
                   watchers = watchers_.size()] {
                    const WatchEvent<T> event{type, *version};
                    for (std::size_t i = 0; i < watchers; ++i) {
                      watchers_[i](event);
                    }
                  });
  }

  /// Names of the objects labelled key=value (empty when there are none).
  const NameSet& labelled(const std::string& key,
                          const std::string& value) const {
    static const NameSet kNone;
    const auto byKey = labelIndex_.find(key);
    if (byKey == labelIndex_.end()) return kNone;
    const auto byValue = byKey->second.find(value);
    return byValue == byKey->second.end() ? kNone : byValue->second.names;
  }

  void fileLabels(const std::string& name, Slot& slot) {
    const Labels& labels = slot.version->meta.labels;
    slot.labels.clear();
    slot.labels.reserve(labels.size());
    for (const auto& [key, value] : labels) {
      auto& [keyFiled, values] = *labelIndex_.try_emplace(key).first;
      auto& [valueFiled, entry] = *values.try_emplace(value).first;
      entry.names.insert(name);
      ++entry.version;
      slot.labels.push_back({&keyFiled, &valueFiled, &entry});
    }
  }

  void unfileLabels(const std::string& name, const Slot& slot) {
    for (const FiledLabel& filed : slot.labels) {
      filed.entry->names.erase(name);
      ++filed.entry->version;
    }
  }

  /// True when the object still carries exactly the pairs it is filed
  /// under.
  bool labelsFiledAsIs(const Slot& slot) const {
    const Labels& labels = slot.version->meta.labels;
    return std::equal(labels.begin(), labels.end(), slot.labels.begin(),
                      slot.labels.end(),
                      [](const auto& label, const FiledLabel& filed) {
                        return label.first == *filed.key &&
                               label.second == *filed.value;
                      });
  }

  /// A commit that keeps the object's labels still changes the object.
  void bumpLabels(const Slot& slot) {
    for (const FiledLabel& filed : slot.labels) ++filed.entry->version;
  }

  void fileOwner(const std::string& name, Slot& slot) {
    const std::string* owner = ownerOf(std::as_const(*slot.version));
    slot.owner = nullptr;
    if (owner == nullptr || owner->empty()) return;
    auto& filed = *ownerIndex_.try_emplace(*owner).first;
    filed.second.names.insert(name);
    ++filed.second.version;
    slot.owner = &filed;
  }

  void unfileOwner(const std::string& name, const Slot& slot) {
    if (slot.owner == nullptr) return;
    slot.owner->second.names.erase(name);
    ++slot.owner->second.version;
  }

  /// True when the object's owner (see ownerOf) is the one it is filed
  /// under, "none" included.
  bool ownerFiledAsIs(const Slot& slot) const {
    const std::string* owner = ownerOf(std::as_const(*slot.version));
    if (owner == nullptr || owner->empty()) return slot.owner == nullptr;
    return slot.owner != nullptr && *owner == slot.owner->first;
  }

  /// A commit that keeps the object's owner still changes an owned object.
  void bumpOwner(const Slot& slot) {
    if (slot.owner != nullptr) ++slot.owner->second.version;
  }

  Simulation& sim_;
  const ControlPlaneParams& params_;
  std::string kind_;
  std::map<std::string, Slot> items_;
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
/// membershipVersion moved since the last lookup.  It caches the name's
/// slot, not the object's address: between two moves the store neither
/// created nor removed an object, so the slot it holds (nullptr included)
/// is still the name's, while a copy-on-write commit may have moved the
/// object to a new version.
template <typename T>
class CachedLookup {
 public:
  const T* get(const Store<T>& store, const std::string& name) {
    if (seen_ != store.membershipVersion()) {
      slot_ = store.find(name);
      seen_ = store.membershipVersion();
    }
    return slot_ == nullptr ? nullptr : slot_->version.get();
  }

 private:
  const typename Store<T>::Slot* slot_ = nullptr;
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
