// Tests for the Kubernetes substrate: API server stores/watches, the
// Deployment -> ReplicaSet -> Pod reconcile chain, scheduling (including
// custom schedulers, the paper's "Local Scheduler"), kubelet behaviour
// (pulls, readiness probing, restarts), endpoints, scale-to-zero and
// scale-up latency calibration (fig. 11's ~3 s).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "k8s/autoscaler.hpp"
#include "k8s/cluster.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace edgesim::k8s {
namespace {

using namespace timeliterals;
using container::makeImage;

Deployment makeNginxDeployment(const std::string& name, int replicas,
                               const container::ImageRef& image) {
  Deployment deployment;
  deployment.meta.name = name;
  deployment.spec.replicas = replicas;
  deployment.spec.selector = {{"app", name}};
  deployment.spec.podTemplate.labels = {{"app", name},
                                        {"edge.service", name + ":80"}};
  container::ContainerSpec spec;
  spec.name = name;
  spec.image = image;
  spec.containerPort = 80;
  spec.labels = deployment.spec.podTemplate.labels;
  spec.app.startupDelay = 60_ms;
  spec.app.requestCompute = 1_ms;
  deployment.spec.podTemplate.spec.containers.push_back(spec);
  return deployment;
}

Service makeService(const std::string& name) {
  Service service;
  service.meta.name = name;
  service.spec.selector = {{"app", name}};
  service.spec.ports.push_back(ServicePort{80, 80, "TCP"});
  return service;
}

class K8sFixture : public ::testing::Test {
 protected:
  K8sFixture() : sim_(61), net_(sim_) {
    egs_ = std::make_unique<Host>(net_, "egs", Ipv4(10, 0, 1, 1), Mac(0x10));
    store_ = std::make_unique<container::LayerStore>();
    runtime_ = std::make_unique<container::ContainerdRuntime>(sim_, *egs_, *store_);
    puller_ = std::make_unique<container::ImagePuller>(sim_, *store_);
    registry_ = std::make_unique<container::Registry>(
        "hub", container::publicRegistryProfile());

    nginx_ = makeImage(*container::ImageRef::parse("nginx:1.23.2"), 135_MiB, 6);
    registry_->push(nginx_);
    store_->commitImage(nginx_);  // cached by default; pull tests drop this

    NodeHandle node;
    node.name = "egs";
    node.host = egs_.get();
    node.runtime = runtime_.get();
    node.puller = puller_.get();
    node.registry = registry_.get();
    cluster_ = std::make_unique<K8sCluster>(sim_, ControlPlaneParams{},
                                            std::vector<NodeHandle>{node});
  }

  /// Run until `predicate` or `deadline`; returns the time it became true.
  std::optional<SimTime> runUntilTrue(std::function<bool()> predicate,
                                      SimTime deadline) {
    while (sim_.now() < deadline) {
      if (predicate()) return sim_.now();
      if (!sim_.step()) break;
    }
    return predicate() ? std::optional<SimTime>(sim_.now()) : std::nullopt;
  }

  Simulation sim_;
  Network net_;
  std::unique_ptr<Host> egs_;
  std::unique_ptr<container::LayerStore> store_;
  std::unique_ptr<container::ContainerdRuntime> runtime_;
  std::unique_ptr<container::ImagePuller> puller_;
  std::unique_ptr<container::Registry> registry_;
  std::unique_ptr<K8sCluster> cluster_;
  container::Image nginx_;
};

// ----------------------------------------------------------- api server ----

TEST_F(K8sFixture, StoreCreateGetUpdateDelete) {
  auto deployment = makeNginxDeployment("web", 0, nginx_.ref);
  std::optional<Status> created;
  cluster_->api().deployments().create(deployment,
                                       [&](Status s) { created = s; });
  sim_.runUntil(1_s);
  ASSERT_TRUE(created.has_value() && created->ok());
  const Deployment* stored = cluster_->api().deployments().get("web");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->spec.replicas, 0);
  EXPECT_GT(stored->meta.uid, 0u);

  std::optional<Status> duplicate;
  cluster_->api().deployments().create(deployment,
                                       [&](Status s) { duplicate = s; });
  sim_.runUntil(2_s);
  ASSERT_TRUE(duplicate.has_value());
  EXPECT_EQ(duplicate->error().code, Errc::kAlreadyExists);

  cluster_->api().deployments().update(
      "web", [](Deployment& d) { d.spec.replicas = 3; });
  sim_.runUntil(3_s);
  EXPECT_EQ(cluster_->api().deployments().get("web")->spec.replicas, 3);

  std::optional<Status> removed;
  cluster_->api().deployments().remove("web", [&](Status s) { removed = s; });
  sim_.runUntil(4_s);
  ASSERT_TRUE(removed.has_value() && removed->ok());
  EXPECT_EQ(cluster_->api().deployments().get("web"), nullptr);
}

TEST_F(K8sFixture, WatchDeliversEventsWithLatency) {
  std::vector<std::pair<WatchEventType, SimTime>> events;
  cluster_->api().deployments().watch(
      [&](const WatchEvent<Deployment>& event) {
        events.emplace_back(event.type, sim_.now());
      });
  cluster_->api().deployments().create(makeNginxDeployment("web", 0, nginx_.ref));
  sim_.runUntil(1_s);
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events[0].first, WatchEventType::kAdded);
  // apiLatency + watchLatency at minimum.
  EXPECT_GE(events[0].second, 60_ms);
}

TEST_F(K8sFixture, ResourceVersionMonotone) {
  cluster_->api().deployments().create(makeNginxDeployment("a", 0, nginx_.ref));
  cluster_->api().deployments().create(makeNginxDeployment("b", 0, nginx_.ref));
  sim_.runUntil(1_s);
  const Deployment* a = cluster_->api().deployments().get("a");
  const Deployment* b = cluster_->api().deployments().get("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->meta.resourceVersion, b->meta.resourceVersion);
}

// Oracle property: the label and owner indexes of Store must answer every
// lookup exactly as a linear filter over list() would -- the same objects
// in the same (name) order -- through random create / update (relabel,
// re-own, status-only) / remove sequences.  Names, labels and owners come
// from small pools so collisions, relabels onto an existing label and
// emptied index buckets happen often.
class StoreIndexOracleProperty : public ::testing::TestWithParam<int> {};

TEST_P(StoreIndexOracleProperty, IndexedLookupsMatchLinearFilter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.uniformInt(0, pool.size() - 1)];
  };
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) names.push_back(strprintf("p%d", i));
  const std::vector<std::string> keys{"app", "tier", "zone"};
  const std::vector<std::string> values{"a", "b", "c"};
  const std::vector<std::string> owners{"", "rs-a", "rs-b", "rs-c"};
  const auto randomLabels = [&] {
    Labels labels;
    for (const auto& key : keys) {
      if (rng.chance(0.7)) labels[key] = pick(values);
    }
    return labels;
  };

  // Every selector shape: empty, each one-key and two-key combination, and
  // selectors that can never match (unknown value, unknown key).
  std::vector<Labels> selectors;
  selectors.push_back({});
  selectors.push_back({{"app", "zzz"}});
  selectors.push_back({{"missing", "a"}});
  selectors.push_back({{"app", "a"}, {"missing", "a"}});
  for (const auto& key : keys) {
    for (const auto& value : values) selectors.push_back({{key, value}});
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      for (const auto& vi : values) {
        for (const auto& vj : values) {
          selectors.push_back({{keys[i], vi}, {keys[j], vj}});
        }
      }
    }
  }

  Simulation sim(static_cast<std::uint64_t>(GetParam()));
  const ControlPlaneParams params;
  Store<Pod> store(sim, params, "Pod");
  std::size_t nonEmptySelections = 0;
  std::size_t nonEmptyOwnerLookups = 0;
  for (int step = 0; step < 500; ++step) {
    const std::string name = pick(names);
    const auto op = rng.uniformInt(0, 9);
    if (op < 4) {
      Pod pod;
      pod.meta.name = name;
      pod.meta.labels = randomLabels();
      pod.ownerReplicaSet = pick(owners);
      store.create(std::move(pod));  // kAlreadyExists when taken: no-op
    } else if (op < 8) {
      const bool relabel = rng.chance(0.5);
      const bool reown = rng.chance(0.4);
      const Labels labels = randomLabels();
      const std::string owner = pick(owners);
      store.update(name, [relabel, reown, labels, owner](Pod& pod) {
        pod.status.ready = !pod.status.ready;
        if (relabel) pod.meta.labels = labels;
        if (reown) pod.ownerReplicaSet = owner;
      });
    } else {
      store.remove(name);
    }
    sim.run();

    const auto all = store.list();
    for (const auto& selector : selectors) {
      std::vector<const Pod*> expected;
      for (const Pod* pod : all) {
        if (selectorMatches(selector, pod->meta.labels)) {
          expected.push_back(pod);
        }
      }
      ASSERT_EQ(store.listBySelector(selector), expected)
          << "seed " << GetParam() << " step " << step;
      if (!selector.empty() && !expected.empty()) ++nonEmptySelections;
    }
    for (const auto& owner : owners) {
      if (owner.empty()) continue;  // bare pods have no owner to index
      std::vector<const Pod*> expected;
      for (const Pod* pod : all) {
        if (pod->ownerReplicaSet == owner) expected.push_back(pod);
      }
      ASSERT_EQ(store.listByOwner(owner), expected)
          << "seed " << GetParam() << " step " << step;
      if (!expected.empty()) ++nonEmptyOwnerLookups;
    }
  }
  EXPECT_GT(nonEmptySelections, 0u);
  EXPECT_GT(nonEmptyOwnerLookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreIndexOracleProperty,
                         ::testing::Range(1, 21));

// Store::labelVersion: a commit bumps the counter of every label pair the
// object carries before or after it, and no other; a counter outlives the
// last object carrying its pair, so it never returns to an old value.
TEST(StoreLabelVersion, CommitsBumpExactlyThePairsCarried) {
  Simulation sim(1);
  const ControlPlaneParams params;
  Store<Pod> store(sim, params, "Pod");
  const std::uint64_t& appA = store.labelVersion("app", "a");
  const std::uint64_t& appB = store.labelVersion("app", "b");
  const std::uint64_t& tierX = store.labelVersion("tier", "x");
  const std::uint64_t& unrelated = store.labelVersion("zone", "z");
  const auto commit = [&sim] { sim.run(); };

  Pod pod;
  pod.meta.name = "p";
  pod.meta.labels = {{"app", "a"}, {"tier", "x"}};
  store.create(pod);
  commit();
  EXPECT_EQ(appA, 1u);
  EXPECT_EQ(tierX, 1u);
  EXPECT_EQ(appB, 0u);

  // Status-only update: the labels stay, the object changed.
  store.update("p", [](Pod& p) { p.status.ready = true; });
  commit();
  EXPECT_EQ(appA, 2u);
  EXPECT_EQ(tierX, 2u);
  EXPECT_EQ(appB, 0u);

  // Relabel app=a -> app=b: the old pair and the new pair both move.
  const std::uint64_t tierBefore = tierX;
  store.update("p", [](Pod& p) { p.meta.labels["app"] = "b"; });
  commit();
  EXPECT_EQ(appA, 3u);
  EXPECT_EQ(appB, 1u);
  EXPECT_GT(tierX, tierBefore);

  // A failed commit changes nothing.
  store.update("missing", [](Pod& p) { p.meta.labels["zone"] = "z"; });
  store.create(pod);  // "p" is taken: kAlreadyExists
  commit();
  EXPECT_EQ(appA, 3u);
  EXPECT_EQ(appB, 1u);

  const std::uint64_t tierAtRemove = tierX;
  store.remove("p");
  commit();
  EXPECT_EQ(appA, 3u);
  EXPECT_EQ(appB, 2u);
  EXPECT_GT(tierX, tierAtRemove);
  EXPECT_EQ(unrelated, 0u);

  // The last app=b object is gone; its counter stays and keeps counting.
  EXPECT_EQ(store.listBySelector({{"app", "b"}}).size(), 0u);
  EXPECT_EQ(&store.labelVersion("app", "b"), &appB);
  EXPECT_EQ(appB, 2u);
  pod.meta.labels = {{"app", "b"}};
  store.create(pod);
  commit();
  EXPECT_EQ(appB, 3u);
  EXPECT_EQ(store.listBySelector({{"app", "b"}}).size(), 1u);
  EXPECT_EQ(unrelated, 0u);
}

// Store::membershipVersion moves on a committed create or remove, and on
// nothing else; Store::ownerVersion moves on every commit to an object the
// owner owns before or after it, the old and the new owner on a re-own.
TEST(StoreMembership, OnlyCommittedCreatesAndRemovesMoveIt) {
  Simulation sim(1);
  const ControlPlaneParams params;
  Store<Pod> store(sim, params, "Pod");
  const std::uint64_t& ownerA = store.ownerVersion("rs-a");
  const std::uint64_t& ownerB = store.ownerVersion("rs-b");
  const auto commit = [&sim] { sim.run(); };
  EXPECT_EQ(store.membershipVersion(), 0u);

  Pod pod;
  pod.meta.name = "p";
  pod.ownerReplicaSet = "rs-a";
  store.create(pod);
  commit();
  EXPECT_EQ(store.membershipVersion(), 1u);
  EXPECT_EQ(ownerA, 1u);
  const Pod* cached = store.get("p");

  // An update changes the object in place: membership and address stay,
  // the owner's counter moves.
  store.update("p", [](Pod& p) { p.status.ready = true; });
  commit();
  EXPECT_EQ(store.membershipVersion(), 1u);
  EXPECT_EQ(store.get("p"), cached);
  EXPECT_EQ(ownerA, 2u);
  EXPECT_EQ(ownerB, 0u);

  // Failed calls change nothing.
  std::vector<Errc> failures;
  const auto record = [&failures](Status status) {
    if (!status.ok()) failures.push_back(status.error().code);
  };
  store.create(pod, record);                     // kAlreadyExists
  store.remove("missing", record);               // kNotFound
  store.update("missing", [](Pod&) {}, record);  // kNotFound
  commit();
  EXPECT_EQ(failures, (std::vector<Errc>{Errc::kAlreadyExists,
                                         Errc::kNotFound, Errc::kNotFound}));
  EXPECT_EQ(store.membershipVersion(), 1u);
  EXPECT_EQ(ownerA, 2u);

  // Re-own rs-a -> rs-b: both owners' counters move, membership does not.
  store.update("p", [](Pod& p) { p.ownerReplicaSet = "rs-b"; });
  commit();
  EXPECT_EQ(store.membershipVersion(), 1u);
  EXPECT_EQ(ownerA, 3u);
  EXPECT_EQ(ownerB, 1u);
  EXPECT_TRUE(store.listByOwner("rs-a").empty());
  EXPECT_EQ(store.listByOwner("rs-b").size(), 1u);

  store.remove("p");
  commit();
  EXPECT_EQ(store.membershipVersion(), 2u);
  EXPECT_EQ(ownerA, 3u);
  EXPECT_EQ(ownerB, 2u);

  // rs-b owns nothing now; its counter stays and keeps counting.
  EXPECT_EQ(&store.ownerVersion("rs-b"), &ownerB);
  pod.ownerReplicaSet = "rs-b";
  store.create(pod);
  commit();
  EXPECT_EQ(store.membershipVersion(), 3u);
  EXPECT_EQ(ownerB, 3u);
}

// CachedLookup looks a name up again exactly when membership moved: it
// follows a create, a remove and a re-create under the same name, and
// sees an update through the pointer it already holds.
TEST(StoreMembership, CachedLookupFollowsCreatesAndRemoves) {
  Simulation sim(1);
  const ControlPlaneParams params;
  Store<Pod> store(sim, params, "Pod");
  CachedLookup<Pod> lookup;
  EXPECT_EQ(lookup.get(store, "p"), nullptr);

  Pod pod;
  pod.meta.name = "p";
  store.create(pod);
  sim.run();
  const Pod* first = lookup.get(store, "p");
  ASSERT_NE(first, nullptr);
  const std::uint64_t firstUid = first->meta.uid;

  store.update("p", [](Pod& p) { p.status.ready = true; });
  sim.run();
  const Pod* updated = lookup.get(store, "p");
  ASSERT_NE(updated, nullptr);
  EXPECT_EQ(updated, first);
  EXPECT_TRUE(updated->status.ready);

  store.remove("p");
  sim.run();
  EXPECT_EQ(lookup.get(store, "p"), nullptr);

  store.create(pod);
  sim.run();
  const Pod* second = lookup.get(store, "p");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second, store.get("p"));
  EXPECT_NE(second->meta.uid, firstUid);
  EXPECT_FALSE(second->status.ready);
}

// ------------------------------------------------- reconcile pipeline ----

TEST_F(K8sFixture, ScaleToZeroCreatesNoPods) {
  cluster_->applyDeployment(makeNginxDeployment("web", 0, nginx_.ref));
  sim_.runUntil(5_s);
  EXPECT_NE(cluster_->api().replicaSets().get("web-rs"), nullptr);
  EXPECT_EQ(cluster_->api().pods().size(), 0u);
}

TEST_F(K8sFixture, ScaleUpCreatesRunsAndReadiesPod) {
  cluster_->applyDeployment(makeNginxDeployment("web", 0, nginx_.ref));
  sim_.runUntil(2_s);
  cluster_->scaleDeployment("web", 1);

  const auto readyAt = runUntilTrue(
      [&] {
        const auto pods = cluster_->podsBySelector({{"app", "web"}});
        return pods.size() == 1 && pods[0]->status.ready;
      },
      20_s);
  ASSERT_TRUE(readyAt.has_value());

  const auto pods = cluster_->podsBySelector({{"app", "web"}});
  EXPECT_EQ(pods[0]->status.phase, PodPhase::kRunning);
  EXPECT_EQ(pods[0]->spec.nodeName, "egs");
  EXPECT_NE(pods[0]->status.endpoint.port, 0);

  // fig. 11 calibration: the control-plane chain makes a cached-image
  // scale-up land around 2-4 s (vs. Docker's sub-second).
  const double seconds = readyAt->toSeconds() - 2.0;
  EXPECT_GT(seconds, 1.5);
  EXPECT_LT(seconds, 4.5);
}

TEST_F(K8sFixture, DeploymentStatusRollsUp) {
  cluster_->applyDeployment(makeNginxDeployment("web", 2, nginx_.ref));
  const auto done = runUntilTrue(
      [&] {
        const Deployment* d = cluster_->deployment("web");
        return d != nullptr && d->status.readyReplicas == 2;
      },
      30_s);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(cluster_->deployment("web")->status.replicas, 2);
}

TEST_F(K8sFixture, ScaleDownRemovesPodsAndClosesPorts) {
  cluster_->applyDeployment(makeNginxDeployment("web", 2, nginx_.ref));
  ASSERT_TRUE(runUntilTrue(
                  [&] {
                    const Deployment* d = cluster_->deployment("web");
                    return d != nullptr && d->status.readyReplicas == 2;
                  },
                  30_s)
                  .has_value());

  cluster_->scaleDeployment("web", 0);
  const auto gone = runUntilTrue(
      [&] { return cluster_->podsBySelector({{"app", "web"}}).empty(); }, 30_s);
  ASSERT_TRUE(gone.has_value());
  // All containers stopped on the node.
  const auto remaining = runUntilTrue(
      [&] {
        for (const auto* info : runtime_->list()) {
          if (info->state == container::ContainerState::kRunning) return false;
        }
        return true;
      },
      40_s);
  EXPECT_TRUE(remaining.has_value());
}

TEST_F(K8sFixture, DeleteDeploymentCascades) {
  cluster_->applyDeployment(makeNginxDeployment("web", 1, nginx_.ref));
  ASSERT_TRUE(runUntilTrue(
                  [&] {
                    return !cluster_->podsBySelector({{"app", "web"}}).empty();
                  },
                  20_s)
                  .has_value());
  cluster_->deleteDeployment("web");
  const auto gone = runUntilTrue(
      [&] {
        return cluster_->api().replicaSets().get("web-rs") == nullptr &&
               cluster_->podsBySelector({{"app", "web"}}).empty();
      },
      30_s);
  EXPECT_TRUE(gone.has_value());
}

TEST_F(K8sFixture, UncachedImageIsPulledFirst) {
  // Use an image the node's layer store does not have yet.
  const auto resnet = makeImage(
      *container::ImageRef::parse("gcr.io/tensorflow-serving/resnet:latest"),
      308_MiB, 9);
  registry_->push(resnet);
  cluster_->applyDeployment(makeNginxDeployment("resnet", 1, resnet.ref));
  const auto ready = runUntilTrue(
      [&] {
        const auto pods = cluster_->podsBySelector({{"app", "resnet"}});
        return pods.size() == 1 && pods[0]->status.ready;
      },
      60_s);
  ASSERT_TRUE(ready.has_value());
  // Pull time (~8-9 s for 308 MiB / 9 layers from the public registry)
  // dominates; total must exceed the pure scale-up time by seconds.
  EXPECT_GT(ready->toSeconds(), 7.0);
  EXPECT_EQ(registry_->pullCount(), 1u);
}

// ---------------------------------------------------------- endpoints ----

TEST_F(K8sFixture, EndpointsTrackReadyPods) {
  cluster_->applyService(makeService("web"));
  cluster_->applyDeployment(makeNginxDeployment("web", 0, nginx_.ref));
  sim_.runUntil(3_s);
  EXPECT_TRUE(cluster_->readyEndpoints("web").empty());

  cluster_->scaleDeployment("web", 1);
  const auto ready = runUntilTrue(
      [&] { return cluster_->readyEndpoints("web").size() == 1; }, 20_s);
  ASSERT_TRUE(ready.has_value());

  cluster_->scaleDeployment("web", 0);
  const auto empty = runUntilTrue(
      [&] { return cluster_->readyEndpoints("web").empty(); }, 40_s);
  EXPECT_TRUE(empty.has_value());
}

// Pins the exact Endpoints timeline of six services under scale-up /
// scale-down churn.  Every pod event queues EVERY service for an Endpoints
// reconcile (enqueueAll), and a service that is already queued drops its
// own later enqueue.  So a pod event of one service can make another
// service's reconcile run before that service's own watch chain would --
// and the reconcile reads the live store, so its Endpoints go ready early.
// "svc-a" is such a service twice (see the comments at its lines): an
// Endpoints controller that only queued the services matching the pod
// would publish it 11 ms and 75 ms later, and this test would fail.
TEST_F(K8sFixture, EndpointsTimelineUnderChurnIsPinned) {
  std::vector<std::string> names;
  for (char c = 'a'; c <= 'f'; ++c) names.push_back(std::string("svc-") + c);
  for (const auto& name : names) {
    cluster_->applyDeployment(makeNginxDeployment(name, 0, nginx_.ref));
    cluster_->applyService(makeService(name));
  }
  std::vector<std::string> timeline;
  cluster_->api().endpoints().watch([&](const WatchEvent<Endpoints>& event) {
    std::string line = strprintf("%.3f %s", sim_.now().toMillis(),
                                 event.object.meta.name.c_str());
    for (const auto& address : event.object.addresses) {
      line += ' ';
      line += address.toString();
    }
    timeline.push_back(std::move(line));
  });

  struct Scale {
    SimTime at;
    std::size_t service;
    int replicas;
  };
  const std::vector<Scale> churn = {
      {1000_ms, 0, 1},
      {1130_ms, 1, 1},
      {1410_ms, 2, 2},
      {1720_ms, 3, 1},
      {2050_ms, 4, 1},
      {2390_ms, 5, 1},
      {6000_ms, 0, 2},
      {6270_ms, 2, 1},
      {7100_ms, 3, 0},
      {7480_ms, 4, 2},
      {9000_ms, 1, 0},
      {9330_ms, 5, 0},
      {12000_ms, 3, 1},
      {12210_ms, 1, 1},
      {12650_ms, 0, 0},
      {13020_ms, 4, 1},
  };
  for (const auto& step : churn) {
    const std::string name = names[step.service];
    const int replicas = step.replicas;
    sim_.scheduleAt(step.at, [this, name, replicas] {
      cluster_->scaleDeployment(name, replicas);
    });
  }
  sim_.runUntil(25_s);

  const std::vector<std::string> expected = {
      "230.000 svc-a",
      "230.000 svc-b",
      "230.000 svc-c",
      "230.000 svc-d",
      "230.000 svc-e",
      "230.000 svc-f",
      "3583.944 svc-a 10.0.1.1:30000",  // early: queued by svc-d's pod event
      "3743.214 svc-b 10.0.1.1:30001",
      "3990.062 svc-c 10.0.1.1:30002 10.0.1.1:30003",
      "4183.944 svc-d 10.0.1.1:30004",
      "4640.407 svc-e 10.0.1.1:30005",
      "4986.970 svc-f 10.0.1.1:30006",
      "7130.000 svc-c 10.0.1.1:30003",
      "7960.000 svc-d",
      "8567.485 svc-a 10.0.1.1:30000 10.0.1.1:30007",
      "9860.000 svc-b",
      "10049.720 svc-e 10.0.1.1:30005 10.0.1.1:30008",
      "10165.000 svc-f",
      "13435.000 svc-a",  // early: queued by svc-b's pod event
      "13880.000 svc-e 10.0.1.1:30005",
      "14601.030 svc-d 10.0.1.1:30009",
      "14806.701 svc-b 10.0.1.1:30010",
  };
  EXPECT_EQ(timeline, expected);
}

// An ApiServer with only the Endpoints controller: the tests below commit
// pods, services and Endpoints directly, as the kubelets and the other
// controllers would.
struct EndpointsHarness {
  explicit EndpointsHarness(std::uint64_t seed)
      : sim(seed), api(sim, params), controller(sim, api, params) {}

  /// Commit a service named `name` selecting app=`name`.
  void addService(const std::string& name) {
    api.services().create(makeService(name));
  }

  /// Commit a bare pod labelled app=`app`.
  void addPod(const std::string& name, const std::string& app, bool ready) {
    Pod pod;
    pod.meta.name = name;
    pod.meta.labels = {{"app", app}};
    pod.status.ready = ready;
    pod.status.endpoint = Endpoint(
        Ipv4(10, 0, 1, 1), static_cast<std::uint16_t>(30000 + nextPort++));
    api.pods().create(std::move(pod));
  }

  void advance(SimTime by) { sim.runUntil(sim.now() + by); }

  /// What the service's Endpoints must hold: the ready pods its selector
  /// matches, sorted -- computed by a linear filter over every pod.
  std::vector<Endpoint> expectedAddresses(const Service& service) {
    std::vector<Endpoint> out;
    for (const Pod* pod : api.pods().list()) {
      if (pod->status.ready &&
          selectorMatches(service.spec.selector, pod->meta.labels)) {
        out.push_back(pod->status.endpoint);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const ControlPlaneParams params;
  Simulation sim;
  ApiServer api;
  EndpointsController controller;
  int nextPort = 0;
};

// Property: under seeded random churn -- scale up and down, readiness
// flips, a pod relabelled from one service to another, a service's
// selector changed, an Endpoints object deleted behind the controller's
// back -- every service's Endpoints at quiescence equal the ready pods its
// selector matches.  Steps are spaced 0-300 ms apart, so churn lands while
// batches are queued, before and after their reconciles.
class EndpointsControllerProperty : public ::testing::TestWithParam<int> {};

TEST_P(EndpointsControllerProperty, QuiescentEndpointsMatchReadyPods) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  EndpointsHarness h(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::string> apps;
  for (int i = 0; i < 10; ++i) apps.push_back(strprintf("svc-%d", i));
  // Two app values no service selects at first: relabels and selector
  // changes move pods and services onto and off them.
  const std::vector<std::string> services(apps.begin(), apps.begin() + 8);
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.uniformInt(0, pool.size() - 1)];
  };
  for (const auto& name : services) h.addService(name);
  int nextPod = 0;
  for (int i = 0; i < 16; ++i) {
    h.addPod(strprintf("p%d", nextPod++), pick(apps), rng.chance(0.7));
  }
  h.advance(1_s);

  std::size_t recreatedChecks = 0;
  for (int step = 0; step < 300; ++step) {
    const auto pods = h.api.pods().list();
    const std::string victim = pods.empty() ? "" : pick(pods)->meta.name;
    const auto op = rng.uniformInt(0, 9);
    if (op < 3 || victim.empty()) {  // scale up
      h.addPod(strprintf("p%d", nextPod++), pick(apps), rng.chance(0.7));
    } else if (op < 5) {  // scale down
      h.api.pods().remove(victim);
    } else if (op < 7) {  // readiness flip
      h.api.pods().update(
          victim, [](Pod& pod) { pod.status.ready = !pod.status.ready; });
    } else if (op < 8) {  // relabel onto another service
      const std::string app = pick(apps);
      h.api.pods().update(victim,
                          [app](Pod& pod) { pod.meta.labels["app"] = app; });
    } else if (op < 9) {  // change a service's selector
      const std::string app = pick(apps);
      h.api.services().update(pick(services), [app](Service& service) {
        service.spec.selector = {{"app", app}};
      });
    } else {  // delete an Endpoints object behind the controller's back
      const std::string name = pick(services);
      h.api.endpoints().remove(name);
      // The next batch -- triggered here by an unrelated pod event, long
      // before the next resync -- must recreate it.
      h.advance(h.params.apiLatency);
      if (h.api.endpoints().get(name) == nullptr) {
        h.addPod(strprintf("p%d", nextPod++), pick(apps), false);
        h.advance(h.params.apiLatency + h.params.watchLatency +
                  h.params.endpointsSyncLatency + h.params.apiLatency);
        EXPECT_NE(h.api.endpoints().get(name), nullptr)
            << "seed " << GetParam() << " step " << step << " " << name;
        ++recreatedChecks;
      }
    }
    h.advance(SimTime::millis(static_cast<std::int64_t>(
        rng.uniformInt(0, 300))));
  }
  // Quiescence: every in-flight batch and write has landed.
  h.advance(2_s);

  for (const auto& name : services) {
    const Service* service = h.api.services().get(name);
    const Endpoints* endpoints = h.api.endpoints().get(name);
    ASSERT_NE(service, nullptr);
    ASSERT_NE(endpoints, nullptr) << "seed " << GetParam() << " " << name;
    EXPECT_EQ(endpoints->addresses, h.expectedAddresses(*service))
        << "seed " << GetParam() << " " << name;
  }
  EXPECT_GT(recreatedChecks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndpointsControllerProperty,
                         ::testing::Range(1, 11));

// Work: the fan-out stays wide in simulated time (every pod event queues
// all 40 services in one batch), but a batch lists pods only for the
// services whose inputs changed since their last no-op reconcile.
TEST(EndpointsControllerWork, BatchListsPodsOnlyForTheChangedService) {
  EndpointsHarness h(7);
  std::vector<std::string> services;
  for (int i = 0; i < 40; ++i) services.push_back(strprintf("svc-%02d", i));
  for (const auto& name : services) {
    h.addService(name);
    h.addPod(name + "-ready", name, true);
  }
  // Past the first resync (10 s): creating the Endpoints objects wrote,
  // so it is the resync batch that finds all 40 settled and memoises them.
  h.advance(h.params.controllerResyncPeriod + 500_ms);
  for (const auto& name : services) {
    const Endpoints* endpoints = h.api.endpoints().get(name);
    ASSERT_NE(endpoints, nullptr);
    ASSERT_EQ(endpoints->addresses.size(), 1u);
  }

  // A pod event on one service: one full reconcile, for that service.
  Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    const std::string name = services[rng.uniformInt(0, services.size() - 1)];
    const std::uint64_t before = h.controller.fullReconciles();
    h.addPod(strprintf("%s-pending-%d", name.c_str(), round), name, false);
    h.advance(1_s);
    EXPECT_EQ(h.controller.fullReconciles() - before, 1u) << name;
  }

  // A resync with nothing changed lists no pods at all.
  const std::uint64_t beforeResync = h.controller.fullReconciles();
  h.advance(h.params.controllerResyncPeriod);
  EXPECT_EQ(h.controller.fullReconciles(), beforeResync);

  // A write invalidates the writer's own memo: the readiness flip updates
  // svc-03's Endpoints, so the next batch (an unrelated pod event on
  // svc-05) re-lists svc-03 once more, then both are settled again.
  h.api.pods().update("svc-03-ready",
                      [](Pod& pod) { pod.status.ready = false; });
  h.advance(1_s);
  const Endpoints* flipped = h.api.endpoints().get("svc-03");
  ASSERT_NE(flipped, nullptr);
  EXPECT_TRUE(flipped->addresses.empty());
  std::uint64_t before = h.controller.fullReconciles();
  h.addPod("svc-05-pending-x", "svc-05", false);
  h.advance(1_s);
  EXPECT_EQ(h.controller.fullReconciles() - before, 2u);
  before = h.controller.fullReconciles();
  h.addPod("svc-07-pending-x", "svc-07", false);
  h.advance(1_s);
  EXPECT_EQ(h.controller.fullReconciles() - before, 1u);
}

// An ApiServer with only the Deployment and ReplicaSet controllers: no
// scheduler and no kubelet, so the pods they create stay Pending (alive)
// and the tests below commit failures and readiness themselves, as a
// kubelet would.
struct ReconcileHarness {
  explicit ReconcileHarness(std::uint64_t seed)
      : sim(seed),
        api(sim, params),
        deployments(sim, api, params),
        replicaSets(sim, api, params) {}

  void addDeployment(const std::string& name, int replicas) {
    api.deployments().create(makeNginxDeployment(name, replicas, image));
  }

  void scale(const std::string& name, int replicas) {
    api.deployments().update(
        name, [replicas](Deployment& d) { d.spec.replicas = replicas; });
  }

  void advance(SimTime by) { sim.runUntil(sim.now() + by); }

  /// Owned pods that are Pending or Running.
  std::vector<const Pod*> alivePods(const std::string& rsName) {
    std::vector<const Pod*> out;
    for (const Pod* pod : api.pods().listByOwner(rsName)) {
      if (pod->status.phase == PodPhase::kPending ||
          pod->status.phase == PodPhase::kRunning) {
        out.push_back(pod);
      }
    }
    return out;
  }

  const ControlPlaneParams params;
  const container::ImageRef image = *container::ImageRef::parse("nginx:1.23.2");
  Simulation sim;
  ApiServer api;
  DeploymentController deployments;
  ReplicaSetController replicaSets;
};

// Work: with 40 settled deployments, a resync schedules one batch event
// per controller (not one event per object) and every queued reconcile is
// skipped by its memo; scaling one deployment fully reconciles that one
// only, exactly as much as with no other deployment around.
TEST(ControllerResyncWork, ResyncIsOneEventPerControllerAndSkipsSettled) {
  ReconcileHarness h(7);
  for (int i = 0; i < 40; ++i) h.addDeployment(strprintf("dep-%02d", i), 1);
  // Settle well before the first resync at 10 s.
  h.advance(h.params.controllerResyncPeriod - 500_ms);
  for (int i = 0; i < 40; ++i) {
    const std::string name = strprintf("dep-%02d", i);
    ASSERT_EQ(h.alivePods(name + "-rs").size(), 1u) << name;
    const Deployment* deployment = h.api.deployments().get(name);
    ASSERT_NE(deployment, nullptr);
    ASSERT_EQ(deployment->status.replicas, 1);
  }

  // The resync: two timer ticks plus one batch event per controller, and
  // no full reconcile (so no write, and nothing else runs).
  const std::uint64_t eventsBefore = h.sim.processedEvents();
  const std::uint64_t deploymentsBefore = h.deployments.fullReconciles();
  const std::uint64_t replicaSetsBefore = h.replicaSets.fullReconciles();
  h.advance(1_s);
  EXPECT_EQ(h.sim.processedEvents() - eventsBefore, 4u);
  EXPECT_EQ(h.deployments.fullReconciles(), deploymentsBefore);
  EXPECT_EQ(h.replicaSets.fullReconciles(), replicaSetsBefore);

  // Scaling dep-17 costs what it costs with dep-17 alone: the other 39
  // memos hold through every batch the scale-up triggers, and the
  // resyncs in between.
  ReconcileHarness alone(7);
  alone.addDeployment("dep-17", 1);
  alone.advance(h.sim.now());
  const auto scaleUp = [](ReconcileHarness& harness) {
    const std::uint64_t deploymentsAt = harness.deployments.fullReconciles();
    const std::uint64_t replicaSetsAt = harness.replicaSets.fullReconciles();
    harness.scale("dep-17", 3);
    harness.advance(harness.params.controllerResyncPeriod * 2);
    EXPECT_EQ(harness.alivePods("dep-17-rs").size(), 3u);
    return std::pair(harness.deployments.fullReconciles() - deploymentsAt,
                     harness.replicaSets.fullReconciles() - replicaSetsAt);
  };
  const auto work = scaleUp(h);
  EXPECT_GT(work.first, 0u);
  EXPECT_GT(work.second, 0u);
  EXPECT_EQ(work, scaleUp(alone));
}

// Property: under seeded random churn -- scale, pod failure, readiness
// flips, a relabelled pod template, and a Deployment deleted and recreated
// under the same name (a new uid and address, so a stale cached pointer or
// memo would show) -- every ReplicaSet mirrors its Deployment's spec at
// quiescence, owns exactly `replicas` alive pods, and both statuses roll
// up.  Steps are 0-300 ms apart, so churn lands while reconciles are
// queued.
class DeploymentControllerProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeploymentControllerProperty, QuiescentReplicaSetsMirrorDeployments) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  ReconcileHarness h(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) names.push_back(strprintf("dep-%d", i));
  const auto pick = [&rng](const auto& pool) {
    return pool[rng.uniformInt(0, pool.size() - 1)];
  };
  for (const auto& name : names) {
    h.addDeployment(name, static_cast<int>(rng.uniformInt(0, 2)));
  }
  h.advance(2_s);

  std::size_t recreated = 0;
  for (int step = 0; step < 300; ++step) {
    const std::string name = pick(names);
    const auto pods = h.api.pods().listByOwner(name + "-rs");
    const std::string victim = pods.empty() ? "" : pick(pods)->meta.name;
    const auto op = rng.uniformInt(0, 9);
    if (op < 3 || victim.empty()) {  // scale
      h.scale(name, static_cast<int>(rng.uniformInt(0, 3)));
    } else if (op < 5) {  // pod failure
      h.api.pods().update(victim, [](Pod& pod) {
        pod.status.phase = PodPhase::kFailed;
        pod.status.ready = false;
      });
    } else if (op < 7) {  // readiness flip
      h.api.pods().update(
          victim, [](Pod& pod) { pod.status.ready = !pod.status.ready; });
    } else if (op < 8) {  // relabel the pod template
      const std::string tier =
          strprintf("t%d", static_cast<int>(rng.uniformInt(0, 2)));
      h.api.deployments().update(name, [tier](Deployment& d) {
        d.spec.podTemplate.labels["tier"] = tier;
      });
    } else {  // delete, then recreate under the same name
      const Deployment* current = h.api.deployments().get(name);
      if (current == nullptr) continue;  // already being recreated
      Deployment again = *current;
      again.spec.replicas = static_cast<int>(rng.uniformInt(0, 3));
      again.status = DeploymentStatus{};
      h.api.deployments().remove(name);
      // Right away (the controllers see the new object behind the old
      // one's watch event) or after the old ReplicaSet may be gone.
      SimTime later = SimTime::zero();
      if (rng.chance(0.5)) {
        later = SimTime::millis(
            static_cast<std::int64_t>(rng.uniformInt(100, 3000)));
      }
      h.sim.schedule(later, [&h, again] { h.api.deployments().create(again); });
      ++recreated;
    }
    h.advance(SimTime::millis(static_cast<std::int64_t>(
        rng.uniformInt(0, 300))));
  }
  // Quiescence: every recreate, reconcile and write has landed.
  h.advance(h.params.controllerResyncPeriod * 2);

  for (const auto& name : names) {
    const Deployment* deployment = h.api.deployments().get(name);
    const ReplicaSet* rs = h.api.replicaSets().get(name + "-rs");
    ASSERT_NE(deployment, nullptr) << "seed " << GetParam() << " " << name;
    ASSERT_NE(rs, nullptr) << "seed " << GetParam() << " " << name;
    EXPECT_EQ(rs->spec.replicas, deployment->spec.replicas)
        << "seed " << GetParam() << " " << name;
    EXPECT_EQ(rs->spec.podTemplate.labels, deployment->spec.podTemplate.labels)
        << "seed " << GetParam() << " " << name;

    const auto alive = h.alivePods(name + "-rs");
    EXPECT_EQ(static_cast<int>(alive.size()), deployment->spec.replicas)
        << "seed " << GetParam() << " " << name;
    EXPECT_EQ(h.api.pods().listByOwner(name + "-rs").size(), alive.size())
        << "seed " << GetParam() << " " << name << ": failed pods remain";
    const int ready = static_cast<int>(std::count_if(
        alive.begin(), alive.end(),
        [](const Pod* pod) { return pod->status.ready; }));
    EXPECT_EQ(rs->status.replicas, static_cast<int>(alive.size()))
        << "seed " << GetParam() << " " << name;
    EXPECT_EQ(rs->status.readyReplicas, ready)
        << "seed " << GetParam() << " " << name;
    EXPECT_EQ(deployment->status.replicas, rs->status.replicas)
        << "seed " << GetParam() << " " << name;
    EXPECT_EQ(deployment->status.readyReplicas, rs->status.readyReplicas)
        << "seed " << GetParam() << " " << name;
  }
  EXPECT_GT(recreated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeploymentControllerProperty,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------- scheduler ----

TEST_F(K8sFixture, CustomSchedulerSelectedBySchedulerName) {
  int customCalls = 0;
  cluster_->scheduler().registerStrategy(
      "edge-local-scheduler",
      [&](const Pod&, const std::vector<NodeHandle>& nodes, const Store<Pod>&,
          const std::map<std::string, int>&) -> std::string {
        ++customCalls;
        return nodes[0].name;
      });
  auto deployment = makeNginxDeployment("web", 1, nginx_.ref);
  deployment.spec.podTemplate.spec.schedulerName = "edge-local-scheduler";
  cluster_->applyDeployment(deployment);
  const auto ready = runUntilTrue(
      [&] {
        const auto pods = cluster_->podsBySelector({{"app", "web"}});
        return pods.size() == 1 && pods[0]->status.ready;
      },
      20_s);
  ASSERT_TRUE(ready.has_value());
  EXPECT_GE(customCalls, 1);
}

TEST_F(K8sFixture, UnknownSchedulerLeavesPodPending) {
  auto deployment = makeNginxDeployment("web", 1, nginx_.ref);
  deployment.spec.podTemplate.spec.schedulerName = "no-such-scheduler";
  cluster_->applyDeployment(deployment);
  sim_.runUntil(8_s);
  const auto pods = cluster_->podsBySelector({{"app", "web"}});
  ASSERT_EQ(pods.size(), 1u);
  EXPECT_FALSE(pods[0]->scheduled());
  EXPECT_EQ(pods[0]->status.phase, PodPhase::kPending);
  EXPECT_GE(cluster_->scheduler().unschedulableCount(), 1u);
}

// ------------------------------------------------------------- kubelet ----

TEST_F(K8sFixture, CrashingContainerIsRestarted) {
  auto deployment = makeNginxDeployment("web", 1, nginx_.ref);
  // Crash roughly half the starts; kubelet restarts should still converge.
  deployment.spec.podTemplate.spec.containers[0].app.crashOnStartProbability =
      0.5;
  cluster_->applyDeployment(deployment);
  const auto ready = runUntilTrue(
      [&] {
        const auto pods = cluster_->podsBySelector({{"app", "web"}});
        return !pods.empty() && pods[0]->status.ready;
      },
      120_s);
  // With p=0.5 and restarts + RS replacement, readiness within 2 minutes is
  // effectively certain for this seed.
  ASSERT_TRUE(ready.has_value());
}

TEST_F(K8sFixture, AlwaysCrashingPodGoesFailedAndIsReplaced) {
  auto deployment = makeNginxDeployment("web", 1, nginx_.ref);
  deployment.spec.podTemplate.spec.containers[0].app.crashOnStartProbability =
      1.0;
  cluster_->applyDeployment(deployment);
  sim_.runUntil(60_s);
  // Never ready; the RS keeps replacing failed pods.
  const auto pods = cluster_->podsBySelector({{"app", "web"}});
  for (const auto* pod : pods) EXPECT_FALSE(pod->status.ready);
  std::uint64_t restarts = 0;
  for (auto* kubelet : cluster_->kubelets()) {
    restarts += kubelet->restartedContainers();
  }
  EXPECT_GE(restarts, 1u);
}

// ---------------------------------------------------------- autoscaler ----

TEST_F(K8sFixture, AutoscalerScalesOutUnderLoadAndBackWhenIdle) {
  Host client(net_, "client", Ipv4(10, 0, 0, 9), Mac(0x99));
  net_.connect(client, *egs_, 1_ms, 1_Gbps);

  cluster_->applyService(makeService("web"));
  cluster_->applyDeployment(makeNginxDeployment("web", 1, nginx_.ref));
  ASSERT_TRUE(runUntilTrue(
                  [&] { return cluster_->readyEndpoints("web").size() == 1; },
                  20_s)
                  .has_value());

  auto requestCounter = [this]() -> std::uint64_t {
    std::uint64_t total = 0;
    for (const auto* info : runtime_->list({{"app", "web"}})) {
      total += info->requestsServed;
    }
    return total;
  };
  AutoscalerParams params;
  params.deployment = "web";
  params.minReplicas = 1;
  params.maxReplicas = 5;
  params.targetRequestsPerReplica = 8.0;  // req/s per replica
  params.syncPeriod = 5_s;
  params.downscaleStabilisation = 30_s;
  HorizontalAutoscaler hpa(sim_, *cluster_, params, requestCounter);

  // ~20 req/s of load for 2 minutes, spread over the ready endpoints.
  PeriodicTimer load;
  std::size_t rr = 0;
  load.start(sim_, 50_ms, [&]() -> bool {
    if (sim_.now() > 120_s) return false;
    const auto endpoints = cluster_->readyEndpoints("web");
    if (!endpoints.empty()) {
      client.httpRequest(endpoints[rr++ % endpoints.size()], HttpRequest{},
                         [](Result<HttpExchange>) {});
    }
    return true;
  });

  // 20 req/s at 8 req/s/replica -> desired 3.
  const auto scaledOut = runUntilTrue(
      [&] {
        const Deployment* d = cluster_->deployment("web");
        return d != nullptr && d->spec.replicas == 3 &&
               cluster_->readyEndpoints("web").size() == 3;
      },
      100_s);
  ASSERT_TRUE(scaledOut.has_value());
  EXPECT_GE(hpa.lastObservedRate(), 15.0);
  EXPECT_LE(hpa.lastObservedRate(), 25.0);

  // Load stops at t=120 s; after the stabilisation window the deployment
  // returns to minReplicas.
  const auto scaledIn = runUntilTrue(
      [&] {
        const Deployment* d = cluster_->deployment("web");
        return d != nullptr && d->spec.replicas == 1;
      },
      SimTime::seconds(260.0));
  ASSERT_TRUE(scaledIn.has_value());
  EXPECT_GE(*scaledIn, 150_s);  // not before load-end + stabilisation
  EXPECT_GE(hpa.scaleEvents(), 2u);
}

TEST_F(K8sFixture, AutoscalerRespectsMaxReplicas) {
  Host client(net_, "client", Ipv4(10, 0, 0, 9), Mac(0x99));
  net_.connect(client, *egs_, 1_ms, 1_Gbps);
  cluster_->applyService(makeService("web"));
  cluster_->applyDeployment(makeNginxDeployment("web", 1, nginx_.ref));
  ASSERT_TRUE(runUntilTrue(
                  [&] { return cluster_->readyEndpoints("web").size() == 1; },
                  20_s)
                  .has_value());

  auto requestCounter = [this]() -> std::uint64_t {
    std::uint64_t total = 0;
    for (const auto* info : runtime_->list({{"app", "web"}})) {
      total += info->requestsServed;
    }
    return total;
  };
  AutoscalerParams params;
  params.deployment = "web";
  params.maxReplicas = 2;
  params.targetRequestsPerReplica = 1.0;  // absurdly low: always wants more
  params.syncPeriod = 5_s;
  HorizontalAutoscaler hpa(sim_, *cluster_, params, requestCounter);

  PeriodicTimer load;
  load.start(sim_, 100_ms, [&]() -> bool {
    if (sim_.now() > 60_s) return false;
    const auto endpoints = cluster_->readyEndpoints("web");
    if (!endpoints.empty()) {
      client.httpRequest(endpoints.front(), HttpRequest{},
                         [](Result<HttpExchange>) {});
    }
    return true;
  });
  sim_.runUntil(60_s);
  const Deployment* d = cluster_->deployment("web");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->spec.replicas, 2);  // clamped
  EXPECT_EQ(hpa.lastDesiredReplicas(), 2);
}

// ------------------------------------------------------- multi-node ----

TEST(K8sMultiNode, LeastLoadedSpreadsPods) {
  Simulation sim(71);
  Network net(sim);
  Host hostA(net, "node-a", Ipv4(10, 0, 1, 1), Mac(0x10));
  Host hostB(net, "node-b", Ipv4(10, 0, 1, 2), Mac(0x11));
  container::LayerStore storeA;
  container::LayerStore storeB;
  container::ContainerdRuntime runtimeA(sim, hostA, storeA);
  container::ContainerdRuntime runtimeB(sim, hostB, storeB);
  container::ImagePuller pullerA(sim, storeA);
  container::ImagePuller pullerB(sim, storeB);
  const auto nginx =
      makeImage(*container::ImageRef::parse("nginx:1.23.2"), 135_MiB, 6);
  storeA.commitImage(nginx);
  storeB.commitImage(nginx);

  NodeHandle a{"node-a", &hostA, &runtimeA, &pullerA, nullptr, 110};
  NodeHandle b{"node-b", &hostB, &runtimeB, &pullerB, nullptr, 110};
  K8sCluster cluster(sim, ControlPlaneParams{}, {a, b});

  cluster.applyDeployment(makeNginxDeployment("web", 4, nginx.ref));
  sim.runUntil(30_s);

  int onA = 0;
  int onB = 0;
  for (const auto* pod : cluster.podsBySelector({{"app", "web"}})) {
    if (pod->spec.nodeName == "node-a") ++onA;
    if (pod->spec.nodeName == "node-b") ++onB;
  }
  EXPECT_EQ(onA + onB, 4);
  EXPECT_EQ(onA, 2);
  EXPECT_EQ(onB, 2);
}

TEST(K8sMultiNode, CapacityExhaustionLeavesPodsPending) {
  Simulation sim(72);
  Network net(sim);
  Host hostA(net, "node-a", Ipv4(10, 0, 1, 1), Mac(0x10));
  container::LayerStore storeA;
  container::ContainerdRuntime runtimeA(sim, hostA, storeA);
  container::ImagePuller pullerA(sim, storeA);
  const auto nginx =
      makeImage(*container::ImageRef::parse("nginx:1.23.2"), 135_MiB, 6);
  storeA.commitImage(nginx);

  NodeHandle a{"node-a", &hostA, &runtimeA, &pullerA, nullptr, 2};
  K8sCluster cluster(sim, ControlPlaneParams{}, {a});
  cluster.applyDeployment(makeNginxDeployment("web", 5, nginx.ref));
  sim.runUntil(30_s);

  int scheduled = 0;
  int pending = 0;
  for (const auto* pod : cluster.podsBySelector({{"app", "web"}})) {
    if (pod->scheduled()) {
      ++scheduled;
    } else {
      ++pending;
    }
  }
  EXPECT_EQ(scheduled, 2);
  EXPECT_EQ(pending, 3);
}

}  // namespace
}  // namespace edgesim::k8s
