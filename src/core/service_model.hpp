// ServiceModel: everything the controller knows about one registered edge
// service -- the annotated definition documents plus the concrete container
// specs used to instantiate it on a cluster.
//
// YAML gives the *structure* (images, ports, volumes); simulated app
// behaviour (startup delay, per-request compute) comes from an
// AppProfileRegistry keyed by image reference, standing in for the real
// binaries inside the images.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "container/spec.hpp"
#include "core/annotator.hpp"
#include "net/http.hpp"

namespace edgesim::core {

/// Image behaviour lookup: what the process in this image does when run.
class AppProfileRegistry {
 public:
  void add(const std::string& imageRef, container::AppProfile profile);
  /// Profile for `imageRef`, or a generic small-web-service default.
  container::AppProfile lookup(const std::string& imageRef) const;

 private:
  std::map<std::string, container::AppProfile> profiles_;
};

struct ServiceModel {
  std::string uniqueName;
  /// Short human label used in metrics series ("nginx", "resnet", ...).
  std::string tag;
  Endpoint address;  // the registered (cloud) service address
  yamlite::Node deploymentDoc;
  yamlite::Node serviceDoc;
  std::string schedulerName;
  std::uint16_t targetPort = 80;
  /// Concrete container specs (labels + profiles attached), primary first.
  std::vector<container::ContainerSpec> containers;
  /// How clients talk to this service (Table I's HTTP column).
  HttpMethod requestMethod = HttpMethod::kGet;
  Bytes requestPayload;
};

/// A registered model.  The controller holds one per service, and every
/// request and deployment of the service shares it rather than copying it
/// with its two YAML trees.  Shared ownership keeps the model valid for as
/// long as any request or deployment of it runs, whoever created it.
using ServiceModelPtr = std::shared_ptr<const ServiceModel>;

/// Build a ServiceModel from an annotated definition.  Fails when the
/// definition's containers are malformed (no image, bad port).
Result<ServiceModel> buildServiceModel(const AnnotatedService& annotated,
                                       Endpoint serviceAddress,
                                       const AppProfileRegistry& profiles);

}  // namespace edgesim::core
