#include "openflow/switch.hpp"

#include "telemetry/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"
#include "util/log.hpp"

namespace edgesim::openflow {

OpenFlowSwitch::OpenFlowSwitch(Network& network, std::string name,
                               Options options)
    : NetNode(network, std::move(name)), options_(options) {
  table_.setRemovalListener([this](const FlowEntry& entry,
                                   RemovalReason reason) {
    if (controller_ == nullptr) return;
    const auto delay = controlDelay(Direction::kToController);
    if (!delay) return;  // notification lost on the control channel
    FlowRemoved event{entry, reason};
    this->network().sim().schedule(*delay, [this, event] {
      if (controller_ != nullptr) controller_->onFlowRemoved(*this, event);
    });
  });
}

void OpenFlowSwitch::setController(ControllerApp* controller) {
  controller_ = controller;
  if (controller_ != nullptr && !expiryTimer_.running()) {
    expiryTimer_.start(network().sim(), options_.expiryScanPeriod, [this] {
      table_.expire(network().sim().now());
      return true;
    });
  }
}

void OpenFlowSwitch::setFaultPlan(fault::FaultPlan* plan) {
  plan_ = plan;
  if (plan_ == nullptr) return;
  auto& sim = network().sim();
  for (const fault::FaultSpec* spec :
       plan_->timedFaults(fault::FaultSite::kControlChannelOutage, name())) {
    sim.scheduleAt(spec->at, [this] { ++outageDepth_; });
    // Zero duration means the channel stays down for the rest of the run,
    // matching Network::scheduleLinkFaults.
    if (spec->duration > SimTime::zero()) {
      sim.scheduleAt(spec->at + spec->duration, [this] { --outageDepth_; });
    }
  }
  for (const fault::FaultSpec* spec :
       plan_->timedFaults(fault::FaultSite::kSwitchRestart, name())) {
    sim.scheduleAt(spec->at,
                   [this, restore = spec->duration] { beginRestart(restore); });
  }
}

void OpenFlowSwitch::setTelemetry(telemetry::MetricsRegistry* metrics,
                                  trace::TraceRecorder* recorder) {
  metrics_ = metrics;
  trace_ = recorder;
}

void OpenFlowSwitch::beginRestart(SimTime restoreDelay) {
  ++restarts_;
  ES_WARN("ofswitch", "%s: restart at t=%.6fs (dropping %zu flows, %zu buffers)",
          name().c_str(), network().sim().now().toSeconds(), table_.size(),
          buffers_.size());
  // The crash loses the table and the buffered packets without a single
  // FlowRemoved: the controller's view is now stale until it reconciles.
  table_.clear();
  buffers_.clear();
  bufferOrder_.clear();
  if (metrics_ != nullptr && restartCounter_ == nullptr) {
    restartCounter_ = &metrics_->counter("edgesim_switch_restarts_total",
                                         {{"switch", name()}});
  }
  if (restartCounter_ != nullptr) restartCounter_->add(1);
  if (trace_ != nullptr) {
    trace_->instant(0, "switch_restart", "ofswitch", network().sim().now(),
                    {{"switch", name()}});
  }
  if (restoreDelay > SimTime::zero()) {
    rebooting_ = true;
    network().sim().schedule(restoreDelay, [this] { rebooting_ = false; });
  }
}

void OpenFlowSwitch::countControlDrop(Direction direction) {
  ++controlDrops_;
  telemetry::Counter** slot = direction == Direction::kToSwitch
                                  ? &dropC2sCounter_
                                  : &dropS2cCounter_;
  if (metrics_ != nullptr && *slot == nullptr) {
    *slot = &metrics_->counter(
        "edgesim_ctrl_channel_dropped_total",
        {{"switch", name()},
         {"direction",
          direction == Direction::kToSwitch ? "c2s" : "s2c"}});
  }
  if (*slot != nullptr) (*slot)->add(1);
}

std::optional<SimTime> OpenFlowSwitch::controlDelay(Direction direction) {
  // Outage windows and a down switch kill messages at the endpoint: the
  // switch neither accepts nor emits anything.
  if (outageDepth_ > 0 || (direction == Direction::kToController &&
                           rebooting_)) {
    countControlDrop(direction);
    return std::nullopt;
  }
  if (plan_ != nullptr) {
    const std::string target =
        name() + (direction == Direction::kToSwitch ? "/c2s" : "/s2c");
    if (const auto fault = plan_->evaluate(
            fault::FaultSite::kControlChannelLoss, target)) {
      if (fault->fail) {
        countControlDrop(direction);
        return std::nullopt;
      }
      return options_.channelLatency + fault->stall;  // stall-only: delayed
    }
  }
  return options_.channelLatency;
}

void OpenFlowSwitch::receive(const Packet& packet, PortId inPort) {
  if (rebooting_) {
    // Data plane is down with the switch; TCP retransmission recovers.
    ES_TRACE("ofswitch", "%s rebooting: dropping %s", name().c_str(),
             packet.summary().c_str());
    return;
  }
  FlowEntry* entry = table_.lookup(packet, inPort, network().sim().now());
  if (entry == nullptr) {
    ++tableMisses_;
    ES_TRACE("ofswitch", "%s table-miss: %s", name().c_str(),
             packet.summary().c_str());
    sendPacketInToController(packet, inPort);
    return;
  }
  ++matched_;
  execute(packet, inPort, entry->actions);
}

void OpenFlowSwitch::execute(const Packet& packet, PortId inPort,
                             const ActionList& actions) {
  Packet rewritten = packet;
  if (applyActions(rewritten, actions)) {
    sendPacketInToController(packet, inPort);
  }
  for (const auto& action : actions) {
    const auto* output = std::get_if<OutputAction>(&action);
    if (output == nullptr || output->port == inPort) continue;  // no hairpin
    network().transmit(*this, output->port, rewritten);
  }
}

void OpenFlowSwitch::countEviction(const Packet& packet) {
  ++bufferEvictions_;
  if (metrics_ != nullptr && evictionCounter_ == nullptr) {
    evictionCounter_ = &metrics_->counter(
        "edgesim_switch_buffer_evictions_total", {{"switch", name()}});
  }
  if (evictionCounter_ != nullptr) evictionCounter_->add(1);
  if (trace_ != nullptr) {
    trace_->instant(0, "buffer_evict", "ofswitch", network().sim().now(),
                    {{"switch", name()}, {"packet", packet.header()}});
  }
}

void OpenFlowSwitch::sendPacketInToController(const Packet& packet,
                                              PortId inPort) {
  if (controller_ == nullptr) {
    ES_WARN("ofswitch", "%s: no controller attached; dropping %s",
            name().c_str(), packet.summary().c_str());
    return;
  }
  BufferId id = kNoBuffer;
  if (buffers_.size() < options_.maxBufferedPackets) {
    id = nextBufferId_++;
    buffers_.emplace(id, std::make_pair(packet, inPort));
    bufferOrder_.push_back(id);
  } else if (!bufferOrder_.empty()) {
    // Evict the oldest buffered packet (it will be retransmitted by TCP) --
    // counted and traced, because silent loss here hid real drops.
    const BufferId victim = bufferOrder_.front();
    bufferOrder_.pop_front();
    const auto vit = buffers_.find(victim);
    if (vit != buffers_.end()) {
      countEviction(vit->second.first);
      buffers_.erase(vit);
    }
    id = nextBufferId_++;
    buffers_.emplace(id, std::make_pair(packet, inPort));
    bufferOrder_.push_back(id);
  }
  ++packetIns_;
  const auto delay = controlDelay(Direction::kToController);
  if (!delay) return;  // PacketIn lost; the buffered packet waits or evicts
  PacketIn event{id, packet, inPort};
  network().sim().schedule(*delay, [this, event] {
    if (controller_ != nullptr) controller_->onPacketIn(*this, event);
  });
}

template <typename Take, typename Deliver>
void OpenFlowSwitch::roundTrip(Take take, Deliver deliver) {
  const auto request = controlDelay(Direction::kToSwitch);
  if (!request) return;  // request lost: `deliver` never runs
  network().sim().schedule(*request, [this, take = std::move(take),
                                      deliver = std::move(deliver)]() mutable {
    if (rebooting_) return;  // switch down when the request lands
    auto result = take();
    const auto reply = controlDelay(Direction::kToController);
    if (!reply) return;  // reply lost
    network().sim().schedule(
        *reply, [deliver = std::move(deliver), result = std::move(result)] {
          deliver(result);
        });
  });
}

void OpenFlowSwitch::requestFlowStats(StatsCallback cb) {
  ES_ASSERT(cb != nullptr);
  roundTrip([this] { return table_.snapshot(); }, std::move(cb));
}

void OpenFlowSwitch::requestFlowActivity(SimTime since, ActivityCallback cb) {
  ES_ASSERT(cb != nullptr);
  roundTrip(
      [this, since] {
        return std::make_pair(network().sim().now(),
                              table_.activeSince(since));
      },
      [cb = std::move(cb)](
          const std::pair<SimTime, std::vector<FlowActivity>>& reply) {
        cb(reply.first, reply.second);
      });
}

void OpenFlowSwitch::sendFlowMod(FlowEntry entry, FlowModAck ack) {
  const auto delay = controlDelay(Direction::kToSwitch);
  if (!delay) return;  // install lost: no state change, no ack
  network().sim().schedule(
      *delay, [this, entry = std::move(entry), ack = std::move(ack)]() mutable {
        if (rebooting_) return;  // arrived while the switch was down
        ES_TRACE("ofswitch", "%s flow-mod: prio=%u %s -> %s", name().c_str(),
                 entry.priority, entry.match.toString().c_str(),
                 actionsToString(entry.actions).c_str());
        table_.upsert(std::move(entry), network().sim().now());
        if (!ack) return;
        // Barrier-style acknowledgement: pays the return leg and its faults,
        // so a lost reply looks exactly like a lost install to the sender
        // (which is why retried FlowMods must be -- and are -- idempotent).
        const auto reply = controlDelay(Direction::kToController);
        if (!reply) return;
        network().sim().schedule(*reply, [ack = std::move(ack)] { ack(); });
      });
}

void OpenFlowSwitch::sendFlowRemove(const FlowMatch& match,
                                    std::uint64_t cookie) {
  const auto delay = controlDelay(Direction::kToSwitch);
  if (!delay) return;
  network().sim().schedule(*delay, [this, match, cookie] {
    if (rebooting_) return;
    table_.remove(match, cookie);
  });
}

void OpenFlowSwitch::sendPacketOut(BufferId bufferId, const Packet& packet,
                                   const ActionList& actions) {
  const auto delay = controlDelay(Direction::kToSwitch);
  if (!delay) return;  // buffered packet stays put until evicted
  network().sim().schedule(
      *delay, [this, bufferId, packet, actions] {
        if (rebooting_) return;
        Packet toSend = packet;
        PortId inPort = kInvalidPort;
        if (bufferId != kNoBuffer) {
          const auto it = buffers_.find(bufferId);
          if (it == buffers_.end()) {
            ES_DEBUG("ofswitch", "%s packet-out: stale buffer %u",
                     name().c_str(), bufferId);
            return;  // buffer evicted; TCP retransmission recovers
          }
          toSend = it->second.first;
          inPort = it->second.second;
          buffers_.erase(it);
          for (auto oit = bufferOrder_.begin(); oit != bufferOrder_.end();
               ++oit) {
            if (*oit == bufferId) {
              bufferOrder_.erase(oit);
              break;
            }
          }
        }
        execute(toSend, inPort, actions);
      });
}

}  // namespace edgesim::openflow
