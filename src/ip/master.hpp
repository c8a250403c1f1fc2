// Bus master base: what every traffic source (processor, DMA engine,
// scripted or attack master) shares.
#pragma once

#include <string>
#include <utility>

#include "bus/ports.hpp"
#include "sim/component.hpp"

namespace secbus::ip {

// A component that issues transactions through one master endpoint and
// knows when its work is finished. Soc::run reports a run completed when the
// kernel went idle with every master done().
class Master : public sim::Component {
 public:
  Master(std::string name, sim::MasterId id)
      : Component(std::move(name)), id_(id) {}

  // Connects the master to its interface (a Local Firewall's ip_side in a
  // secured SoC, or a raw bus endpoint in the unsecured baseline) and makes
  // it the consumer of its responses. A response counts as arrived from its
  // ready cycle on (TransactionChannel::ready), not from its push.
  void connect(bus::MasterEndpoint& endpoint) noexcept {
    port_ = &endpoint;
    port_->response.set_consumer(*this);
  }

  // True once the master has nothing left to issue or to wait for.
  [[nodiscard]] virtual bool done() const noexcept = 0;

 protected:
  sim::MasterId id_;
  bus::MasterEndpoint* port_ = nullptr;
};

}  // namespace secbus::ip
