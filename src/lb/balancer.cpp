#include "lb/balancer.h"

#include "common/error.h"
#include "lb/protocol_round.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb::lb {

BalanceReport run_balance_round(chord::Ring& ring,
                                const BalancerConfig& config, Rng& rng,
                                std::span<const chord::Key> node_keys) {
  // The same protocol the timed path runs, on a private network whose
  // every hop is free: the engine drains at t=0, so the report carries
  // real message/byte counts but zero times.
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint, sim::Endpoint) { return 0.0; });
  ProtocolRound round(net, ring, {config}, rng, node_keys);
  round.start();
  engine.run();
  P2PLB_ASSERT_MSG(round.done(), "zero-latency round did not drain");
  return round.report();
}

}  // namespace p2plb::lb
