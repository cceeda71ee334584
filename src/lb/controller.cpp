#include "lb/controller.h"

#include "lb/protocol_round.h"

namespace p2plb::lb {

namespace {

RoundStats stats_of(const BalanceReport& report) {
  RoundStats stats;
  stats.heavy_before = report.before.heavy_count;
  stats.heavy_after = report.after.heavy_count;
  stats.transfers = report.transfers_applied;
  stats.moved_load = report.vsa.assigned_load();
  stats.unassigned = report.vsa.unassigned_heavy.size();
  stats.messages = report.phase(Phase::kAggregation).messages +
                   report.phase(Phase::kDissemination).messages +
                   report.phase(Phase::kVsa).messages;
  stats.completion_time = report.completion_time;
  stats.phases = report.phases;
  return stats;
}

/// Shared loop: `run_round` produces one finished BalanceReport.
template <typename RunRound>
ControllerResult run_until_stable(const ControllerConfig& config,
                                  RunRound&& run_round) {
  P2PLB_REQUIRE(config.max_rounds >= 1);
  ControllerResult result;
  for (std::uint32_t round = 0; round < config.max_rounds; ++round) {
    const BalanceReport report = run_round();
    result.rounds.push_back(stats_of(report));
    if (report.after.heavy_count == 0) {
      result.converged = true;
      break;
    }
    if (report.transfers_applied == 0) break;  // stagnation
  }
  return result;
}

}  // namespace

ControllerResult balance_until_stable(chord::Ring& ring,
                                      const ControllerConfig& config,
                                      Rng& rng,
                                      std::span<const chord::Key> node_keys) {
  return run_until_stable(config, [&] {
    return run_balance_round(ring, config.balancer, rng, node_keys);
  });
}

ControllerResult balance_until_stable(sim::Network& net, chord::Ring& ring,
                                      const ControllerConfig& config,
                                      Rng& rng,
                                      std::span<const chord::Key> node_keys) {
  return run_until_stable(config, [&] {
    ProtocolRound round(net, ring, {config.balancer}, rng, node_keys);
    round.start();
    net.engine().run();
    P2PLB_ASSERT_MSG(round.done(), "timed round did not drain");
    return round.report();
  });
}

}  // namespace p2plb::lb
