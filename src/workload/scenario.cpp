#include "workload/scenario.h"

#include <cmath>

#include "common/error.h"

namespace p2plb::workload {

chord::Ring build_ring(std::size_t node_count, std::size_t servers_per_node,
                       const CapacityProfile& capacities, Rng& rng,
                       std::span<const std::uint32_t> attachments) {
  P2PLB_REQUIRE(node_count >= 1);
  P2PLB_REQUIRE(servers_per_node >= 1);
  P2PLB_REQUIRE_MSG(attachments.empty() || attachments.size() == node_count,
                    "need one attachment vertex per node");
  chord::Ring ring;
  ring.reserve_servers(node_count * servers_per_node);
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::uint32_t attach =
        attachments.empty() ? chord::Node::kNoAttachment : attachments[i];
    const chord::NodeIndex node =
        ring.add_node(capacities.sample(rng), attach);
    for (std::size_t v = 0; v < servers_per_node; ++v)
      (void)ring.add_random_virtual_server(node, rng);
  }
  return ring;
}

LoadModel scaled_load_model(const chord::Ring& ring,
                            LoadDistribution distribution, double utilization,
                            double cv, double pareto_alpha) {
  P2PLB_REQUIRE(utilization > 0.0);
  P2PLB_REQUIRE(cv >= 0.0);
  const double mean_total = utilization * ring.total_capacity();
  P2PLB_REQUIRE_MSG(mean_total > 0.0, "ring has no capacity");
  if (distribution == LoadDistribution::kPareto)
    return LoadModel::pareto(mean_total, pareto_alpha);
  P2PLB_REQUIRE_MSG(ring.virtual_server_count() > 0,
                    "ring has no virtual servers");
  const double stddev_total =
      cv * mean_total /
      std::sqrt(static_cast<double>(ring.virtual_server_count()));
  return LoadModel::gaussian(mean_total, stddev_total);
}

}  // namespace p2plb::workload
