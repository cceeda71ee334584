#include "workload/load_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace p2plb::workload {

LoadModel LoadModel::gaussian(double mean_total, double stddev_total) {
  P2PLB_REQUIRE(mean_total > 0.0);
  P2PLB_REQUIRE(stddev_total >= 0.0);
  LoadModel m;
  m.distribution = LoadDistribution::kGaussian;
  m.mean_total = mean_total;
  m.stddev_total = stddev_total;
  return m;
}

LoadModel LoadModel::pareto(double mean_total, double alpha) {
  P2PLB_REQUIRE(mean_total > 0.0);
  P2PLB_REQUIRE_MSG(alpha > 1.0, "Pareto needs alpha > 1 for a finite mean");
  LoadModel m;
  m.distribution = LoadDistribution::kPareto;
  m.mean_total = mean_total;
  m.pareto_alpha = alpha;
  return m;
}

std::string LoadModel::name() const {
  switch (distribution) {
    case LoadDistribution::kGaussian:
      return "gaussian";
    case LoadDistribution::kPareto:
      return "pareto";
  }
  return "unknown";
}

double sample_load(const LoadModel& model, double f, Rng& rng) {
  P2PLB_REQUIRE_MSG(f > 0.0 && f <= 1.0,
                    "arc fraction must lie in (0, 1]");
  switch (model.distribution) {
    case LoadDistribution::kGaussian: {
      const double draw =
          rng.normal(model.mean_total * f, model.stddev_total * std::sqrt(f));
      return std::max(0.0, draw);
    }
    case LoadDistribution::kPareto: {
      // Pareto(alpha, xm) has mean alpha*xm/(alpha-1); solve for xm so the
      // mean equals mean_total * f.
      const double mean = model.mean_total * f;
      const double xm = mean * (model.pareto_alpha - 1.0) / model.pareto_alpha;
      return rng.pareto(model.pareto_alpha, xm);
    }
  }
  throw PreconditionError("unknown load distribution");
}

void assign_loads(chord::Ring& ring, const LoadModel& model, Rng& rng) {
  // Snapshot ids first: set_load does not reorder, but be explicit about
  // iterating a stable sequence.  The snapshot is in ring order, so each
  // id's predecessor is the entry before it (the last one for the first)
  // and its arc needs no ring search: Ring::arc_fraction's arithmetic,
  // bit for bit.
  const std::vector<chord::Key> ids = ring.server_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const chord::Key pred = ids[i == 0 ? ids.size() - 1 : i - 1];
    const std::uint64_t arc = ids.size() == 1
                                  ? chord::kSpaceSize
                                  : chord::distance_cw(pred, ids[i]);
    ring.set_load(ids[i],
                  sample_load(model,
                              static_cast<double>(arc) /
                                  static_cast<double>(chord::kSpaceSize),
                              rng));
  }
}

}  // namespace p2plb::workload
