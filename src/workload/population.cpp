#include "workload/population.hpp"

#include "stats/rng.hpp"

namespace dohperf::workload {

PopulationWorkload::PopulationWorkload(PopulationConfig config)
    : config_(std::move(config)) {}

dns::Name PopulationWorkload::name_for(std::size_t rank) const {
  // Appended, not `"w" + ...`: prepending a literal trips a GCC 12
  // -Wrestrict false positive inside std::string.
  std::string name = "w";
  name.append(std::to_string(rank)).append(".").append(config_.base_domain);
  return dns::Name::parse(name);
}

std::vector<QueryEvent> PopulationWorkload::generate() const {
  std::vector<QueryEvent> events;
  stats::PoissonArrivals arrivals(config_.rate_qps, config_.seed);
  stats::ZipfSampler zipf(config_.names, config_.zipf_exponent,
                          config_.seed ^ 0x9e3779b97f4a7c15ULL);
  stats::SplitMix64 pick(config_.seed ^ 0xc2b2ae3d27d4eb4fULL);

  double t_sec = 0.0;
  const double horizon = simnet::to_sec(config_.duration);
  for (;;) {
    t_sec += arrivals.next_gap_sec();
    if (t_sec >= horizon) break;
    QueryEvent event;
    event.at = simnet::from_sec(t_sec);
    // Hot tenant: client 0 takes `hot_client_share` of the load outright;
    // the remainder spreads uniformly over the whole population.
    if (config_.hot_client_share > 0.0 &&
        pick.next_double() < config_.hot_client_share) {
      event.client = 0;
    } else {
      event.client = pick.next_below(config_.clients);
    }
    event.name_rank = zipf.sample(pick);
    events.push_back(event);
  }
  return events;
}

}  // namespace dohperf::workload
