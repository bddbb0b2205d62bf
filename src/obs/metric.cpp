#include "obs/metric.hpp"

namespace dohperf::obs {

template <MetricKind Kind>
void MetricHandle<Kind>::bind(Registry& registry) const {
  if constexpr (Kind == MetricKind::kCounter) {
    id_ = registry.register_counter(name_);
  } else if constexpr (Kind == MetricKind::kGauge) {
    id_ = registry.register_gauge(name_);
  } else {
    id_ = registry.register_histogram(name_);
  }
  bound_ = &registry;
}

template class MetricHandle<MetricKind::kCounter>;
template class MetricHandle<MetricKind::kGauge>;
template class MetricHandle<MetricKind::kHistogram>;

}  // namespace dohperf::obs
