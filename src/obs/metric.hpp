// Self-binding metric handles: how components write metrics. A component
// holds one handle per metric as a member, constructed with the metric's
// name, and passes the registry (or the SpanContext carrying it) at each
// write. The handle remembers the registry it last wrote to and its slot
// there; handed a different registry (set_obs, a per-shard registry), it
// registers its name there first, so every write lands under the
// component's own names whichever registry it reaches. A null registry
// writes nothing: an uninstrumented run pays one null test per write.
//
// A handle keeps a literal name as a pointer (no copy, no allocation) and
// owns a composed one ("client." + transport + ".queries"); it can move but
// not be copied. A registry must outlive the writes made to it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace dohperf::obs {

/// The name and current binding shared by the three handle kinds.
template <MetricKind Kind>
class MetricHandle {
 public:
  /// `name` must outlive the handle (a string literal does).
  explicit MetricHandle(const char* name) noexcept : name_(name) {}
  explicit MetricHandle(std::string name)
      : owned_(std::make_unique<const std::string>(std::move(name))),
        name_(owned_->c_str()) {}

 protected:
  /// This name's slot in `registry`, registering it there on first use.
  MetricId slot(Registry& registry) const {
    if (&registry != bound_) [[unlikely]] bind(registry);
    return id_;
  }

 private:
  /// Register the name in `registry` and remember its slot (out of line:
  /// it runs once per registry, and every write site inlines slot()).
  void bind(Registry& registry) const;

  // The binding is a cache of the name's slot, so writes stay const.
  mutable Registry* bound_ = nullptr;
  mutable MetricId id_;
  std::unique_ptr<const std::string> owned_;  ///< a composed name's storage
  const char* name_;
};

// The Registry* writes are always inlined: each is a null test, a compare
// and a slot update, and GCC otherwise calls out of line from large
// callers such as RecursiveTier::handle.
class CounterHandle final : public MetricHandle<MetricKind::kCounter> {
 public:
  using MetricHandle::MetricHandle;

  [[gnu::always_inline]] void add(Registry* registry,
                                  std::uint64_t delta = 1) const {
    if (registry != nullptr) registry->add(slot(*registry), delta);
  }
  void add(const SpanContext& obs, std::uint64_t delta = 1) const {
    add(obs.metrics, delta);
  }
};

class GaugeHandle final : public MetricHandle<MetricKind::kGauge> {
 public:
  using MetricHandle::MetricHandle;

  [[gnu::always_inline]] void set(Registry* registry,
                                  std::int64_t value) const {
    if (registry != nullptr) registry->set_gauge(slot(*registry), value);
  }
  void set(const SpanContext& obs, std::int64_t value) const {
    set(obs.metrics, value);
  }
};

class HistogramHandle final : public MetricHandle<MetricKind::kHistogram> {
 public:
  using MetricHandle::MetricHandle;

  [[gnu::always_inline]] void observe(Registry* registry,
                                      double value) const {
    if (registry != nullptr) registry->observe(slot(*registry), value);
  }
  void observe(const SpanContext& obs, double value) const {
    observe(obs.metrics, value);
  }
};

}  // namespace dohperf::obs
