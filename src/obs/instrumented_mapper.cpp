#include "obs/instrumented_mapper.hpp"

#include <cassert>

#include "obs/trace.hpp"

namespace kairos::obs {

InstrumentedMapper::InstrumentedMapper(std::shared_ptr<mappers::Mapper> inner)
    : inner_(std::move(inner)) {
  assert(inner_ != nullptr);
  Registry& registry = Registry::global();
  const std::string prefix = "mapper." + inner_->name() + ".";
  map_calls_ = registry.counter(prefix + "map_calls");
  map_failures_ = registry.counter(prefix + "map_failures");
  map_cancelled_ = registry.counter(prefix + "map_cancelled");
  map_time_ms_ = registry.histogram(prefix + "map_time_ms");
}

core::MappingResult InstrumentedMapper::map(const graph::Application& app,
                                            const std::vector<int>& impl_of,
                                            const core::PinTable& pins,
                                            platform::Platform& platform,
                                            const mappers::StopToken& stop)
    const {
  Span span("map." + inner_->name());
  const core::MappingResult result =
      inner_->map(app, impl_of, pins, platform, stop);
  map_time_ms_.record(span.elapsed_ms());
  map_calls_.add(1);
  if (!result.ok) map_failures_.add(1);
  // Tripped token at return time: either the caller cancelled mid-run or a
  // portfolio race declared another racer the winner — both are "this call
  // was cut short", the quantity the portfolio tuning needs.
  if (stop.stop_requested()) map_cancelled_.add(1);
  return result;
}

}  // namespace kairos::obs
