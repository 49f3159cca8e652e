// Observability decorator for mapping strategies.
//
// mappers::make() wraps every constructed strategy in an InstrumentedMapper,
// so each strategy gets call / failure / cancellation counters and a
// map-latency histogram for free:
//
//   mapper.<name>.map_calls      counter, one per map() invocation
//   mapper.<name>.map_failures   counter, map() returned infeasible
//   mapper.<name>.map_cancelled  counter, the StopToken was tripped by the
//                                time map() returned (portfolio early-cancel)
//   mapper.<name>.map_time_ms    histogram of map() wall-clock
//
// Because the portfolio meta-mapper builds its inner strategies through the
// registry too, the per-strategy timing *inside* a portfolio race is
// recorded with no extra wiring — each racer's own wrapper reports it.
//
// The wrapper is transparent: name() and the MappingResult pass through
// untouched, so regression pins (bit-identical SA trajectories etc.) see
// exactly the inner strategy's behaviour.
#pragma once

#include <memory>

#include "mappers/mapper.hpp"
#include "obs/metrics.hpp"

namespace kairos::obs {

class InstrumentedMapper final : public mappers::Mapper {
 public:
  /// Wraps `inner` (must not be null); metric handles are resolved once
  /// here, so map() itself never takes the registry lock.
  explicit InstrumentedMapper(std::shared_ptr<mappers::Mapper> inner);

  std::string name() const override { return inner_->name(); }

  using Mapper::map;
  core::MappingResult map(const graph::Application& app,
                          const std::vector<int>& impl_of,
                          const core::PinTable& pins,
                          platform::Platform& platform,
                          const mappers::StopToken& stop) const override;

  /// The wrapped strategy (tests unwrap through this).
  const std::shared_ptr<mappers::Mapper>& inner() const { return inner_; }

 private:
  std::shared_ptr<mappers::Mapper> inner_;
  Counter map_calls_;
  Counter map_failures_;
  Counter map_cancelled_;
  Histogram map_time_ms_;
};

}  // namespace kairos::obs
