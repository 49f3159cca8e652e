// Concurrency property test for the topology caches a platform shares with
// its copies, at a size where every lazily built structure is exercised:
//
//  * several reader threads fill the HopCache rows and the diameter of one
//    32x32 mesh at once (one call_once per row, the atomic creation race of
//    the cache pointer itself);
//  * each reader also admits applications on a private copy of the mesh,
//    which shares that cache and runs the admission hot path's thread-local
//    scratch pools (snapshot buffers, scratch availability index, router
//    frontiers, validation memo);
//  * meanwhile an editor thread adds a link to its own copy, which swaps
//    that copy's cache pointer out (the atomic shared_ptr store) while the
//    readers keep using the shared one.
//
// Every row a reader sees must equal a fresh BFS of the unedited mesh, and
// the edited copy must see its own new distances. The ctest label is
// "property", so the ThreadSanitizer CI lane runs it.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/generator.hpp"
#include "platform/builders.hpp"
#include "util/rng.hpp"

namespace kairos::platform {
namespace {

constexpr int kWidth = 32;

TEST(HopCachePropertyTest, ConcurrentReadersAndATopologyEditAgree) {
  BuilderConfig dsp_mesh;
  dsp_mesh.element_type = ElementType::kDsp;
  const Platform mesh = make_mesh(kWidth, kWidth, dsp_mesh);
  const ElementId first{0};
  const ElementId last{kWidth * kWidth - 1};

  // Expected rows from the uncached BFS, for corners, centre and a sample.
  std::vector<ElementId> sources = {first, ElementId{kWidth - 1},
                                    ElementId{kWidth * kWidth / 2 + 7}, last};
  util::Xoshiro256 rng(0x40C);
  for (int i = 0; i < 12; ++i) {
    sources.push_back(ElementId{
        static_cast<std::int32_t>(rng.uniform_int(0, kWidth * kWidth - 1))});
  }
  std::vector<std::vector<int>> expected;
  for (const ElementId source : sources) {
    expected.push_back(mesh.hop_distances_from(source));
  }

  constexpr int kReaders = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Readers start at different sources so cold rows are raced.
      for (std::size_t k = 0; k < sources.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(r) * 3) %
                              sources.size();
        if (mesh.hop_row(sources[i]) != expected[i]) ++mismatches;
      }
      if (mesh.diameter() != 2 * (kWidth - 1)) ++mismatches;

      Platform copy = mesh;
      if (copy.hop_cache() != mesh.hop_cache()) ++mismatches;
      core::KairosConfig config;
      config.weights = {2.0, 50.0};
      core::ResourceManager manager(copy, config);
      gen::GeneratorConfig gen_config;
      gen_config.target = ElementType::kDsp;
      gen_config.io_on_boundary = false;
      gen_config.internal_tasks = 6;
      util::Xoshiro256 app_rng(0xA00 + static_cast<std::uint64_t>(r));
      std::vector<core::AppHandle> live;
      for (int a = 0; a < 6; ++a) {
        const auto report = manager.admit(gen::generate_application(
            gen_config, app_rng, "r" + std::to_string(r)));
        if (report.admitted) {
          ++admitted;
          live.push_back(report.handle);
        }
      }
      for (const core::AppHandle handle : live) {
        if (!manager.remove(handle).ok()) ++mismatches;
      }
      if (!copy.invariants_hold()) ++mismatches;
    });
  }
  threads.emplace_back([&] {
    Platform edited = mesh;
    // Warm a shared row through the copy, then edit the copy's topology.
    if (edited.hop_row(first)[static_cast<std::size_t>(last.value)] !=
        2 * (kWidth - 1)) {
      ++mismatches;
    }
    edited.add_duplex_link(first, last, 4, 1000);
    if (edited.hop_cache() == mesh.hop_cache()) ++mismatches;
    if (edited.hop_row(first)[static_cast<std::size_t>(last.value)] != 1) {
      ++mismatches;
    }
    if (edited.hop_row(first) != edited.hop_distances_from(first)) {
      ++mismatches;
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(admitted.load(), 0);
  // The shared cache is untouched by the edit made on the copy.
  EXPECT_EQ(mesh.hop_row(first), expected.front());
}

}  // namespace
}  // namespace kairos::platform
