// Allocation contract of the sharded store's views: building every
// country's national, international and outbound view allocates fewer
// times than the paths those views contain (shard views borrow their
// columns and precomputed index lists), while the copy-based span
// filter allocates at least once per copied AS path.
//
// This file replaces the global operator new with a counting one, so it
// is built as its own test binary: no other test runs instrumented.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>

#include "core/sharded_path_store.hpp"
#include "core/views.hpp"
#include "gen/internet_generator.hpp"
#include "gen/rib_generator.hpp"
#include "gen/scenarios.hpp"
#include "sanitize/path_sanitizer.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

// noinline keeps GCC from pairing the inlined malloc/free with the
// new/delete expressions and warning about the (intentional) mismatch.
[[gnu::noinline]] void* counted_malloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void counted_free(void* p) { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace georank::core {
namespace {

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

constexpr ViewKind kKinds[] = {ViewKind::kNational, ViewKind::kInternational,
                               ViewKind::kOutbound};

CountryView copy_view(std::span<const sanitize::SanitizedPath> paths,
                      geo::CountryCode cc, ViewKind kind) {
  switch (kind) {
    case ViewKind::kInternational: return ViewBuilder::international(paths, cc);
    case ViewKind::kOutbound: return ViewBuilder::outbound(paths, cc);
    case ViewKind::kNational: break;
  }
  return ViewBuilder::national(paths, cc);
}

TEST(ViewAllocations, ShardViewsAllocateFewerTimesThanTheirPaths) {
  const gen::World world =
      gen::InternetGenerator{gen::mini_world_spec(5)}.generate();
  sanitize::SanitizerOptions options;
  options.clique = world.clique;
  options.route_server_asns = world.route_servers;
  const sanitize::SanitizeResult sanitized =
      sanitize::PathSanitizer{world.geo_db, world.vps, world.asn_registry,
                              options}
          .run(gen::RibGenerator{world, gen::NoiseSpec{}, 7}.generate(5));
  const std::span<const sanitize::SanitizedPath> paths{sanitized.paths};
  const ShardedPathStore store{paths};
  const std::vector<geo::CountryCode>& countries = store.countries();
  ASSERT_FALSE(countries.empty());

  std::size_t view_paths = 0;
  const std::uint64_t a0 = allocs();
  for (geo::CountryCode cc : countries) {
    for (ViewKind kind : kKinds) view_paths += store.view(cc, kind).size();
  }
  const std::uint64_t shard_allocs = allocs() - a0;

  std::size_t copied_paths = 0;
  const std::uint64_t b0 = allocs();
  for (geo::CountryCode cc : countries) {
    for (ViewKind kind : kKinds) copied_paths += copy_view(paths, cc, kind).size();
  }
  const std::uint64_t copy_allocs = allocs() - b0;

  ASSERT_GT(view_paths, 0u);
  EXPECT_EQ(copied_paths, view_paths);
  EXPECT_LT(shard_allocs, view_paths)
      << "building every shard view allocated per contained path";
  EXPECT_GT(copy_allocs, shard_allocs)
      << "shard views allocated no less than the copy-based filter";
}

}  // namespace
}  // namespace georank::core
