#include "reference_kernel.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

namespace grid_e2e {
namespace {

struct XorShift {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

volatile std::uint64_t g_sink = 0;  // keeps the kernel's result observable

// The kernel's own memory: ~180 KiB are used, well inside a core's L2.
alignas(64) std::byte g_arena[256 * 1024];

/// One pass of the kernel. Every node and string comes from g_arena, laid
/// out from its start on each pass; null_memory_resource() as upstream
/// makes an overflow throw instead of falling back to the process heap.
std::uint64_t kernel_pass() {
  std::pmr::monotonic_buffer_resource arena{g_arena, sizeof g_arena,
                                            std::pmr::null_memory_resource()};
  XorShift rng;
  std::uint64_t acc = 0;
  std::pmr::map<std::uint64_t, std::uint64_t> map{&arena};
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t v = rng.next();
    map[v % 100'003] = v;
  }
  for (int i = 0; i < 6'000; ++i) {
    const auto it = map.lower_bound(rng.next() % 100'003);
    if (it != map.end()) acc += it->second;
  }
  std::pmr::vector<std::pmr::string> words{&arena};
  words.reserve(1'500);
  char digits[24];
  for (int i = 0; i < 1'500; ++i) {
    const auto end = std::to_chars(digits, digits + sizeof digits, rng.next()).ptr;
    words.emplace_back(digits, end);
  }
  std::sort(words.begin(), words.end());
  return acc + words.front().size();
}

}  // namespace

double reference_kernel_s() {
  // The untimed pass loads the arena into this core's caches, so the timed
  // pass does not depend on what the program last touched.
  g_sink = g_sink + kernel_pass();
  const auto start = std::chrono::steady_clock::now();
  g_sink = g_sink + kernel_pass();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void SpeedGauge::probe() {
  kernel_s += reference_kernel_s();
  ++samples;
}

double SpeedGauge::scale() const {
  if (samples == 0 || kernel_s <= 0.0) return 1.0;
  return kReferenceKernelS * samples / kernel_s;
}

}  // namespace grid_e2e
