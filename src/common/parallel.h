#ifndef VAQ_COMMON_PARALLEL_H_
#define VAQ_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace vaq {

/// The library's thread-count rule: 0 = hardware concurrency (at least 1).
inline size_t ResolveThreadCount(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Calls fn(begin, end) over contiguous chunks of [0, n), one chunk per
/// thread, at most ResolveThreadCount(num_threads) chunks. One thread
/// runs fn(0, n) inline. Otherwise the calling thread runs the first chunk
/// and fresh std::threads run the rest; all are joined before returning.
///
/// Deliberately not the query ThreadPool: that pool's admission control
/// and shared workers serve queries, and a training call made from inside
/// a pool task must not wait on the pool it occupies.
template <typename Fn>
void ParallelFor(size_t n, size_t num_threads, const Fn& fn) {
  const size_t threads =
      std::min(ResolveThreadCount(num_threads), std::max<size_t>(1, n));
  if (threads == 1) {
    fn(size_t{0}, n);
    return;
  }
  const size_t chunk = (n + threads - 1) / threads;
  std::vector<std::thread> workers;
  workers.reserve(threads - 1);
  auto join_all = [&workers] {
    for (std::thread& worker : workers) worker.join();
  };
  try {
    for (size_t begin = chunk; begin < n; begin += chunk) {
      const size_t end = std::min(n, begin + chunk);
      workers.emplace_back([&fn, begin, end] { fn(begin, end); });
    }
    fn(size_t{0}, chunk);
  } catch (...) {
    join_all();
    throw;
  }
  join_all();
}

}  // namespace vaq

#endif  // VAQ_COMMON_PARALLEL_H_
