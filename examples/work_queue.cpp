// work_queue: the container concepts through the type-erased facades —
// an MS queue as a producer/consumer work channel, with the stack and the
// deque driven through the same facade to show that one guard discipline
// serves all three shapes (DESIGN.md §11).
//
//   ./examples/work_queue            # default scheme: HLN
//   ./examples/work_queue HPopt
//
// Schemes: NR EBR HP HPopt HE IBR HLN (scot::scheme_from_name).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "scot.hpp"

int main(int argc, char** argv) {
  using namespace scot;

  SchemeId scheme = SchemeId::kHLN;
  if (argc > 1) {
    const auto s = scheme_from_name(argv[1]);
    if (!s) {
      std::fprintf(stderr, "unknown scheme '%s' (try NR EBR HP HPopt HE IBR "
                   "HLN)\n", argv[1]);
      return 2;
    }
    scheme = *s;
  }

  constexpr unsigned kProducers = 2, kConsumers = 2;
  constexpr std::uint64_t kJobs = 50000;  // per producer
  AnyContainerOptions options;
  options.smr.max_threads = kProducers + kConsumers;

  // --- the queue as a work channel ------------------------------------------
  auto queue = AnyQueue::make(scheme, StructureId::kMSQueue, options);
  if (!queue) {
    std::fprintf(stderr, "AnyQueue::make has no cell for %s/MSQueue\n",
                 scheme_name(scheme));
    return 1;
  }
  std::printf("work channel: %s over %s\n", queue->container().structure_name(),
              queue->container().scheme_name());

  std::atomic<unsigned> producers_left{kProducers};
  std::atomic<std::uint64_t> consumed{0}, checksum{0};
  std::vector<std::thread> workers;
  for (unsigned p = 0; p < kProducers; ++p) {
    workers.emplace_back([&, p] {
      auto session = queue->session();  // joins the domain; leaves at exit
      for (std::uint64_t i = 0; i < kJobs; ++i)
        session.enqueue((static_cast<std::uint64_t>(p) << 32) | i);
      producers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    workers.emplace_back([&] {
      auto session = queue->session();
      for (;;) {
        if (const auto job = session.dequeue()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          checksum.fetch_add(*job & 0xffffffffu, std::memory_order_relaxed);
        } else if (producers_left.load(std::memory_order_acquire) == 0) {
          // One more look: the last producer's jobs were linked before the
          // counter hit zero.
          const auto last = session.dequeue();
          if (!last) break;
          consumed.fetch_add(1, std::memory_order_relaxed);
          checksum.fetch_add(*last & 0xffffffffu, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::uint64_t expect_sum =
      kProducers * (kJobs * (kJobs - 1) / 2);  // sum of sequence numbers
  std::printf("  consumed %llu/%llu jobs, checksum %s\n",
              static_cast<unsigned long long>(consumed.load()),
              static_cast<unsigned long long>(kProducers * kJobs),
              checksum.load() == expect_sum ? "ok" : "MISMATCH");
  std::printf("  restarts %llu, recoveries (help-swing-tail) %llu\n",
              static_cast<unsigned long long>(queue->restarts()),
              static_cast<unsigned long long>(queue->recoveries()));

  // --- same facade, other shapes --------------------------------------------
  // A stack for undo-style LIFO scratch work...
  auto stack = AnyStack::make(scheme, StructureId::kTreiberStack, options);
  {
    auto session = stack->session();
    for (std::uint64_t i = 0; i < 4; ++i) session.push(i);
    std::printf("stack pops (LIFO): ");
    while (const auto v = session.pop())
      std::printf("%llu ", static_cast<unsigned long long>(*v));
    std::printf("— recoveries %llu (always 0 by construction)\n",
                static_cast<unsigned long long>(stack->recoveries()));
  }

  // ...and the deque as a double-ended buffer: feed one end, steal from both.
  auto deque = AnyDeque::make(scheme, StructureId::kDeque, options);
  {
    auto session = deque->session();
    for (std::uint64_t i = 0; i < 6; ++i) session.push_right(i);
    const auto l0 = *session.pop_left(), l1 = *session.pop_left();
    const auto r0 = *session.pop_right(), r1 = *session.pop_right();
    std::printf("deque: pop_left %llu %llu, pop_right %llu %llu\n",
                static_cast<unsigned long long>(l0),
                static_cast<unsigned long long>(l1),
                static_cast<unsigned long long>(r0),
                static_cast<unsigned long long>(r1));
  }
  return 0;
}
