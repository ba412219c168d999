// any_map_runtime: pick the reclamation scheme AND the data structure from
// the command line — no templates at the call site, no rebuild per
// combination.  This is the scot::AnyMap facade: one virtual hop per
// operation, the fully typed SCOT traversal (protect() fast path included)
// inside it.
//
//   ./examples/any_map_runtime                 # defaults: HLN SkipList
//   ./examples/any_map_runtime EBR tree
//   ./examples/any_map_runtime HPopt listlf
//
// Schemes: NR EBR HP HPopt HE IBR HLN (scot::scheme_from_name).
// Structures: paper CLI modes (listlf listwf listhm tree hash skip skiphs)
// or map structure names (HList, NMTree, ...) — both spellings resolve
// through the same core/registry.hpp tables.  Queue, stack, deque and kv
// structures are not maps and are rejected as usage errors.
#include <cstdio>
#include <thread>
#include <vector>

#include "scot.hpp"

int main(int argc, char** argv) {
  using namespace scot;

  SchemeId scheme = SchemeId::kHLN;
  StructureId structure = StructureId::kSkipList;
  if (argc > 1) {
    const auto s = scheme_from_name(argv[1]);
    if (!s) {
      std::fprintf(stderr, "unknown scheme '%s' (try NR EBR HP HPopt HE IBR "
                   "HLN)\n", argv[1]);
      return 2;
    }
    scheme = *s;
  }
  if (argc > 2) {
    auto d = structure_from_mode(argv[2]);
    if (!d) d = structure_from_name(argv[2]);
    if (!d || container_kind(*d) != ContainerKind::kMap) {
      std::fprintf(stderr, "%s structure '%s' (try listlf listwf listhm "
                   "tree hash skip skiphs, or a map name:",
                   d ? "not a map" : "unknown", argv[2]);
      for (StructureId m : kAllStructures) {
        std::fprintf(stderr, " %s", scot::structure_name(m));
      }
      for (StructureId m : kAblationStructures) {
        std::fprintf(stderr, " %s", scot::structure_name(m));
      }
      std::fprintf(stderr, ")\n");
      return 2;
    }
    structure = *d;
  }

  constexpr unsigned kThreads = 4;
  AnyMapOptions options;
  options.smr.max_threads = kThreads;
  auto map = AnyMap::make(scheme, structure, options);
  if (!map) {
    std::fprintf(stderr, "AnyMap::make has no cell for %s/%s\n",
                 scheme_name(scheme), structure_name(structure));
    return 1;
  }
  std::printf("running %s over %s (%s)\n", map->structure_name(),
              map->scheme_name(),
              scheme_info(scheme).robust ? "robust" : "not robust");

  // Same workload as quickstart, selected entirely at runtime.  Each worker
  // opens a Session — an RAII membership in the scheme's dynamic handle
  // registry — instead of being handed a fixed tid; threads may come and go
  // for the life of the map (a second wave below reuses the same records).
  auto wave = [&map](unsigned threads, unsigned rounds) {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&map, t, rounds] {
        auto session = map->session();  // joins; leaves at scope exit
        for (std::uint64_t i = 0; i < rounds; ++i) {
          const std::uint64_t k = (i * 31 + t) % 512;
          if (i % 3 == 0) {
            session.erase(k);
          } else {
            session.insert(k, k);
          }
          session.contains((k * 7) % 512);
        }
      });
    }
    for (auto& w : workers) w.join();
  };
  wave(kThreads, 10000);
  wave(kThreads, 10000);  // fresh threads, recycled handle records

  std::printf("final size        = %zu\n", map->size_unsafe());
  std::printf("retired, unfreed  = %lld\n",
              static_cast<long long>(map->pending_nodes()));
  std::printf("traversal restarts= %llu (recoveries %llu)\n",
              static_cast<unsigned long long>(map->restarts()),
              static_cast<unsigned long long>(map->recoveries()));
  std::printf("handle records    = %zu (active now %u)\n",
              map->total_handle_records(), map->active_handles());
  return 0;
}
