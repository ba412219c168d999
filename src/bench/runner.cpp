// run_case: builds the (scheme, structure) cell through the concept's
// type-erased facade and feeds it to the matching per-concept measured loop,
// dispatching on container_kind(cfg.structure).  This single translation
// unit replaces the seven per-scheme runner_<scheme>.cpp TUs the harness
// used to need for compile-time scheme selection.
#include "bench/runner.hpp"

#include <cstdio>
#include <cstdlib>

#include "bench/runner_impl.hpp"
#include "core/any_container.hpp"
#include "core/any_map.hpp"

namespace scot::bench {

namespace {

CaseResult run_one_any_map(const CaseConfig& cfg, std::uint64_t run_seed) {
  AnyMapOptions options;
  options.smr = detail::smr_config_for(cfg);
  options.hash_buckets = detail::bucket_count_for(cfg);
  auto map = AnyMap::make(cfg.scheme, cfg.structure, options);
  if (!map) {
    // A map structure without a case in AnyMap's make_cell() switch.
    // Printing a fake 0.0-Mops cell would poison the figure tables, so fail
    // loudly instead.
    std::fprintf(stderr, "run_case: AnyMap::make has no cell for %s/%s\n",
                 scheme_name(cfg.scheme), structure_name(cfg.structure));
    std::exit(2);
  }
  return detail::run_one_map(*map, cfg, run_seed);
}

CaseResult run_one_any_container(const CaseConfig& cfg,
                                 std::uint64_t run_seed) {
  AnyContainerOptions options;
  options.smr = detail::smr_config_for(cfg);
  auto c = AnyContainer::make(cfg.scheme, cfg.structure, options);
  if (!c) {
    std::fprintf(stderr,
                 "run_case: AnyContainer::make has no cell for %s/%s\n",
                 scheme_name(cfg.scheme), structure_name(cfg.structure));
    std::exit(2);
  }
  return detail::run_one_container(*c, container_kind(cfg.structure), cfg,
                                   run_seed);
}

CaseResult run_one_any(const CaseConfig& cfg, std::uint64_t run_seed) {
  switch (container_kind(cfg.structure)) {
    case ContainerKind::kMap:
      return run_one_any_map(cfg, run_seed);
    case ContainerKind::kQueue:
    case ContainerKind::kStack:
    case ContainerKind::kDeque:
      return run_one_any_container(cfg, run_seed);
    case ContainerKind::kKv:
      // The kv concept's op surface (string keys, blob values) needs the
      // dedicated bench_kv harness; run_case cannot shape its workload.
      std::fprintf(stderr,
                   "run_case: structure %s is kv-concept — use bench_kv, "
                   "not the integer-keyed harness\n",
                   structure_name(cfg.structure));
      std::exit(2);
  }
  return {};
}

}  // namespace

CaseResult run_case(const CaseConfig& cfg) {
  return detail::median_of_runs(
      cfg, [&](std::uint64_t seed) { return run_one_any(cfg, seed); });
}

}  // namespace scot::bench
