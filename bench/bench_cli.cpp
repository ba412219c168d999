// Paper-artifact-compatible CLI (Appendix A.5 of the paper):
//
//     ./bench_cli <mode> <seconds> <keyrange> <runs> <read%> <ins%> <del%>
//                 <SCHEME> <threads> [--flags]
//
// e.g.   ./bench_cli listlf 2 512 1 50 25 25 EBR 4 --seed 7
//
// Modes: listlf  — Harris list with SCOT, lock-free traversals
//        listwf  — Harris list with SCOT, wait-free traversals
//        listhm  — Harris-Michael list (baseline)
//        tree    — Natarajan-Mittal tree with SCOT
//        hash    — hash map over SCOT lists
//        skip    — skip list, Fraser-style traversal with SCOT
//        skiphs  — skip list, Herlihy-Shavit eager unlink (baseline)
//        queue stack deque — the containers (<read%> must be 0)
// Schemes: NR EBR HP HPopt HE IBR HLN
//
// Optional flags (see kFlagUsage): --seed for reproducible key streams,
// --dist/--theta for Zipfian keys, --preset to override the positional
// mix, --pin for thread affinity, --ops for a fixed per-thread operation
// budget instead of a timed run.  Unknown or malformed flags are an error
// (exit 2), never silently ignored.
//
// Parsing lives in src/bench/options.hpp (parse_cli) so it is
// unit-testable; this file only reports the result.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/options.hpp"
#include "bench/runner.hpp"

using namespace scot::bench;

static void usage(const char* argv0, int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s %s\n"
               "       %s\n"
               "e.g.:  %s listlf 2 512 1 50 25 25 EBR 4 --seed 7\n",
               argv0, kCliUsage, kFlagUsage, argv0);
  std::exit(code);
}

int main(int argc, char** argv) {
  if (argc == 1) usage(argv[0], 0);  // bare run: self-document, succeed

  std::string error;
  BenchFlags flags;
  const auto cfg = parse_cli(argc, argv, &error, &flags);
  if (!cfg) {
    if (flags.help) usage(argv[0], 0);
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    usage(argv[0], 2);
  }

  const CaseResult r = run_case(*cfg);
  std::printf("structure=%s scheme=%s threads=%u range=%llu mix=%d/%d/%d "
              "dist=%s seed=%llu\n",
              structure_name(cfg->structure), scheme_name(cfg->scheme),
              cfg->threads, static_cast<unsigned long long>(cfg->key_range),
              cfg->read_pct, cfg->insert_pct, cfg->delete_pct,
              key_dist_name(cfg->key_dist),
              static_cast<unsigned long long>(cfg->seed));
  std::printf("ops=%llu seconds=%.3f throughput=%.3f Mops/s\n",
              static_cast<unsigned long long>(r.total_ops), r.seconds,
              r.mops);
  std::printf("avg_unreclaimed=%.0f peak_unreclaimed=%lld restarts=%llu "
              "recoveries=%llu\n",
              r.avg_pending, static_cast<long long>(r.peak_pending),
              static_cast<unsigned long long>(r.restarts),
              static_cast<unsigned long long>(r.recoveries));
  return 0;
}
