// Runtime structure registry: the closed set of data structures as values
// and the per-concept structure tables.
//
// Like src/smr/registry.hpp this is the single source of truth for structure
// identity: the bench options, the bench tables and the paper CLI mode
// spellings all resolve through the tables here.  Structures are grouped by
// *container concept* (ContainerKind): uint64-keyed maps, string-keyed kv
// shards, and the queue/stack/deque shapes each have their own iteration
// table and their own type-erased facade (scot::AnyMap, scot::AnyKv,
// scot::AnyContainer), because their op surfaces differ — but they share one
// StructureId namespace so CLI names and grid labels never collide across
// concepts.  Each facade's make() selects the typed cell with a switch on
// StructureId (DESIGN.md §6 and §11 have the recipe).
//
// This header is deliberately light: it includes no structure header, so
// name resolution never pays for template instantiation.
#pragma once

#include <optional>
#include <string_view>

#include "smr/registry.hpp"

namespace scot {

enum class StructureId {
  kHMList,
  kHList,
  kHListWF,
  kNMTree,
  kHashMap,
  kSkipList,        // Fraser-style optimistic traversal with SCOT
  kSkipListEager,   // Herlihy-Shavit-style eager unlink (baseline)
  kHListNoRecovery, // trait ablation §3.2.1: restart-from-head, no recovery
  kHListSimple,     // trait ablation §3.2: simple (Fig 5 left) Do_Find
  kKvHash,          // string-keyed resizable hash map (src/kv/, DESIGN.md §10)
  kMSQueue,         // Michael-Scott queue (core/ms_queue.hpp, DESIGN.md §11)
  kTreiberStack,    // Treiber stack (core/treiber_stack.hpp)
  kDeque,           // Michael CAS-based deque (core/deque.hpp)
};

// The container concept a StructureId belongs to.  Grids, CLI resolution,
// the bench runner's dispatch and the facade make() checks all branch on
// this — never on ad-hoc StructureId comparisons — so adding a structure to
// a concept is one enum row plus one case below.
enum class ContainerKind {
  kMap,    // uint64 → uint64 ordered/unordered maps (scot::AnyMap)
  kKv,     // string-keyed serving shards (scot::AnyKv / KvStore)
  kQueue,  // FIFO: push_back / pop_front (scot::AnyQueue)
  kStack,  // LIFO: push_front / pop_front (scot::AnyStack)
  kDeque,  // both ends (scot::AnyDeque)
};

inline ContainerKind container_kind(StructureId s) noexcept {
  switch (s) {
    case StructureId::kHMList:
    case StructureId::kHList:
    case StructureId::kHListWF:
    case StructureId::kNMTree:
    case StructureId::kHashMap:
    case StructureId::kSkipList:
    case StructureId::kSkipListEager:
    case StructureId::kHListNoRecovery:
    case StructureId::kHListSimple: return ContainerKind::kMap;
    case StructureId::kKvHash: return ContainerKind::kKv;
    case StructureId::kMSQueue: return ContainerKind::kQueue;
    case StructureId::kTreiberStack: return ContainerKind::kStack;
    case StructureId::kDeque: return ContainerKind::kDeque;
  }
  return ContainerKind::kMap;  // unreachable: the switch is exhaustive
}

inline const char* container_kind_name(ContainerKind k) noexcept {
  switch (k) {
    case ContainerKind::kMap: return "map";
    case ContainerKind::kKv: return "kv";
    case ContainerKind::kQueue: return "queue";
    case ContainerKind::kStack: return "stack";
    case ContainerKind::kDeque: return "deque";
  }
  return "?";
}

// --- per-concept iteration tables -----------------------------------------

// The uint64-keyed map structures every figure grid and the AnyMap
// cross-product tests iterate.
inline constexpr StructureId kAllStructures[] = {
    StructureId::kHMList,  StructureId::kHList,    StructureId::kHListWF,
    StructureId::kNMTree,  StructureId::kHashMap,  StructureId::kSkipList,
    StructureId::kSkipListEager};

// Trait-ablation variants of the Harris list (bench_ablation_*): AnyMap
// cells with name-resolvable identities, but deliberately absent from
// kAllStructures, so no figure grid iterates them.
inline constexpr StructureId kAblationStructures[] = {
    StructureId::kHListNoRecovery, StructureId::kHListSimple};

// String-keyed structures served through AnyKv/KvStore (src/kv/).  A
// separate table because the uint64-keyed grids above cannot iterate them:
// the op surface (string_view keys, blob values) is different, so they get
// their own cross-product tests and "kv:" bench cells.
inline constexpr StructureId kKvStructures[] = {StructureId::kKvHash};

// The queue/stack/deque concept (core/ms_queue.hpp, core/treiber_stack.hpp,
// core/deque.hpp), served through scot::AnyContainer and the per-concept
// facades; bench_containers and the cross-product tests iterate it.
inline constexpr StructureId kContainerStructures[] = {
    StructureId::kMSQueue, StructureId::kTreiberStack, StructureId::kDeque};

inline const char* structure_name(StructureId s) noexcept {
  switch (s) {
    case StructureId::kHMList: return "HMList";
    case StructureId::kHList: return "HList";
    case StructureId::kHListWF: return "HListWF";
    case StructureId::kNMTree: return "NMTree";
    case StructureId::kHashMap: return "HashMap";
    case StructureId::kSkipList: return "SkipList";
    case StructureId::kSkipListEager: return "SkipListHS";
    case StructureId::kHListNoRecovery: return "HListNoRec";
    case StructureId::kHListSimple: return "HListSimple";
    case StructureId::kKvHash: return "KvHash";
    case StructureId::kMSQueue: return "MSQueue";
    case StructureId::kTreiberStack: return "TreiberStack";
    case StructureId::kDeque: return "Deque";
  }
  return "?";
}

// Reverse of structure_name().  The ablation variants, the kv structures
// and the container structures are all resolvable even though only
// kAllStructures feeds the map-shaped figure grids.
inline std::optional<StructureId> structure_from_name(std::string_view name) {
  for (StructureId s : kAblationStructures) {
    if (name == structure_name(s)) return s;
  }
  for (StructureId s : kKvStructures) {
    if (name == structure_name(s)) return s;
  }
  for (StructureId s : kContainerStructures) {
    if (name == structure_name(s)) return s;
  }
  for (StructureId s : kAllStructures) {
    if (name == structure_name(s)) return s;
  }
  return std::nullopt;
}

// Paper-artifact CLI mode spellings (Appendix A.5), extended with the
// container concept's modes.  Container modes take a push/pop mix instead
// of read/insert/delete — parse_cli enforces <read%> = 0 for them.
inline std::optional<StructureId> structure_from_mode(std::string_view mode) {
  if (mode == "listlf") return StructureId::kHList;
  if (mode == "listwf") return StructureId::kHListWF;
  if (mode == "listhm") return StructureId::kHMList;
  if (mode == "tree") return StructureId::kNMTree;
  if (mode == "hash") return StructureId::kHashMap;
  if (mode == "skip") return StructureId::kSkipList;
  if (mode == "skiphs") return StructureId::kSkipListEager;
  if (mode == "queue") return StructureId::kMSQueue;
  if (mode == "stack") return StructureId::kTreiberStack;
  if (mode == "deque") return StructureId::kDeque;
  return std::nullopt;
}

}  // namespace scot
