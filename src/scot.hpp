// SCOT — single public entry point.
//
// One include gives the whole library surface:
//
//   * the reclamation schemes, built on one shared domain skeleton
//     (smr/domain_core.hpp), and the SmrDomain concept (smr/smr.hpp),
//   * the typed guard-centric protection API — TraversalGuard,
//     ProtectionSlot, Protected<T> (smr/guard.hpp),
//   * the SCOT data structures (core/core.hpp),
//   * scheme/structure identity as runtime values (smr/registry.hpp,
//     core/registry.hpp),
//   * the type-erased scot::AnyMap facade with runtime scheme and
//     structure selection (core/any_map.hpp; link the `scot_any` library),
//   * the container concepts — scot::AnyQueue / AnyStack / AnyDeque over
//     MSQueue, TreiberStack, and the Michael deque
//     (core/any_container.hpp; link the `scot_any` library),
//   * the string-keyed serving layer — scot::AnyKv shards and the sharded
//     scot::KvStore (kv/; link the `scot_kv` library).
//
// Typed quick start (per-thread membership is dynamic: scoped_handle()
// joins the domain's handle registry and leaves at scope exit):
//
//   scot::SmrConfig cfg;   cfg.scan_threshold = 64;
//   scot::HpDomain smr(cfg);
//   scot::HarrisList<uint64_t, uint64_t, scot::HpDomain> list(smr);
//   auto h = scot::scoped_handle(smr);
//   list.insert(*h, 7, 700);
//
// Runtime-selected quick start (Session = scoped_handle through the
// type-erased facade):
//
//   auto map = scot::AnyMap::make(scot::SchemeId::kHLN,
//                                 scot::StructureId::kSkipList);
//   auto s = map->session();
//   s.insert(7, 700);
//
// See DESIGN.md §6 for guard lifetimes, Protected<T> invariants, and the
// registry extension recipe.
#pragma once

#include "core/any_container.hpp"
#include "core/any_map.hpp"
#include "core/core.hpp"
#include "core/registry.hpp"
#include "kv/any_kv.hpp"
#include "kv/kv_store.hpp"
#include "smr/guard.hpp"
#include "smr/registry.hpp"
#include "smr/smr.hpp"
