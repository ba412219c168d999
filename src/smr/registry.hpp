// Runtime scheme registry: the closed set of reclamation schemes this build
// knows, as *values*.
//
// `SchemeId` used to live in the bench layer (src/bench/options.hpp), which
// meant the CLI owned the scheme name table while the SMR layer only knew
// types.  API v2 inverts that: this header is the single source of truth for
// scheme identity — the bench options, the bench tables, the `scot::AnyMap`
// facade and the examples all resolve names through it.  Adding a scheme is
// one enum value + one `kSchemeInfos` row here, plus one case in
// scot::with_domain (src/smr/smr.hpp; DESIGN.md §6 has the full recipe).
//
// This header is deliberately light (no domain headers): it is included by
// everything that talks *about* schemes.  The scheme types themselves are
// only pulled in by the translation units that instantiate them.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace scot {

enum class SchemeId { kNR, kEBR, kHP, kHPopt, kHE, kIBR, kHLN };

inline constexpr SchemeId kAllSchemes[] = {
    SchemeId::kNR, SchemeId::kEBR, SchemeId::kHP,  SchemeId::kHPopt,
    SchemeId::kHE, SchemeId::kIBR, SchemeId::kHLN};

// One row per scheme.  `robust` mirrors Domain::kRobust; src/smr/smr.hpp
// static_asserts the two never drift apart.
struct SchemeInfo {
  SchemeId id;
  const char* name;    // paper-artifact CLI spelling (Appendix A.5)
  bool robust;         // bounded garbage under stalled threads
};

inline constexpr SchemeInfo kSchemeInfos[] = {
    {SchemeId::kNR, "NR", false},     {SchemeId::kEBR, "EBR", false},
    {SchemeId::kHP, "HP", true},      {SchemeId::kHPopt, "HPopt", true},
    {SchemeId::kHE, "HE", true},      {SchemeId::kIBR, "IBR", true},
    {SchemeId::kHLN, "HLN", true},
};

inline constexpr SchemeInfo scheme_info(SchemeId s) noexcept {
  for (const SchemeInfo& info : kSchemeInfos) {
    if (info.id == s) return info;
  }
  return SchemeInfo{s, "?", false};
}

inline constexpr const char* scheme_name(SchemeId s) noexcept {
  return scheme_info(s).name;
}

// Reverse lookup for the paper-artifact CLI spellings; names are case-exact.
inline std::optional<SchemeId> scheme_from_name(std::string_view name) {
  for (const SchemeInfo& info : kSchemeInfos) {
    if (name == info.name) return info.id;
  }
  return std::nullopt;
}

}  // namespace scot
