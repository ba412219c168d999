// Input generation, clocks, pinning and small statistics helpers for the
// repository benchmark.  Everything here belongs to the benchmark, not to
// the library: the key streams must stay identical across library changes,
// so the generators are defined locally instead of reusing src/common.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Keeps a value alive without emitting any instruction for it.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// xoshiro256**, seeded through SplitMix64 from (seed, worker, stream), so
// every worker's key stream is a pure function of the run seed.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t worker, std::uint64_t stream) {
    std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL ^ (worker << 32) ^
                      (stream * 0xd1b54a32d192ed03ULL);
    for (auto& w : s_) {
      s += 0x9e3779b97f4a7c15ULL;
      w = mix64(s);
    }
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  // Uniform in [0, n) (Lemire's multiply-shift; bias < n / 2^64).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// YCSB's Zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases"): rank 0 is the hottest item.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i)
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }
  std::uint64_t next(Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_theta_ = 0;
};

// --- kv keys and values ------------------------------------------------------

// 16-byte YCSB-style key: "user" + the id as 12 zero-padded decimal digits.
inline constexpr std::size_t kKeyLen = 16;

inline void format_key(char* out, std::uint64_t id) {
  std::memcpy(out, "user", 4);
  for (int i = 15; i >= 4; --i) {
    out[i] = static_cast<char>('0' + id % 10);
    id /= 10;
  }
}

inline void put_hex16(char* out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
}

// A value names the key it was written for: bytes [0,16) are the key id in
// hex, [16,32) a writer stamp, and every later 16-byte block repeats the id,
// so a torn or misrouted value fails decode_value().  `len` is a multiple
// of 16, at least 32.
inline void encode_value(char* out, std::size_t len, std::uint64_t id,
                         std::uint64_t stamp) {
  put_hex16(out, id);
  put_hex16(out + 16, stamp);
  for (std::size_t off = 32; off < len; off += 16)
    std::memcpy(out + off, out, 16);
}

inline bool decode_value(std::string_view v, std::size_t len,
                         std::uint64_t id) {
  if (v.size() != len) return false;
  char want[16];
  put_hex16(want, id);
  if (std::memcmp(v.data(), want, 16) != 0) return false;
  for (std::size_t off = 32; off < len; off += 16)
    if (std::memcmp(v.data() + off, want, 16) != 0) return false;
  return true;
}

// --- host --------------------------------------------------------------------

inline bool pin_to_cpu(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- statistics --------------------------------------------------------------

// Linear-interpolated percentile (q in [0,100]) of n sorted values, each
// read through `value`.
template <class It, class Value>
double percentile_sorted(It v, std::size_t n, double q, Value value) {
  if (n == 0) return 0;
  const double rank = q / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(value(v[lo])) * (1 - frac) +
         static_cast<double>(value(v[hi])) * frac;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v.begin(), v.size(), 50.0,
                           [](double x) { return x; });
}

}  // namespace perfbench
