// ZSTM_STRESS_ROUNDS — environment knob scaling the stress/adversarial
// suites' round counts (ROADMAP item; documented in README.md).
//
// The baked-in counts are tuned for a typical multi-core dev box. CI can
// scale them *up* on big runners to exercise more true concurrency, or
// *down* under ThreadSanitizer (~10x slower):
//
//   ZSTM_STRESS_ROUNDS=400 ctest -L stress   # 4x the rounds
//   ZSTM_STRESS_ROUNDS=25  ctest --preset tsan   # quarter rounds
//
// The value is a percentage of the default (100 = unchanged). Every scaled
// count stays >= 1, so no loop degenerates to zero work.
#pragma once

#include <cstdlib>

namespace zstm::test_env {

inline double stress_scale() {
  static const double scale = [] {
    const char* s = std::getenv("ZSTM_STRESS_ROUNDS");
    if (s == nullptr || *s == '\0') return 1.0;
    const double pct = std::atof(s);
    return pct > 0.0 ? pct / 100.0 : 1.0;
  }();
  return scale;
}

/// `base` rounds scaled by ZSTM_STRESS_ROUNDS (percent), floored at 1.
inline int stress_rounds(int base) {
  const double scaled = static_cast<double>(base) * stress_scale();
  return scaled < 1.0 ? 1 : static_cast<int>(scaled);
}

/// `dst + v + 1` with two's-complement wrap-around. The stress workloads
/// that add one object into another grow their values exponentially, and
/// signed overflow is undefined behaviour.
inline long wrapped_bump(long dst, long v) {
  return static_cast<long>(static_cast<unsigned long>(dst) +
                           static_cast<unsigned long>(v) + 1u);
}

}  // namespace zstm::test_env
