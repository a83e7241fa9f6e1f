#include "distance/edr_kernel.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace wcop {

namespace {

bool SortedByTime(const Trajectory& t) {
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i].t < t[i - 1].t) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint32_t EdrOpsScalar(const Trajectory& a, const Trajectory& b,
                      const EdrTolerance& tolerance) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) {
    return static_cast<uint32_t>(std::max(n, m));
  }
  // Two-row dynamic program; rows indexed by positions in `a`. The scratch
  // rows are thread-local so the clustering hot path never reallocates.
  thread_local std::vector<uint32_t> prev_s;
  thread_local std::vector<uint32_t> curr_s;
  prev_s.resize(m + 1);
  curr_s.resize(m + 1);
  uint32_t* prev = prev_s.data();
  uint32_t* curr = curr_s.data();
  for (size_t j = 0; j <= m; ++j) {
    prev[j] = static_cast<uint32_t>(j);
  }
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<uint32_t>(i);
    const Point& pa = a[i - 1];
    for (size_t j = 1; j <= m; ++j) {
      const uint32_t subcost = tolerance.Matches(pa, b[j - 1]) ? 0u : 1u;
      curr[j] =
          std::min({prev[j - 1] + subcost, prev[j] + 1u, curr[j - 1] + 1u});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

uint32_t EdrOpsBitParallel(const Trajectory& a, const Trajectory& b,
                           const EdrTolerance& tolerance) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) {
    return static_cast<uint32_t>(std::max(n, m));
  }
  // Myers/Hyyrö bit-parallel unit-cost edit distance over the tolerance
  // match predicate. Columns (positions of `b`) live 64 per word; PV/MV
  // hold the vertical deltas of the current row, the score is tracked at
  // column m via the horizontal deltas of the last block. Bits of the last
  // block above column m are virtual never-matching columns; carries only
  // propagate upward within a word, so they never influence real columns.
  const size_t words = (m + 63) / 64;
  thread_local std::vector<uint64_t> pv_s;
  thread_local std::vector<uint64_t> mv_s;
  thread_local std::vector<uint64_t> eq_s;
  pv_s.assign(words, ~0ull);
  mv_s.assign(words, 0ull);
  eq_s.assign(words, 0ull);
  uint64_t* pv_v = pv_s.data();
  uint64_t* mv_v = mv_s.data();
  uint64_t* eq_v = eq_s.data();

  int64_t score = static_cast<int64_t>(m);
  const unsigned last_pos = static_cast<unsigned>((m - 1) & 63);
  // Match masks are rebuilt per row; when both sequences are sorted by time
  // and dt is finite, only the row point's time window over `b` is scanned
  // (two-pointer sweep), otherwise every column is tested.
  const bool windowed =
      std::isfinite(tolerance.dt) && SortedByTime(a) && SortedByTime(b);
  size_t lo = 0;
  size_t hi = 0;

  for (size_t i = 1; i <= n; ++i) {
    const Point& pa = a[i - 1];
    std::fill(eq_v, eq_v + words, 0ull);
    if (windowed) {
      while (hi < m && b[hi].t <= pa.t + tolerance.dt) {
        ++hi;
      }
      while (lo < hi && b[lo].t < pa.t - tolerance.dt) {
        ++lo;
      }
      for (size_t j = lo; j < hi; ++j) {
        const Point& pb = b[j];
        if (std::abs(pa.x - pb.x) <= tolerance.dx &&
            std::abs(pa.y - pb.y) <= tolerance.dy) {
          eq_v[j >> 6] |= 1ull << (j & 63);
        }
      }
    } else {
      for (size_t j = 0; j < m; ++j) {
        if (tolerance.Matches(pa, b[j])) {
          eq_v[j >> 6] |= 1ull << (j & 63);
        }
      }
    }

    int hin = 1;
    for (size_t k = 0; k < words; ++k) {
      const uint64_t pv = pv_v[k];
      const uint64_t mv = mv_v[k];
      const uint64_t pm = eq_v[k] | (hin < 0 ? 1ull : 0ull);
      const uint64_t d0 = (((pm & pv) + pv) ^ pv) | pm | mv;
      const uint64_t hp = mv | ~(d0 | pv);
      const uint64_t hn = pv & d0;
      if (k == words - 1) {
        score += static_cast<int64_t>((hp >> last_pos) & 1ull);
        score -= static_cast<int64_t>((hn >> last_pos) & 1ull);
      }
      const int hout =
          ((hp >> 63) & 1ull) ? 1 : (((hn >> 63) & 1ull) ? -1 : 0);
      const uint64_t hp_s = (hp << 1) | (hin > 0 ? 1ull : 0ull);
      const uint64_t hn_s = (hn << 1) | (hin < 0 ? 1ull : 0ull);
      pv_v[k] = hn_s | ~(d0 | hp_s);
      mv_v[k] = d0 & hp_s;
      hin = hout;
    }
  }
  return static_cast<uint32_t>(score);
}

uint32_t EdrOps(const Trajectory& a, const Trajectory& b,
                const EdrTolerance& tolerance) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) {
    return static_cast<uint32_t>(std::max(n, m));
  }
  // Rough per-row costs: the bit-parallel kernel ~8 word ops per 64
  // columns, the scalar DP m cells; on small shapes the scalar DP wins.
  if (m < 32 || static_cast<uint64_t>(n) * m < 2048) {
    return EdrOpsScalar(a, b, tolerance);
  }
  return EdrOpsBitParallel(a, b, tolerance);
}

}  // namespace wcop
