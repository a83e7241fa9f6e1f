#include "distance/edr_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace wcop {

namespace {

/// Non-decreasing, finite timestamps: then the columns a row point can
/// match in time form one run that only moves forward as the rows do. A
/// NaN fails the comparison and an infinity the end checks, so neither
/// reaches the sweep (inf - inf is NaN, which no sweep bound survives).
bool SweepableByTime(const Trajectory& t) {
  for (size_t i = 1; i < t.size(); ++i) {
    if (!(t[i].t >= t[i - 1].t)) {
      return false;
    }
  }
  return t.empty() || (std::isfinite(t.front().t) && std::isfinite(t.back().t));
}

/// ORs into `eq` the bit of every column j in [lo, hi) that matches `p`:
/// each bit is EdrTolerance::Matches' expression, |p - b_j| <= tol on all
/// three axes, evaluated without a branch. The SSE2 loop tests columns in
/// aligned pairs, so it may also test lo - 1 and hi (real columns, or the
/// NaN padding column, which never matches); their bits are exact too.
void MatchRow(const Point& p, const double* bx, const double* by,
              const double* bt, size_t lo, size_t hi,
              const EdrTolerance& tol, uint64_t* eq) {
#if defined(__SSE2__)
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d px = _mm_set1_pd(p.x);
  const __m128d py = _mm_set1_pd(p.y);
  const __m128d pt = _mm_set1_pd(p.t);
  const __m128d dx = _mm_set1_pd(tol.dx);
  const __m128d dy = _mm_set1_pd(tol.dy);
  const __m128d dt = _mm_set1_pd(tol.dt);
  for (size_t j = lo & ~size_t{1}; j < hi; j += 2) {
    const __m128d ex =
        _mm_andnot_pd(sign, _mm_sub_pd(px, _mm_loadu_pd(bx + j)));
    const __m128d ey =
        _mm_andnot_pd(sign, _mm_sub_pd(py, _mm_loadu_pd(by + j)));
    const __m128d et =
        _mm_andnot_pd(sign, _mm_sub_pd(pt, _mm_loadu_pd(bt + j)));
    const __m128d ok =
        _mm_and_pd(_mm_and_pd(_mm_cmple_pd(ex, dx), _mm_cmple_pd(ey, dy)),
                   _mm_cmple_pd(et, dt));
    eq[j >> 6] |= static_cast<uint64_t>(_mm_movemask_pd(ok)) << (j & 63);
  }
#else
  for (size_t j = lo; j < hi; ++j) {
    const bool match = (std::abs(p.x - bx[j]) <= tol.dx) &
                       (std::abs(p.y - by[j]) <= tol.dy) &
                       (std::abs(p.t - bt[j]) <= tol.dt);
    eq[j >> 6] |= static_cast<uint64_t>(match) << (j & 63);
  }
#endif
}

/// The bit-parallel DP of rows `a` against columns `b`, both non-empty;
/// returns D(|a|, |b|). Columns live 64 per word. After row i, bit j - 1 of
/// PV (MV) is set when D(i, j) - D(i, j - 1) is +1 (-1); the score is
/// tracked at column |b| through the horizontal deltas of the last word.
/// Bits of the last word above column |b| are virtual never-matching
/// columns; carries only move upward within a word, so they never reach a
/// real column. When `rows` is non-null it receives the PV and MV words of
/// every row i = 0..|a| (PV first, 2 * words per row): all EdrOpSequence
/// needs to read back any D(i, j).
uint32_t RunKernel(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tol, std::vector<uint64_t>* rows) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t words = (m + 63) / 64;

  // The columns in structure-of-arrays form, padded to an even count with
  // a NaN column for the paired loads of MatchRow.
  thread_local std::vector<double> cols;
  const size_t stride = m + (m & 1);
  cols.resize(3 * stride);
  double* bx = cols.data();
  double* by = bx + stride;
  double* bt = by + stride;
  for (size_t j = 0; j < m; ++j) {
    bx[j] = b[j].x;
    by[j] = b[j].y;
    bt[j] = b[j].t;
  }
  if (stride > m) {
    bx[m] = by[m] = bt[m] = std::numeric_limits<double>::quiet_NaN();
  }

  // The PV and MV words of the current row (PV first), rewritten in place;
  // with `rows`, each row's words go to their own slot there instead.
  // `eq` is the row's match word, left all zero after each row.
  thread_local std::vector<uint64_t> state;
  state.assign(3 * words, 0);
  uint64_t* eq = state.data() + 2 * words;
  uint64_t* row = state.data();
  if (rows != nullptr) {
    rows->resize(2 * (n + 1) * words);
    row = rows->data();
  }
  std::fill(row, row + words, ~0ull);  // D(0, j) = j
  std::fill(row + words, row + 2 * words, 0ull);

  // With both sequences sorted, the columns a row can match in time are
  // [lo, hi): hi passes every b_j with b_j.t - p.t <= dt, lo every b_j with
  // p.t - b_j.t > dt. These are the rounded differences Matches takes
  // (|x| <= dt holds iff x <= dt and -x <= dt, and fl(b - a) = -fl(a - b)),
  // and rounding is monotone, so the window holds exactly the columns
  // Matches accepts on the time axis and neither end ever moves back.
  const bool sweep = SweepableByTime(a) && SweepableByTime(b);
  size_t lo = 0;
  size_t hi = sweep ? 0 : m;

  int64_t score = static_cast<int64_t>(m);
  const unsigned last = static_cast<unsigned>((m - 1) & 63);
  for (size_t i = 0; i < n; ++i) {
    const Point& p = a[i];
    if (sweep) {
      while (hi < m && bt[hi] - p.t <= tol.dt) {
        ++hi;
      }
      while (lo < hi && p.t - bt[lo] > tol.dt) {
        ++lo;
      }
    }
    MatchRow(p, bx, by, bt, lo, hi, tol, eq);

    const uint64_t* in = row;
    if (rows != nullptr) {
      row += 2 * words;
    }
    // Horizontal delta entering the lowest column: D(i, 0) - D(i - 1, 0)
    // is +1; a -1 (hn) also enters the match word, as Myers' block
    // algorithm carries it.
    uint64_t hp_in = 1;
    uint64_t hn_in = 0;
    uint64_t hp = 0;
    uint64_t hn = 0;
    for (size_t k = 0; k < words; ++k) {
      const uint64_t pv = in[k];
      const uint64_t mv = in[words + k];
      const uint64_t pm = eq[k] | hn_in;
      eq[k] = 0;
      const uint64_t d0 = (((pm & pv) + pv) ^ pv) | pm | mv;
      hp = mv | ~(d0 | pv);
      hn = pv & d0;
      const uint64_t hp_s = (hp << 1) | hp_in;
      const uint64_t hn_s = (hn << 1) | hn_in;
      hp_in = hp >> 63;
      hn_in = hn >> 63;
      row[k] = hn_s | ~(d0 | hp_s);
      row[words + k] = d0 & hp_s;
    }
    score += static_cast<int64_t>((hp >> last) & 1ull);
    score -= static_cast<int64_t>((hn >> last) & 1ull);
  }
  return static_cast<uint32_t>(score);
}

/// Bit count without a libgcc call (the build targets baseline x86-64,
/// which has no POPCNT instruction).
int PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

}  // namespace

uint32_t EdrOps(const Trajectory& a, const Trajectory& b,
                const EdrTolerance& tolerance) {
  if (a.empty() || b.empty()) {
    return static_cast<uint32_t>(std::max(a.size(), b.size()));
  }
  return RunKernel(a, b, tolerance, nullptr);
}

std::vector<EdrOp> EdrOpSequence(const Trajectory& traj,
                                 const Trajectory& pivot,
                                 const EdrTolerance& tolerance) {
  const size_t n = traj.size();
  const size_t m = pivot.size();
  std::vector<EdrOp> ops;
  if (n == 0 || m == 0) {
    for (size_t i = 0; i < n; ++i) {
      ops.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i, 0});
    }
    for (size_t j = 0; j < m; ++j) {
      ops.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j});
    }
    return ops;
  }
  thread_local std::vector<uint64_t> rows;
  int64_t d = RunKernel(traj, pivot, tolerance, &rows);
  const size_t words = (m + 63) / 64;
  // D(i, j) = i + popcount(PV_i & low_j) - popcount(MV_i & low_j), where
  // low_j holds the bits of columns 1..j.
  auto cell = [&](size_t i, size_t j) {
    const uint64_t* pv = rows.data() + 2 * i * words;
    const uint64_t* mv = pv + words;
    int64_t v = static_cast<int64_t>(i);
    size_t k = 0;
    for (; k < j / 64; ++k) {
      v += PopCount(pv[k]) - PopCount(mv[k]);
    }
    if (j % 64 != 0) {
      const uint64_t low = (1ull << (j % 64)) - 1;
      v += PopCount(pv[k] & low) - PopCount(mv[k] & low);
    }
    return v;
  };
  // D(i, j) - D(i, j - 1): bit j - 1 of row i.
  auto step = [&](size_t i, size_t j) {
    const uint64_t* pv = rows.data() + 2 * i * words;
    const uint64_t* mv = pv + words;
    const size_t bit = j - 1;
    return static_cast<int64_t>((pv[bit >> 6] >> (bit & 63)) & 1ull) -
           static_cast<int64_t>((mv[bit >> 6] >> (bit & 63)) & 1ull);
  };

  // Backtrack from (n, m) with d = D(i, j). Prefer true matches; among
  // edits prefer the one that keeps the alignment balanced (diagonal
  // substitutions are decomposed into a delete-from-traj plus a
  // delete-from-pivot so that Algorithm 4 sees only match/delete ops,
  // mirroring how W4M replays the script).
  ops.reserve(n + m);
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    if (i > 0) {
      const int64_t up = cell(i - 1, j);
      if (j > 0) {
        const int64_t diag = up - step(i - 1, j);
        if (d == diag && tolerance.Matches(traj[i - 1], pivot[j - 1])) {
          ops.push_back(EdrOp{EdrOp::Kind::kMatch, i - 1, j - 1});
          --i;
          --j;
          continue;
        }
        if (d == diag + 1) {
          // Substitution: traj point replaced by a fresh point near the
          // pivot's.
          ops.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j - 1});
          ops.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i - 1, 0});
          d = diag;
          --i;
          --j;
          continue;
        }
      }
      if (d == up + 1) {
        ops.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i - 1, 0});
        d = up;
        --i;
        continue;
      }
    }
    d -= step(i, j);
    ops.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j - 1});
    --j;
  }
  std::reverse(ops.begin(), ops.end());
  return ops;
}

}  // namespace wcop
