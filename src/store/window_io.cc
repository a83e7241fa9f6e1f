#include "store/window_io.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace wcop {
namespace store {

namespace {

using CarryMap = std::map<int64_t, Trajectory>;

/// Loads the previous window's carry-over store into an id-keyed map. A
/// missing store (first window, or no carry configured) is an empty map;
/// a torn one is kDataLoss for the caller to surface. std::map keeps
/// deterministic iteration for the defensive leftover pass below.
Result<CarryMap> LoadCarryIn(const std::string& path) {
  CarryMap carry;
  if (path.empty()) {
    return carry;
  }
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  if (!reader.ok()) {
    if (reader.status().code() == StatusCode::kNotFound) {
      return carry;
    }
    return reader.status();
  }
  for (size_t i = 0; i < reader->size(); ++i) {
    WCOP_ASSIGN_OR_RETURN(Trajectory t, reader->Read(i));
    const int64_t id = t.id();
    carry.emplace(id, std::move(t));
  }
  return carry;
}

}  // namespace

Result<WindowPlan> PlanWindows(double t_min, double t_max,
                               double window_seconds) {
  if (!(window_seconds > 0.0) || !std::isfinite(window_seconds)) {
    return Status::InvalidArgument("window_seconds must be positive");
  }
  if (!std::isfinite(t_min) || !std::isfinite(t_max) || t_min > t_max) {
    return Status::InvalidArgument("window plan over an empty time range");
  }
  WindowPlan plan;
  plan.t_min = t_min;
  plan.window_seconds = window_seconds;
  // Count windows with the same arithmetic the iteration uses so the grid
  // is bit-identical to the historical `t_min + i*W <= t_max` loop.
  size_t n = 0;
  while (plan.WindowStart(n) <= t_max) {
    if (plan.WindowStart(n + 1) <= plan.WindowStart(n)) {
      return Status::InvalidArgument(
          "window_seconds too small for the stream's time magnitude "
          "(the window grid cannot advance in double precision)");
    }
    ++n;
  }
  plan.num_windows = n;
  return plan;
}

std::vector<Point> SlicePointsInWindow(const Trajectory& t,
                                       double window_start,
                                       double window_end) {
  std::vector<Point> points;
  for (const Point& p : t.points()) {
    if (p.t >= window_start && p.t < window_end) {
      points.push_back(p);
    }
  }
  return points;
}

Trajectory MakeWindowFragment(int64_t fragment_id, const Trajectory& parent,
                              std::vector<Point> points) {
  Trajectory fragment(fragment_id, std::move(points), parent.requirement());
  fragment.set_object_id(parent.object_id());
  fragment.set_parent_id(parent.id());
  return fragment;
}

Result<WindowExtraction> ExtractWindow(const TrajectoryStoreReader& source,
                                       const WindowExtractOptions& options) {
  if (!(options.window_end > options.window_start)) {
    return Status::InvalidArgument("window extraction: empty window");
  }
  if (options.carry_out_path.empty()) {
    return Status::InvalidArgument(
        "window extraction: a carry-over store path is required");
  }
  WCOP_FAILPOINT("window_io.extract");
  const size_t min_points = std::max<size_t>(options.min_fragment_points, 1);

  WCOP_ASSIGN_OR_RETURN(CarryMap carry_in,
                        LoadCarryIn(options.carry_in_path));

  WCOP_ASSIGN_OR_RETURN(
      TrajectoryStoreWriter window_writer,
      TrajectoryStoreWriter::Create(options.window_out_path));
  WCOP_ASSIGN_OR_RETURN(TrajectoryStoreWriter carry_writer,
                        TrajectoryStoreWriter::Create(options.carry_out_path));

  WindowExtraction stats;
  stats.next_fragment_id = options.next_fragment_id;

  const std::vector<StoreEntry>& index = source.index();
  for (size_t i = 0; i < index.size(); ++i) {
    const StoreEntry& entry = index[i];
    const bool has_carry = carry_in.find(entry.id) != carry_in.end();
    // Index-only pruning: blocks with no lifetime overlap and no pending
    // carry are never read — the whole point of the out-of-core path.
    if (!has_carry && (entry.t_max < options.window_start ||
                       entry.t_min >= options.window_end)) {
      continue;
    }
    WCOP_ASSIGN_OR_RETURN(Trajectory t, source.Read(i));
    std::vector<Point> points;
    if (has_carry) {
      auto node = carry_in.extract(entry.id);
      points = std::move(node.mapped().mutable_points());
      ++stats.carried_in;
    }
    std::vector<Point> slice =
        SlicePointsInWindow(t, options.window_start, options.window_end);
    points.insert(points.end(), slice.begin(), slice.end());
    if (points.empty()) {
      continue;  // lifetime overlaps the window but no samples fall in it
    }
    if (points.size() >= min_points) {
      Trajectory fragment =
          MakeWindowFragment(stats.next_fragment_id++, t, std::move(points));
      WCOP_RETURN_IF_ERROR(window_writer.Append(fragment));
      stats.trajectories.push_back(std::move(fragment));
    } else if (entry.t_max >= options.window_end) {
      // The trajectory continues: spill the short fragment so the next
      // window merges it instead of this window suppressing it. The record
      // keeps the source id (the merge key) and the user's requirement.
      Trajectory carry(t.id(), std::move(points), t.requirement());
      carry.set_object_id(t.object_id());
      carry.set_parent_id(t.parent_id());
      WCOP_RETURN_IF_ERROR(carry_writer.Append(carry));
      ++stats.carried_out;
    } else {
      ++stats.suppressed;
    }
  }

  // Defensive: a carry record whose source vanished from the window (index
  // says no overlap) is re-spilled verbatim rather than silently dropped —
  // std::map order keeps this deterministic.
  for (auto& [id, carry] : carry_in) {
    (void)id;
    WCOP_RETURN_IF_ERROR(carry_writer.Append(carry));
    ++stats.carried_out;
  }

  WCOP_RETURN_IF_ERROR(carry_writer.Finish());
  WCOP_FAILPOINT("window_io.carry_saved");
  WCOP_RETURN_IF_ERROR(window_writer.Finish());
  stats.fragments = stats.trajectories.size();
  stats.index = window_writer.index();
  stats.input = window_writer.digest();
  stats.carry = carry_writer.digest();
  return stats;
}

}  // namespace store
}  // namespace wcop
