#include "data/store_convert.h"

#include <fstream>

#include "traj/io.h"

namespace wcop {

Result<StoreConvertStats> ConvertCsvToStore(const std::string& csv_path,
                                            const std::string& store_path,
                                            const RunContext* context) {
  WCOP_ASSIGN_OR_RETURN(CsvTrajectoryReader csv,
                        CsvTrajectoryReader::Open(csv_path));
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreWriter writer,
                        store::TrajectoryStoreWriter::Create(store_path));
  StoreConvertStats stats;
  // Each trajectory goes to the writer as soon as its rows end, so the
  // conversion holds exactly one trajectory in memory.
  WCOP_RETURN_IF_ERROR(csv.ForEach(context, nullptr, [&](Trajectory t) {
    stats.trajectories += 1;
    stats.points += t.size();
    return writer.Append(t);
  }));
  if (stats.trajectories == 0) {
    return Status::InvalidArgument(csv_path + ": no trajectories");
  }
  WCOP_RETURN_IF_ERROR(writer.Finish());
  return stats;
}

Result<StoreConvertStats> ConvertStoreToCsv(const std::string& store_path,
                                            const std::string& csv_path,
                                            const RunContext* context) {
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader reader,
                        store::TrajectoryStoreReader::Open(store_path));
  std::ofstream out(csv_path);
  if (!out) {
    return Status::IoError("cannot open for writing: " + csv_path);
  }
  out << kCsvHeader;
  StoreConvertStats stats;
  for (size_t i = 0; i < reader.size(); ++i) {
    if (i % 256 == 0) {
      WCOP_RETURN_IF_ERROR(CheckRunContext(context));
    }
    WCOP_ASSIGN_OR_RETURN(Trajectory t, reader.Read(i));
    WriteCsvRows(t, &out);
    stats.trajectories += 1;
    stats.points += t.size();
  }
  if (!out) {
    return Status::IoError("write failed: " + csv_path);
  }
  return stats;
}

}  // namespace wcop
