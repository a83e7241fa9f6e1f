#ifndef WCOP_DATA_STORE_CONVERT_H_
#define WCOP_DATA_STORE_CONVERT_H_

/// CSV <-> trajectory store conversion (the `csv2store` path of
/// anonymize_csv). Conversion streams one trajectory at a time in both
/// directions, so converting a dataset never requires holding it in memory.

#include <string>

#include "common/result.h"
#include "common/run_context.h"
#include "common/status.h"
#include "store/store_file.h"

namespace wcop {

struct StoreConvertStats {
  size_t trajectories = 0;
  uint64_t points = 0;
};

/// Converts the exchange-CSV at `csv_path` (traj_id,object_id,parent_id,
/// k,delta,x,y,t — the WriteDatasetCsv format, parsed by
/// CsvTrajectoryReader like ReadDatasetCsv) into a trajectory store at
/// `store_path`. The CSV is opened before the store is created. Values
/// round-trip bit-exactly from the parsed CSV: the store keeps the raw
/// IEEE-754 bits of the doubles the parser produced.
Result<StoreConvertStats> ConvertCsvToStore(const std::string& csv_path,
                                            const std::string& store_path,
                                            const RunContext* context =
                                                nullptr);

/// Converts a trajectory store back to the exchange CSV format.
Result<StoreConvertStats> ConvertStoreToCsv(const std::string& store_path,
                                            const std::string& csv_path,
                                            const RunContext* context =
                                                nullptr);

}  // namespace wcop

#endif  // WCOP_DATA_STORE_CONVERT_H_
