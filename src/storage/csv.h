// Minimal CSV reader/writer so example programs can persist and reload
// generated datasets. Handles quoting with double quotes; type inference
// when no schema is supplied (int64 → float64 → string).
#ifndef GOLA_STORAGE_CSV_H_
#define GOLA_STORAGE_CSV_H_

#include <optional>
#include <string>

#include "common/status.h"
#include "storage/table.h"

namespace gola {

struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Cells equal to this literal (unquoted) are read back as NULL.
  std::string null_token = "";
};

/// Writes the table to `path` (header row from schema field names).
Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options = {});

/// Reads `path`; when `schema` is null, column names come from the header
/// (two names equal but for case are a ParseError) and types are inferred
/// from the data.
Result<Table> ReadCsv(const std::string& path, SchemaPtr schema = nullptr,
                      const CsvOptions& options = {});

}  // namespace gola

#endif  // GOLA_STORAGE_CSV_H_
