#include "storage/csv.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace gola {

namespace {

bool NeedsQuoting(const std::string& s, char delim) {
  return s.find(delim) != std::string::npos || s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos;
}

std::string QuoteCell(const std::string& s, char delim) {
  if (!NeedsQuoting(s, delim)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Splits one CSV record honoring double-quote escaping. A quote left open
/// at end of line is malformed input, not a cell that happens to end early.
Result<std::vector<std::string>> ParseRecord(const std::string& line, char delim,
                                             int64_t line_number) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      cells.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) {
    return Status::ParseError(
        Format("CSV line %lld: unterminated quoted field",
               static_cast<long long>(line_number)));
  }
  cells.push_back(std::move(cur));
  return cells;
}

/// Strict typed cell parsers: trailing garbage, overflow and empty cells are
/// errors with the offending line/column, never silent truncation.
Result<Value> ParseTypedCell(const std::string& cell, TypeId type,
                             const std::string& column, int64_t line_number) {
  auto bad = [&](const char* what) {
    return Status::ParseError(
        Format("CSV line %lld, column \"%s\": \"%s\" is not a valid %s",
               static_cast<long long>(line_number), column.c_str(), cell.c_str(),
               what));
  };
  switch (type) {
    case TypeId::kBool: {
      if (EqualsIgnoreCase(cell, "true") || cell == "1") return Value::Bool(true);
      if (EqualsIgnoreCase(cell, "false") || cell == "0") return Value::Bool(false);
      return bad("BOOL (expected true/false/1/0)");
    }
    case TypeId::kInt64: {
      if (cell.empty()) return bad("INT64");
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(cell.c_str(), &end, 10);
      if (end != cell.c_str() + cell.size()) return bad("INT64");
      if (errno == ERANGE) return bad("INT64 (out of range)");
      return Value::Int(v);
    }
    case TypeId::kFloat64: {
      if (cell.empty()) return bad("FLOAT64");
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      if (end != cell.c_str() + cell.size()) return bad("FLOAT64");
      return Value::Float(v);
    }
    default:
      return Value::String(cell);
  }
}

bool LooksLikeInt(const std::string& s) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool LooksLikeFloat(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path, const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  const auto& schema = *table.schema();
  if (options.has_header) {
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (i > 0) out << options.delimiter;
      out << QuoteCell(schema.field(i).name, options.delimiter);
    }
    out << "\n";
  }
  for (const auto& chunk : table.chunks()) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        if (c > 0) out << options.delimiter;
        Value v = chunk.column(c).GetValue(r);
        if (v.is_null()) out << options.null_token;
        else out << QuoteCell(v.ToString(), options.delimiter);
      }
      out << "\n";
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path, SchemaPtr schema, const CsvOptions& options) {
  GOLA_FAILPOINT_RETURN("storage.csv_read");
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);

  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::vector<int64_t> row_lines;  // 1-based source line of each data row
  std::string line;
  int64_t line_number = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    GOLA_ASSIGN_OR_RETURN(std::vector<std::string> cells,
                          ParseRecord(line, options.delimiter, line_number));
    if (first && options.has_header) {
      header = std::move(cells);
      first = false;
      continue;
    }
    first = false;
    rows.push_back(std::move(cells));
    row_lines.push_back(line_number);
  }
  if (in.bad()) return Status::IoError("read failed: " + path);

  size_t width = schema ? schema->num_fields()
                        : (header.empty() ? (rows.empty() ? 0 : rows[0].size())
                                          : header.size());
  if (width == 0) return Status::IoError("empty CSV: " + path);

  if (!schema) {
    // Infer types column by column: INT64 if all cells are ints, else
    // FLOAT64 if all numeric, else STRING. NULL tokens are ignored.
    std::vector<Field> fields;
    for (size_t c = 0; c < width; ++c) {
      bool all_int = true;
      bool all_float = true;
      for (const auto& row : rows) {
        if (c >= row.size() || row[c] == options.null_token) continue;
        if (!LooksLikeInt(row[c])) all_int = false;
        if (!LooksLikeFloat(row[c])) all_float = false;
      }
      TypeId type = all_int ? TypeId::kInt64 : (all_float ? TypeId::kFloat64 : TypeId::kString);
      std::string name = c < header.size() ? header[c] : Format("col%zu", c);
      fields.push_back({std::move(name), type});
    }
    schema = std::make_shared<Schema>(std::move(fields));
    // A query could not tell two equal header names apart.
    Status names = schema->CheckUniqueNames();
    if (!names.ok()) return Status::ParseError("CSV header of " + path + ": " + names.message());
  }

  TableBuilder builder(schema);
  std::vector<Value> values(width);
  for (size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != width) {
      return Status::ParseError(
          Format("CSV line %lld: row has %zu cells, expected %zu",
                 static_cast<long long>(row_lines[r]), row.size(), width));
    }
    for (size_t c = 0; c < width; ++c) {
      const std::string& cell = row[c];
      if (cell == options.null_token && schema->field(c).type != TypeId::kString) {
        values[c] = Value::Null();
        continue;
      }
      GOLA_ASSIGN_OR_RETURN(
          values[c], ParseTypedCell(cell, schema->field(c).type,
                                    schema->field(c).name, row_lines[r]));
    }
    builder.AppendRow(values);
  }
  return builder.Finish();
}

}  // namespace gola
