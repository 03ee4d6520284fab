// Field and Schema: the ordered, named column layout of chunks and tables.
#ifndef GOLA_STORAGE_SCHEMA_H_
#define GOLA_STORAGE_SCHEMA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/data_type.h"

namespace gola {

struct Field {
  std::string name;
  TypeId type;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the column with this (case-insensitive) name.
  Result<int> FieldIndex(const std::string& name) const;
  bool HasField(const std::string& name) const;

  /// OK when no two field names are equal compared case-insensitively (as
  /// FieldIndex and the binder resolve them); otherwise InvalidArgument
  /// naming the first repeat. Tables must pass it to be registered.
  Status CheckUniqueNames() const;

  /// "name:TYPE, name:TYPE, ..."
  std::string ToString() const;

  bool Equals(const Schema& other) const;

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, int> index_;  // lower-cased name → position
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// 0, 1, ..., num_fields - 1: the column list naming every field.
std::vector<int> AllColumns(const Schema& schema);

/// The fields of `schema` at `columns` (positions, in the order given);
/// `schema` itself when `columns` is AllColumns(*schema).
SchemaPtr ProjectSchema(const SchemaPtr& schema, const std::vector<int>& columns);

}  // namespace gola

#endif  // GOLA_STORAGE_SCHEMA_H_
