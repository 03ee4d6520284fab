#include "storage/schema.h"

#include "common/string_util.h"

namespace gola {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    index_.emplace(ToLower(fields_[i].name), static_cast<int>(i));
  }
}

Result<int> Schema::FieldIndex(const std::string& name) const {
  auto it = index_.find(ToLower(name));
  if (it == index_.end()) {
    return Status::KeyError(Format("no column named '%s'", name.c_str()));
  }
  return it->second;
}

bool Schema::HasField(const std::string& name) const {
  return index_.count(ToLower(name)) > 0;
}

Status Schema::CheckUniqueNames() const {
  if (index_.size() == fields_.size()) return Status::OK();
  for (size_t i = 0; i < fields_.size(); ++i) {
    // index_ keeps each name's first position.
    if (index_.at(ToLower(fields_[i].name)) != static_cast<int>(i)) {
      return Status::InvalidArgument(
          Format("duplicate column name '%s'", fields_[i].name.c_str()));
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const auto& f : fields_) {
    parts.push_back(f.name + ":" + TypeIdToString(f.type));
  }
  return Join(parts, ", ");
}

bool Schema::Equals(const Schema& other) const {
  if (fields_.size() != other.fields_.size()) return false;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (!EqualsIgnoreCase(fields_[i].name, other.fields_[i].name) ||
        fields_[i].type != other.fields_[i].type) {
      return false;
    }
  }
  return true;
}

std::vector<int> AllColumns(const Schema& schema) {
  std::vector<int> out(schema.num_fields());
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<int>(i);
  return out;
}

SchemaPtr ProjectSchema(const SchemaPtr& schema, const std::vector<int>& columns) {
  bool every = columns.size() == schema->num_fields();
  for (size_t i = 0; every && i < columns.size(); ++i) every = columns[i] == static_cast<int>(i);
  if (every) return schema;
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (int c : columns) fields.push_back(schema->field(static_cast<size_t>(c)));
  return std::make_shared<Schema>(std::move(fields));
}

}  // namespace gola
