#include "storage/column.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace gola {

Column::Column(TypeId type) : type_(type) {
  switch (type) {
    case TypeId::kBool: data_ = BoolVec{}; break;
    case TypeId::kInt64: data_ = IntVec{}; break;
    case TypeId::kFloat64: data_ = FloatVec{}; break;
    case TypeId::kString: data_ = StringVec{}; break;
    case TypeId::kNull:
      // Represent untyped NULL columns as float64-of-nulls.
      type_ = TypeId::kFloat64;
      data_ = FloatVec{};
      break;
  }
}

Column Column::MakeBool(std::vector<uint8_t> v) {
  Column c(TypeId::kBool);
  c.data_ = std::move(v);
  return c;
}
Column Column::MakeInt(std::vector<int64_t> v) {
  Column c(TypeId::kInt64);
  c.data_ = std::move(v);
  return c;
}
Column Column::MakeFloat(std::vector<double> v) {
  Column c(TypeId::kFloat64);
  c.data_ = std::move(v);
  return c;
}
Column Column::MakeString(std::vector<std::string> v) {
  Column c(TypeId::kString);
  c.data_ = std::move(v);
  return c;
}

Column Column::WithNulls(Column col, std::vector<uint8_t> nulls) {
  GOLA_CHECK(nulls.size() == col.size());
  col.nulls_ = std::move(nulls);
  return col;
}

Result<Column> Column::MakeConstant(const Value& v, TypeId type, size_t n) {
  // Numeric constants fill their vector at once: the value Append stores.
  if (!v.is_null() && type == TypeId::kFloat64 && v.ToDouble().ok()) {
    return MakeFloat(std::vector<double>(n, *v.ToDouble()));
  }
  if (!v.is_null() && type == TypeId::kInt64 && v.type() == TypeId::kInt64) {
    return MakeInt(std::vector<int64_t>(n, v.AsInt()));
  }
  Column c(type);
  c.Reserve(n);
  for (size_t i = 0; i < n; ++i) c.Append(v);
  return c;
}

size_t Column::size() const {
  return std::visit([](const auto& vec) { return vec.size(); }, data_);
}

void Column::Reserve(size_t n) {
  std::visit([n](auto& vec) { vec.reserve(n); }, data_);
}

void Column::EnsureNulls() {
  if (nulls_.empty()) nulls_.assign(size(), 0);
}

void Column::AppendNull() {
  EnsureNulls();
  switch (type_) {
    case TypeId::kBool: std::get<BoolVec>(data_).push_back(0); break;
    case TypeId::kInt64: std::get<IntVec>(data_).push_back(0); break;
    case TypeId::kFloat64: std::get<FloatVec>(data_).push_back(0); break;
    case TypeId::kString: std::get<StringVec>(data_).emplace_back(); break;
    case TypeId::kNull: break;
  }
  nulls_.push_back(1);
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case TypeId::kBool:
      GOLA_CHECK(v.type() == TypeId::kBool) << "append " << TypeIdToString(v.type())
                                            << " to BOOL column";
      AppendBool(v.AsBool());
      break;
    case TypeId::kInt64:
      GOLA_CHECK(v.type() == TypeId::kInt64);
      AppendInt(v.AsInt());
      break;
    case TypeId::kFloat64: {
      auto d = v.ToDouble();
      GOLA_CHECK(d.ok()) << "append non-numeric to FLOAT64 column";
      AppendFloat(*d);
      break;
    }
    case TypeId::kString:
      GOLA_CHECK(v.type() == TypeId::kString);
      AppendString(v.AsString());
      break;
    case TypeId::kNull:
      break;
  }
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case TypeId::kBool: return Value::Bool(bools()[i] != 0);
    case TypeId::kInt64: return Value::Int(ints()[i]);
    case TypeId::kFloat64: return Value::Float(floats()[i]);
    case TypeId::kString: return Value::String(strings()[i]);
    case TypeId::kNull: return Value::Null();
  }
  return Value::Null();
}

double Column::NumericAt(size_t i) const {
  if (IsNull(i)) return 0.0;
  switch (type_) {
    case TypeId::kBool: return bools()[i] ? 1.0 : 0.0;
    case TypeId::kInt64: return static_cast<double>(ints()[i]);
    case TypeId::kFloat64: return floats()[i];
    default:
      GOLA_LOG(Fatal) << "NumericAt on " << TypeIdToString(type_);
      return 0.0;
  }
}

Result<std::vector<double>> Column::ToFloat64(std::vector<uint8_t>* valid) const {
  if (type_ == TypeId::kString) {
    return Status::TypeError("cannot widen STRING column to FLOAT64");
  }
  size_t n = size();
  std::vector<double> out(n);
  if (valid) valid->assign(n, 1);
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i)) {
      out[i] = 0.0;
      if (valid) (*valid)[i] = 0;
    } else {
      out[i] = NumericAt(i);
    }
  }
  return out;
}

Column Column::Filter(const std::vector<uint8_t>& sel) const {
  GOLA_CHECK(sel.size() == size());
  // Counting pass so the output is sized exactly once: growth reallocations
  // were measurable allocator churn on large selections, and for string
  // columns every reallocation re-moves the whole payload built so far.
  size_t n_out = 0;
  for (uint8_t s : sel) n_out += s ? 1 : 0;
  Column out(type_);
  std::visit(
      [&](const auto& vec) {
        auto& dst = std::get<std::decay_t<decltype(vec)>>(out.data_);
        dst.reserve(n_out);
        for (size_t i = 0; i < vec.size(); ++i) {
          if (sel[i]) dst.push_back(vec[i]);
        }
      },
      data_);
  if (!nulls_.empty()) {
    out.nulls_.reserve(n_out);
    for (size_t i = 0; i < nulls_.size(); ++i) {
      if (sel[i]) out.nulls_.push_back(nulls_[i]);
    }
  }
  return out;
}

Column Column::Take(const std::vector<int64_t>& indices) const {
  Column out(type_);
  std::visit(
      [&](const auto& vec) {
        auto& dst = std::get<std::decay_t<decltype(vec)>>(out.data_);
        dst.reserve(indices.size());
        for (int64_t idx : indices) dst.push_back(vec[static_cast<size_t>(idx)]);
      },
      data_);
  if (!nulls_.empty()) {
    out.nulls_.reserve(indices.size());
    for (int64_t idx : indices) out.nulls_.push_back(nulls_[static_cast<size_t>(idx)]);
  }
  return out;
}

Column Column::Gather(const uint32_t* indices, size_t n) const {
  Column out(type_);
  std::visit(
      [&](const auto& vec) {
        auto& dst = std::get<std::decay_t<decltype(vec)>>(out.data_);
        dst.reserve(n);
        for (size_t i = 0; i < n; ++i) dst.push_back(vec[indices[i]]);
      },
      data_);
  if (!nulls_.empty()) {
    out.nulls_.reserve(n);
    for (size_t i = 0; i < n; ++i) out.nulls_.push_back(nulls_[indices[i]]);
  }
  return out;
}

Column Column::Slice(size_t offset, size_t length) const {
  GOLA_CHECK(offset + length <= size());
  Column out(type_);
  std::visit(
      [&](const auto& vec) {
        auto& dst = std::get<std::decay_t<decltype(vec)>>(out.data_);
        dst.assign(vec.begin() + offset, vec.begin() + offset + length);
      },
      data_);
  if (!nulls_.empty()) {
    out.nulls_.assign(nulls_.begin() + offset, nulls_.begin() + offset + length);
  }
  return out;
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::TypeError(Format("append %s column to %s column",
                                    TypeIdToString(other.type_), TypeIdToString(type_)));
  }
  size_t old_size = size();
  // Decide up front: "needs a mask" must not be confused with "mask vector
  // non-empty" — appending nullable data to an empty column would otherwise
  // materialize a zero-length mask that reads as "no nulls".
  bool need_nulls = !nulls_.empty() || !other.nulls_.empty();
  std::visit(
      [&](auto& dst) {
        const auto& src = std::get<std::decay_t<decltype(dst)>>(other.data_);
        dst.insert(dst.end(), src.begin(), src.end());
      },
      data_);
  if (need_nulls) {
    nulls_.resize(old_size, 0);  // existing rows are non-null
    if (!other.nulls_.empty()) {
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
    } else {
      nulls_.resize(old_size + other.size(), 0);
    }
  }
  return Status::OK();
}

}  // namespace gola
