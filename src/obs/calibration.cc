#include "obs/calibration.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/string_util.h"
#include "gola/engine.h"

namespace gola {
namespace obs {

namespace {

void AppendBucket(std::string& out, const CoverageBucket& b) {
  out += Format(
      "{\"key\": \"%s\", \"covered\": %lld, \"total\": %lld, \"rate\": %.6g}",
      JsonEscape(b.key).c_str(), static_cast<long long>(b.covered),
      static_cast<long long>(b.total), b.rate());
}

/// Flattens a batch result into (key, column) → value. Keys are rendered
/// exactly like the online cells' keys — Value::ToString joined with '|',
/// "*" without key columns — so online cells and batch truth meet on the
/// same string. `key_columns` and `agg_columns` are the query's output
/// names split by whether the output expression aggregates.
Status FlattenTruth(const Table& truth, const std::vector<std::string>& key_columns,
                    const std::vector<std::string>& agg_columns,
                    std::unordered_map<std::string, std::unordered_map<std::string, double>>* out) {
  const Schema& schema = *truth.schema();
  std::vector<int> key_idx;
  for (const std::string& k : key_columns) {
    auto idx = schema.FieldIndex(k);
    if (!idx.ok()) {
      return Status::PlanError("calibration: truth result lacks group column " + k);
    }
    key_idx.push_back(*idx);
  }
  std::vector<std::pair<std::string, int>> agg_idx;
  for (const std::string& a : agg_columns) {
    auto idx = schema.FieldIndex(a);
    if (!idx.ok()) {
      return Status::PlanError("calibration: truth result lacks aggregate column " + a);
    }
    agg_idx.emplace_back(a, *idx);
  }
  for (int64_t r = 0; r < truth.num_rows(); ++r) {
    std::string key;
    if (key_idx.empty()) {
      key = "*";
    } else {
      for (size_t i = 0; i < key_idx.size(); ++i) {
        if (i) key += '|';
        key += truth.At(r, key_idx[i]).ToString();
      }
    }
    for (const auto& [name, idx] : agg_idx) {
      const Result<double> v = truth.At(r, idx).ToDouble();
      if (v.ok()) (*out)[key][name] = *v;
    }
  }
  return Status::OK();
}

}  // namespace

std::string CalibrationReport::ToJson() const {
  std::string out = Format(
      "{\"name\": \"%s\", \"sql\": \"%s\", \"nominal\": %.4g, "
      "\"seeds\": %d, \"num_batches\": %d, ",
      JsonEscape(name).c_str(), JsonEscape(sql).c_str(), nominal, seeds,
      num_batches);
  out += "\"overall\": ";
  AppendBucket(out, overall);
  out += ", \"final_update\": ";
  AppendBucket(out, final_update);
  out += ", \"by_update\": [";
  for (size_t i = 0; i < by_update.size(); ++i) {
    if (i) out += ", ";
    AppendBucket(out, by_update[i]);
  }
  out += "], \"by_decile\": [";
  for (size_t i = 0; i < by_decile.size(); ++i) {
    if (i) out += ", ";
    AppendBucket(out, by_decile[i]);
  }
  out += Format("], \"cells_missing_truth\": %lld, "
                "\"cells_without_estimate\": %lld}",
                static_cast<long long>(cells_missing_truth),
                static_cast<long long>(cells_without_estimate));
  return out;
}

Result<CalibrationReport> RunCalibration(Engine* engine,
                                         const CalibrationSpec& spec) {
  CalibrationReport report;
  report.name = spec.name;
  report.sql = spec.sql;
  report.nominal = spec.ci_level;
  report.seeds = spec.seeds;
  report.num_batches = spec.num_batches;
  report.overall.key = "overall";
  report.final_update.key = "final_update";
  report.by_update.resize(spec.num_batches);
  for (int u = 0; u < spec.num_batches; ++u) {
    report.by_update[u].key = Format("update %d", u + 1);
  }

  // --- ground truth (exact batch engine) ---------------------------------
  GOLA_ASSIGN_OR_RETURN(Table truth, engine->ExecuteBatch(spec.sql));
  if (truth.num_rows() == 0) {
    return Status::ExecutionError("calibration: truth result is empty");
  }

  // --- per-group sizes → deciles (optional) ------------------------------
  std::unordered_map<std::string, int64_t> group_sizes;
  if (!spec.count_sql.empty()) {
    GOLA_ASSIGN_OR_RETURN(Table counts, engine->ExecuteBatch(spec.count_sql));
    const Schema& cs = *counts.schema();
    // Convention: every column except the last is a key; the last is the
    // COUNT(*).
    const int ccols = static_cast<int>(cs.num_fields());
    if (ccols < 2) {
      return Status::PlanError(
          "calibration: count_sql must return key column(s) + COUNT(*)");
    }
    for (int64_t r = 0; r < counts.num_rows(); ++r) {
      std::string key;
      for (int c = 0; c + 1 < ccols; ++c) {
        if (c) key += '|';
        key += counts.At(r, c).ToString();
      }
      const Result<double> n = counts.At(r, ccols - 1).ToDouble();
      if (n.ok()) group_sizes[key] = static_cast<int64_t>(*n);
    }
  }
  std::unordered_map<std::string, int> group_decile;
  if (!group_sizes.empty()) {
    std::vector<std::pair<int64_t, std::string>> ordered;
    ordered.reserve(group_sizes.size());
    for (const auto& [key, n] : group_sizes) ordered.emplace_back(n, key);
    std::sort(ordered.begin(), ordered.end());
    report.by_decile.resize(10);
    for (int d = 0; d < 10; ++d) {
      report.by_decile[d].key = Format("decile %d", d + 1);
    }
    for (size_t i = 0; i < ordered.size(); ++i) {
      // Decile 1 = smallest groups; smallest-first so the rare-group bucket
      // is always decile 1 regardless of skew.
      const int d = std::min<int>(
          9, static_cast<int>(i * 10 / std::max<size_t>(ordered.size(), 1)));
      group_decile[ordered[i].second] = d;
    }
  }

  // --- online replays ----------------------------------------------------
  // Truth keyed the same way the online cells are; the key and aggregate
  // columns are the query's own output split, so truth lookup never depends
  // on the batch engine's column order.
  std::unordered_map<std::string, std::unordered_map<std::string, double>> truth_map;
  bool truth_ready = false;

  for (int s = 0; s < spec.seeds; ++s) {
    GolaOptions opts;
    opts.num_batches = spec.num_batches;
    opts.bootstrap_replicates = spec.bootstrap_replicates;
    opts.ci_level = spec.ci_level;
    opts.seed = spec.base_seed + static_cast<uint64_t>(s);
    GOLA_ASSIGN_OR_RETURN(auto exec, engine->ExecuteOnline(spec.sql, opts));
    if (!truth_ready) {
      std::vector<std::string> agg_columns, key_columns;
      const BlockDef& root = exec->query().root();
      for (size_t o = 0; o < root.output_exprs.size(); ++o) {
        (root.output_exprs[o]->ContainsAggregate() ? agg_columns : key_columns)
            .push_back(root.output_names[o]);
      }
      if (agg_columns.empty()) {
        return Status::ExecutionError("calibration: the query has no aggregate column");
      }
      GOLA_RETURN_NOT_OK(FlattenTruth(truth, key_columns, agg_columns, &truth_map));
      truth_ready = true;
    }
    int update_index = 0;
    while (!exec->done()) {
      GOLA_RETURN_NOT_OK(exec->Step().status());
      const std::vector<GroupCell>& cells = exec->cells();

      const int u = std::min(update_index, spec.num_batches - 1);
      for (const GroupCell& cell : cells) {
        if (!cell.has_estimate) {
          ++report.cells_without_estimate;
          continue;
        }
        auto group_it = truth_map.find(cell.group_key);
        if (group_it == truth_map.end()) {
          ++report.cells_missing_truth;
          continue;
        }
        auto value_it = group_it->second.find(cell.column);
        if (value_it == group_it->second.end()) {
          ++report.cells_missing_truth;
          continue;
        }
        const double t = value_it->second;
        const bool covered = t >= cell.ci_lo && t <= cell.ci_hi;
        auto count = [&](CoverageBucket& b) {
          ++b.total;
          if (covered) ++b.covered;
        };
        count(report.overall);
        count(report.by_update[u]);
        if (exec->done()) count(report.final_update);
        if (!group_decile.empty()) {
          auto d = group_decile.find(cell.group_key);
          if (d != group_decile.end()) count(report.by_decile[d->second]);
        }
      }
      ++update_index;
    }
  }
  if (report.overall.total == 0) {
    return Status::ExecutionError(
        "calibration: no cell observations (did the query aggregate?)");
  }
  return report;
}

}  // namespace obs
}  // namespace gola
