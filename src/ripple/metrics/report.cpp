#include "ripple/metrics/report.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>

#include "ripple/common/error.hpp"
#include "ripple/common/json.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::metrics {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ensure(!headers_.empty(), Errc::invalid_argument,
         "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  ensure(cells.size() == headers_.size(), Errc::invalid_argument, "row has ",
         cells.size(), " cells, table has ", headers_.size(), " columns");
  rows_.push_back(std::move(cells));
}

void Table::add_row_values(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (const double v : values) {
    cells.push_back(strutil::format_fixed(v, precision));
  }
  add_row(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out += strutil::pad_left(cells[c], widths[c]);
      out += (c + 1 == cells.size()) ? "\n" : "  ";
    }
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (const std::size_t w : widths) rule += w + 2;
  out += std::string(rule > 2 ? rule - 2 : rule, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string Table::to_csv() const {
  const auto escape_cell = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string quoted = "\"";
    for (const char ch : cell) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ',';
    out += escape_cell(headers_[c]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      out += escape_cell(row[c]);
    }
    out += '\n';
  }
  return out;
}

void Table::write_csv(const std::string& path) const {
  std::ofstream file(path);
  ensure(static_cast<bool>(file), Errc::io_error, "cannot write '", path, "'");
  file << to_csv();
}

namespace {

/// The whole cell parses as a finite double (the CSV convention the
/// benches already follow for numeric columns). Non-finite values stay
/// strings: a bare `inf`/`nan` would make the emitted JSON invalid.
std::optional<double> cell_as_number(const std::string& cell) {
  if (cell.empty()) return std::nullopt;
  double value = 0.0;
  const char* end = cell.data() + cell.size();
  const auto [parsed, errc] = std::from_chars(cell.data(), end, value);
  if (errc != std::errc{} || parsed != end) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace

std::string Table::to_json() const {
  json::Value rows = json::Value::array();
  for (const auto& row : rows_) {
    json::Value obj = json::Value::object();
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (const auto number = cell_as_number(row[c])) {
        obj.set(headers_[c], *number);
      } else {
        obj.set(headers_[c], row[c]);
      }
    }
    rows.push_back(std::move(obj));
  }
  return rows.dump(2);
}

void Table::write_json(const std::string& path) const {
  std::ofstream file(path);
  ensure(static_cast<bool>(file), Errc::io_error, "cannot write '", path, "'");
  file << to_json() << '\n';
}

std::string mean_pm_std(const common::Summary& summary) {
  if (summary.empty()) return "n/a";
  return strutil::cat(strutil::format_duration(summary.mean()), " +/- ",
                      strutil::format_duration(summary.stddev()));
}

std::string banner(const std::string& title) {
  return strutil::cat("\n== ", title, " ==\n");
}

}  // namespace ripple::metrics
