#include "support/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/error.h"

namespace usw {

void TextTable::set_header(std::vector<std::string> header) {
  USW_ASSERT_MSG(rows_.empty(), "set_header after rows were added");
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  USW_ASSERT_MSG(header_.empty() || row.size() == header_.size(),
                 "row width does not match header");
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::pct(double ratio, int precision) {
  return num(ratio * 100.0, precision) + "%";
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&width](const std::vector<std::string>& row) {
    if (row.size() > width.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  if (!title_.empty()) os << "=== " << title_ << " ===\n";
  auto emit = [&os, &width](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(width[i])) << row[i];
      if (i + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : width) total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
}

std::string TextTable::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace usw
