// Shared helpers for the experiment harnesses in bench/.
//
// Every bench binary reproduces one table or figure of the paper (see
// DESIGN.md §4): it runs standalone with scaled-down defaults that finish in
// seconds, prints the paper's row/series structure as an aligned text table
// plus a machine-readable CSV block, and accepts flags (--rows, --scale,
// --seed, ...) to push towards paper scale.

#ifndef FASTOFD_BENCH_BENCH_COMMON_H_
#define FASTOFD_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "common/flags.h"
#include "common/parse.h"
#include "common/timer.h"

namespace fastofd::bench {

/// Prints the experiment banner.
inline void Banner(const std::string& id, const std::string& what,
                   const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("paper reference: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

/// A per-process scratch directory, `$TMPDIR/<name>_<pid>` (or under /tmp),
/// created empty and removed with its contents when it goes out of scope:
/// concurrent runs never share files, and a finished run leaves none.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    const char* tmp = std::getenv("TMPDIR");
    path_ = std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name + "_" +
            std::to_string(getpid());
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    ok_ = std::filesystem::create_directories(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  bool ok() const { return ok_; }

 private:
  std::string path_;
  bool ok_ = false;
};

/// Accumulates an aligned text table + CSV twin.
class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  /// Adds a row of preformatted cells (must match the column count).
  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Prints the aligned table followed by a CSV block.
  void Print() const {
    std::vector<size_t> width(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        if (row[c].size() > width[c]) width[c] = row[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(columns_);
    std::string rule;
    for (size_t c = 0; c < columns_.size(); ++c) {
      rule += std::string(width[c], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);

    std::printf("\n# CSV\n");
    auto print_csv = [](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%s%s", c ? "," : "", row[c].c_str());
      }
      std::printf("\n");
    };
    print_csv(columns_);
    for (const auto& row : rows_) print_csv(row);
    std::printf("\n");
  }

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// JSON-escapes a table cell; cells that parse completely as numbers are
/// emitted raw so downstream tooling gets real numbers, not strings.
inline std::string JsonCell(const std::string& cell) {
  if (!cell.empty()) {
    Result<double> parsed = ParseDouble(cell);
    if (parsed.ok() && std::isfinite(parsed.value())) return cell;
  }
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// Serializes a table as {"bench": id, "columns": [...], "rows": [[...]]}.
inline std::string TableJson(const std::string& id, const Table& table) {
  std::string out = "{\"bench\": \"" + id + "\", \"columns\": [";
  for (size_t c = 0; c < table.columns().size(); ++c) {
    out += (c ? ", " : "") + JsonCell(table.columns()[c]);
  }
  out += "], \"rows\": [";
  for (size_t r = 0; r < table.rows().size(); ++r) {
    out += r ? ", [" : "[";
    for (size_t c = 0; c < table.rows()[r].size(); ++c) {
      out += (c ? ", " : "") + JsonCell(table.rows()[r][c]);
    }
    out += "]";
  }
  out += "]}";
  return out;
}

/// Honors `--json=<path>`: writes the table (appending when the path was
/// already written to by this process, so multi-table benches emit NDJSON).
inline void WriteJsonIfRequested(const Flags& flags, const std::string& id,
                                 const Table& table) {
  static std::vector<std::string> written;
  std::string path = flags.GetString("json", "");
  if (path.empty()) return;
  bool append = false;
  for (const std::string& p : written) append |= (p == path);
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  if (!append) written.push_back(path);
  std::string json = TableJson(id, table);
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

/// printf-style std::string.
inline std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Times a callable once, in seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  Timer timer;
  fn();
  return timer.Seconds();
}

}  // namespace fastofd::bench

#endif  // FASTOFD_BENCH_BENCH_COMMON_H_
