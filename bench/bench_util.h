// Shared harness utilities for the figure-reproduction benchmarks: a strict
// --key=value flag parser and fixed-width table printing so each binary
// emits the same rows/series its paper figure reports.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace mlkv::bench {

// Strict --name[=value] parser. Each binary passes the names it reads;
// --help, --smoke and the simulated-NVMe cost flags are always accepted.
// Any other name prints "unknown flag --name", and a numeric flag whose
// value does not fully parse prints "bad value", both exiting 2, so a typo
// or a stale script never silently runs the default config.
class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<std::string_view> known) {
    static constexpr std::string_view kAlways[] = {
        "help", "smoke", "nvme_read_us", "nvme_read_gbps", "nvme_write_gbps"};
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      std::string name = arg.substr(0, eq);
      if (std::find(known.begin(), known.end(), name) == known.end() &&
          std::find(std::begin(kAlways), std::end(kAlways), name) ==
              std::end(kAlways)) {
        std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
        std::exit(2);
      }
      kv_.emplace_back(std::move(name),
                       eq == std::string::npos ? "1" : arg.substr(eq + 1));
    }
  }

  int64_t Int(const std::string& name, int64_t def) const {
    const std::string* v = Find(name);
    if (v == nullptr) return def;
    char* end = nullptr;
    errno = 0;
    const int64_t x = std::strtoll(v->c_str(), &end, 10);
    if (v->empty() || *end != '\0' || errno != 0) BadValue(name, *v);
    return x;
  }
  double Double(const std::string& name, double def) const {
    const std::string* v = Find(name);
    if (v == nullptr) return def;
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0' || errno != 0) BadValue(name, *v);
    return x;
  }
  bool Bool(const std::string& name, bool def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : *v != "0" && *v != "false";
  }
  std::string Str(const std::string& name, const std::string& def) const {
    const std::string* v = Find(name);
    return v == nullptr ? def : *v;
  }
  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  // --smoke: CI sanity mode. Every bench binary must finish in seconds.
  bool Smoke() const { return Bool("smoke", false); }

  // Flag value with a separate tiny default under --smoke. An explicit
  // --name=value always wins over both defaults.
  int64_t Int(const std::string& name, int64_t def, int64_t smoke_def) const {
    if (Has(name)) return Int(name, def);
    return Smoke() ? smoke_def : def;
  }
  std::string Str(const std::string& name, const std::string& def,
                  const std::string& smoke_def) const {
    if (Has(name)) return Str(name, def);
    return Smoke() ? smoke_def : def;
  }

 private:
  const std::string* Find(const std::string& name) const {
    for (const auto& [k, v] : kv_) {
      if (k == name) return &v;
    }
    return nullptr;
  }
  [[noreturn]] static void BadValue(const std::string& name,
                                    const std::string& v) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", name.c_str(),
                 v.c_str());
    std::exit(2);
  }

  std::vector<std::pair<std::string, std::string>> kv_;
};

// Fixed-width table: Header(...) then Row(...) with matching arity.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {}

  void PrintHeader() const {
    for (const auto& c : columns_) std::printf("%-*s", width_, c.c_str());
    std::printf("\n");
    for (size_t i = 0; i < columns_.size() * static_cast<size_t>(width_); ++i) {
      std::printf("-");
    }
    std::printf("\n");
  }

  void Cell(const std::string& s) { cells_.push_back(s); }
  void Cell(double v, const char* fmt = "%.2f") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    cells_.emplace_back(buf);
  }
  void Cell(uint64_t v) { cells_.push_back(std::to_string(v)); }
  void Cell(int64_t v) { cells_.push_back(std::to_string(v)); }
  void Cell(int v) { cells_.push_back(std::to_string(v)); }

  void EndRow() {
    for (const auto& c : cells_) std::printf("%-*s", width_, c.c_str());
    std::printf("\n");
    std::fflush(stdout);
    cells_.clear();
  }

 private:
  std::vector<std::string> columns_;
  int width_;
  std::vector<std::string> cells_;
};

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
}

// Pretty throughput: "12.3K" / "4.5M".
inline std::string Human(double v) {
  char buf[32];
  if (v >= 1e6) std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  else if (v >= 1e3) std::snprintf(buf, sizeof(buf), "%.1fK", v / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

}  // namespace mlkv::bench
