// Command-line front end shared by the bench harnesses and the tools: a
// strict declared-flag parser, an ordered JSON value that is valid by
// construction, and the report writer every JSON bench ends with.
//
// Exit codes follow one rule across every binary: 0 ok, 1 a gate or domain
// failure, 2 a usage or I/O error. A bad command line is a usage error
// reported before any work starts, as `error: <flag>: <reason>` followed by
// the usage text.
//
// Header-only and free of any vdc_* library, so the linter and the tests
// can use it as well as the benches and tools.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace vdc::cli {

// ---- JSON -------------------------------------------------------------------

/// Appends `s` to `out` as the body of a JSON string literal.
inline void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

/// An ordered JSON value. Objects keep insertion order and numbers are
/// rendered when stored (integers exactly, doubles at shortest round-trip
/// precision, non-finite doubles as null), so every dump is valid JSON.
class Json {
 public:
  Json() = default;  ///< null
  Json(std::nullptr_t) {}
  Json(bool b) : kind_(Kind::kLiteral), text_(b ? "true" : "false") {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json(T v) : kind_(Kind::kLiteral), text_(std::to_string(v)) {}
  Json(double v) : kind_(Kind::kLiteral), text_(format_double(v)) {}
  Json(std::string_view s) : kind_(Kind::kString), text_(s) {}
  Json(const char* s) : Json(std::string_view(s)) {}
  Json(const std::string& s) : Json(std::string_view(s)) {}

  static Json object(std::initializer_list<std::pair<std::string_view, Json>> members = {}) {
    Json out;
    out.kind_ = Kind::kObject;
    for (const auto& [key, value] : members) out.set(key, value);
    return out;
  }
  static Json array(std::initializer_list<Json> items = {}) {
    Json out;
    out.kind_ = Kind::kArray;
    out.items_ = items;
    return out;
  }

  /// Sets `key` on an object: a new key goes last, an existing one keeps
  /// its place.
  Json& set(std::string_view key, Json value) {
    if (kind_ != Kind::kObject) throw std::logic_error("Json::set on a non-object");
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    if (it != keys_.end()) {
      items_[static_cast<std::size_t>(it - keys_.begin())] = std::move(value);
    } else {
      keys_.emplace_back(key);
      items_.push_back(std::move(value));
    }
    return *this;
  }

  /// Appends to an array.
  Json& push(Json value) {
    if (kind_ != Kind::kArray) throw std::logic_error("Json::push on a non-array");
    items_.push_back(std::move(value));
    return *this;
  }

  /// The document, newline-terminated. Containers holding only scalars stay
  /// on one line; any other container puts each item on its own line.
  [[nodiscard]] std::string dump() const {
    std::string out;
    write(out, 0);
    out += '\n';
    return out;
  }

 private:
  enum class Kind { kNull, kLiteral, kString, kArray, kObject };

  static std::string format_double(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
  }

  [[nodiscard]] bool is_container() const {
    return kind_ == Kind::kArray || kind_ == Kind::kObject;
  }

  void write(std::string& out, std::size_t depth) const {
    switch (kind_) {
      case Kind::kNull: out += "null"; return;
      case Kind::kLiteral: out += text_; return;
      case Kind::kString:
        out += '"';
        json_escape(out, text_);
        out += '"';
        return;
      case Kind::kArray:
      case Kind::kObject: break;
    }
    const bool object = kind_ == Kind::kObject;
    const bool flat = std::none_of(items_.begin(), items_.end(),
                                   [](const Json& item) { return item.is_container(); });
    out += object ? '{' : '[';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) out += flat ? ", " : ",";
      if (!flat) out.append("\n").append(2 * (depth + 1), ' ');
      if (object) {
        out += '"';
        json_escape(out, keys_[i]);
        out += "\": ";
      }
      items_[i].write(out, depth + 1);
    }
    if (!flat && !items_.empty()) out.append("\n").append(2 * depth, ' ');
    out += object ? '}' : ']';
  }

  Kind kind_ = Kind::kNull;
  std::string text_;               ///< literal text or unescaped string
  std::vector<std::string> keys_;  ///< object keys, parallel to items_
  std::vector<Json> items_;
};

// ---- reports ----------------------------------------------------------------

/// Writes `report` to `path` and prints `# wrote PATH`. Returns the exit
/// code: 0, or 2 after a message on stderr when the file cannot be written.
[[nodiscard]] inline int write_report(const std::string& path, const Json& report) {
  std::ofstream out(path);
  out << report.dump();
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("# wrote %s\n", path.c_str());
  return 0;
}

/// CPU model from /proc/cpuinfo, or "unknown" where there is none: rates
/// measured on different hosts are not comparable.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) return line.substr(start);
    break;
  }
  return "unknown";
}

#if defined(VDC_BENCH_COMPILER)
/// The `provenance` object of every bench report: the build that measured
/// it (stamped by the vdc_bench() CMake function) and the host it ran on.
inline Json provenance() {
  return Json::object({{"compiler", VDC_BENCH_COMPILER},
                       {"build_type", VDC_BENCH_BUILD_TYPE},
                       {"cxx_flags", VDC_BENCH_CXX_FLAGS},
                       {"vdc_checks", static_cast<bool>(VDC_BENCH_CHECKS)},
                       {"hardware_concurrency", std::thread::hardware_concurrency()},
                       {"cpu_model", cpu_model()}});
}

/// A bench report's opening keys: `bench`, `mode` and `provenance`.
inline Json bench_report(std::string_view bench, bool quick) {
  return Json::object(
      {{"bench", bench}, {"mode", quick ? "quick" : "full"}, {"provenance", provenance()}});
}
#endif

// ---- flags ------------------------------------------------------------------

/// A declared-flag parser. Each flag is bound to a variable holding its
/// default, which parsing overwrites when the flag is given. Numbers must
/// use their whole text (`1e9x` is malformed), unsigned flags reject a sign
/// and doubles must be finite.
class Parser {
 public:
  /// `synopsis` is the usage line after "usage: ".
  explicit Parser(std::string synopsis) : synopsis_(std::move(synopsis)) {}

  /// A switch: given, it sets `target` to true.
  Parser& flag(std::string name, bool& target, std::string help) {
    return add(std::move(name), "", std::move(help), [&target](std::string_view) {
      target = true;
      return std::string();
    });
  }

  /// An unsigned integer (std::size_t, std::uint64_t) or a finite double.
  template <typename T>
    requires std::unsigned_integral<T> || std::same_as<T, double>
  Parser& option(std::string name, T& target, std::string metavar, std::string help) {
    return add(std::move(name), std::move(metavar), std::move(help),
               [&target](std::string_view text) { return parse_number(text, target); });
  }

  Parser& option(std::string name, std::string& target, std::string metavar,
                 std::string help) {
    return add(std::move(name), std::move(metavar), std::move(help),
               [&target](std::string_view text) {
                 target = text;
                 return std::string();
               });
  }

  /// A comma-separated list of finite doubles.
  Parser& option(std::string name, std::vector<double>& target, std::string metavar,
                 std::string help) {
    return add(std::move(name), std::move(metavar), std::move(help),
               [&target](std::string_view text) -> std::string {
                 std::vector<double> values(
                     1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), ',')));
                 for (double& value : values) {
                   const std::string_view cell = text.substr(0, text.find(','));
                   if (std::string reason = parse_number(cell, value); !reason.empty()) {
                     return reason;
                   }
                   text.remove_prefix(std::min(cell.size() + 1, text.size()));
                 }
                 target = std::move(values);
                 return {};
               });
  }

  /// One of a fixed set of names, each mapped to a value of `T`.
  template <typename T>
  Parser& choice(std::string name, T& target, std::vector<std::pair<std::string, T>> choices,
                 std::string help) {
    std::string names;
    for (const auto& entry : choices) names += (names.empty() ? "" : "|") + entry.first;
    return add(std::move(name), names, std::move(help),
               [&target, choices = std::move(choices), names](std::string_view text) {
                 for (const auto& [key, value] : choices) {
                   if (key == text) {
                     target = value;
                     return std::string();
                   }
                 }
                 return "expected one of " + names + got(text);
               });
  }

  /// Parses `argv[first..argc)`. Returns "" on success, else
  /// "<flag>: <reason>".
  [[nodiscard]] std::string try_parse(int argc, const char* const* argv, int first = 1) const {
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                     [arg](const Flag& f) { return f.name == arg; });
      if (flag == flags_.end()) {
        return std::string(arg) +
               (arg.starts_with("-") ? ": unknown flag" : ": unexpected argument");
      }
      if (flag->metavar.empty()) {
        (void)flag->set({});
        continue;
      }
      if (i + 1 >= argc) return flag->name + ": missing value";
      const std::string reason = flag->set(argv[++i]);
      if (!reason.empty()) return flag->name + ": " + reason;
    }
    return {};
  }

  /// try_parse; on an error, fail() with it.
  void parse(int argc, const char* const* argv, int first = 1) const {
    const std::string error = try_parse(argc, argv, first);
    if (!error.empty()) fail(error);
  }

  /// Prints `error: <message>` and the usage text to stderr and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "error: %s\n%s", message.c_str(), usage().c_str());
    std::exit(2);
  }

  [[nodiscard]] std::string usage() const {
    std::string out = "usage: " + synopsis_ + "\n";
    for (const Flag& f : flags_) {
      std::string line = "  " + f.name + (f.metavar.empty() ? "" : " " + f.metavar);
      line.resize(std::max<std::size_t>(line.size() + 2, 30), ' ');
      out += line + f.help + "\n";
    }
    return out;
  }

 private:
  /// Stores a value and returns "", or returns why the text is malformed.
  using Setter = std::function<std::string(std::string_view)>;

  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a switch
    std::string help;
    Setter set;
  };

  static std::string got(std::string_view text) { return ", got '" + std::string(text) + "'"; }

  /// Reads the whole of `text` into `target`, or returns why it cannot.
  template <typename T>
  static std::string parse_number(std::string_view text, T& target) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc() && ptr == end && std::isfinite(static_cast<double>(value))) {
      target = value;
      return {};
    }
    if constexpr (std::floating_point<T>) {
      return "expected a finite number" + got(text);
    } else {
      return "expected an integer in 0.." + std::to_string(std::numeric_limits<T>::max()) +
             got(text);
    }
  }

  Parser& add(std::string name, std::string metavar, std::string help, Setter set) {
    flags_.push_back(Flag{std::move(name), std::move(metavar), std::move(help), std::move(set)});
    return *this;
  }

  std::string synopsis_;
  std::vector<Flag> flags_;
};

}  // namespace vdc::cli
