// The one command-line front door shared by every tool in src/tools.
//
// A tool declares each flag once, in a table, and parse() does the rest:
//
//   bb::tools::Cli cli("bb-top", "", 0, 0);
//   cli.text("--socket", "PATH", &socket_path)
//       .integer("--interval-ms", 10, 3600000, &interval_ms)
//       .flag("--no-clear", &clear, false);
//   cli.parse(argc, argv);
//
// Flags may appear anywhere among the operands.  Every integer is
// range-checked; a flag with an environment fallback reads the variable
// only when the flag is absent, and the value passes through the same
// check.  On any error the tool prints the reason and a usage line
// generated from the table, then exits 2 (the tools' usage status).
// Values one flag implies for another are resolved by the tool after
// parse(), so the order of flags on the command line never matters.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace bb::tools {

class Cli {
 public:
  /// `operands` is the operand part of the usage line; parse() accepts
  /// between `min_operands` and `max_operands` of them.  `notes` (may be
  /// empty) follows the usage line, e.g. the list of built-in designs.
  Cli(std::string tool, std::string operands, std::size_t min_operands,
      std::size_t max_operands, std::string notes = "");
  // The table's setters point into this object (observability()), so it
  // stays where it was built.
  Cli(const Cli&) = delete;
  Cli& operator=(const Cli&) = delete;

  /// A valueless flag that stores `value` in `*out`.
  Cli& flag(std::string name, bool* out, bool value = true);
  /// A valueless flag that runs `fn`.
  Cli& flag(std::string name, std::function<void()> fn);
  /// A string-valued flag; `env` (may be null) names its fallback.
  Cli& text(std::string name, std::string metavar, std::string* out,
            const char* env = nullptr);
  /// A string-valued flag that may repeat; each value is appended.
  Cli& text(std::string name, std::string metavar,
            std::vector<std::string>* out);
  /// A string-valued flag restricted to `values`.
  Cli& choice(std::string name, std::vector<std::string> values,
              std::string* out);
  /// An integer-valued flag checked against [min, max].
  template <typename T>
  Cli& integer(std::string name, long long min, long long max, T* out,
               const char* env = nullptr) {
    return add_integer(std::move(name), min, max,
                       [out](long long v) { *out = static_cast<T>(v); }, env);
  }
  /// `--trace FILE` and `--metrics FILE`, with the BB_TRACE/BB_METRICS
  /// fallbacks; the values feed obs::Session.
  Cli& observability();

  /// Parses argv[1..argc), applies the environment fallbacks and returns
  /// the operands.  Exits 2 with a usage line on any error.
  std::vector<std::string> parse(int argc, char** argv);

  /// Prints "<tool>: <reason>" and the usage line, then exits 2.
  [[noreturn]] void fail(const std::string& reason) const;

  /// The generated usage text (usage line plus notes).
  std::string usage() const;

  const std::string& trace_path() const { return trace_path_; }
  const std::string& metrics_path() const { return metrics_path_; }

 private:
  struct Option {
    std::string name;
    std::string metavar;  ///< empty for a valueless flag
    const char* env = nullptr;
    /// Applies one value; returns an error text, empty on success.
    std::function<std::string(const std::string&)> set;
  };

  Cli& add(std::string name, std::string metavar, const char* env,
           std::function<std::string(const std::string&)> set);
  Cli& add_integer(std::string name, long long min, long long max,
                   std::function<void(long long)> store, const char* env);
  void apply(const Option& option, const std::string& source,
             const std::string& value) const;

  std::string tool_;
  std::string operands_;
  std::size_t min_operands_;
  std::size_t max_operands_;
  std::string notes_;
  std::vector<Option> options_;
  std::string trace_path_;
  std::string metrics_path_;
};

/// The source of a built-in evaluation design named `arg`, else the
/// contents of the file `arg`.  Exits 1 when it is neither.
std::string load_design(const std::string& tool, const std::string& arg);

/// Writes `json` plus a newline to `path` atomically and prints
/// "wrote <path>"; does nothing when `path` is empty.
void write_json_artifact(const std::string& path, const std::string& json);

}  // namespace bb::tools
