#include "src/tools/cli.hpp"

#include <cstdlib>
#include <iostream>

#include "src/designs/designs.hpp"
#include "src/util/io.hpp"
#include "src/util/strings.hpp"

namespace bb::tools {

Cli::Cli(std::string tool, std::string operands, std::size_t min_operands,
         std::size_t max_operands, std::string notes)
    : tool_(std::move(tool)),
      operands_(std::move(operands)),
      min_operands_(min_operands),
      max_operands_(max_operands),
      notes_(std::move(notes)) {}

Cli& Cli::add(std::string name, std::string metavar, const char* env,
              std::function<std::string(const std::string&)> set) {
  options_.push_back(
      Option{std::move(name), std::move(metavar), env, std::move(set)});
  return *this;
}

Cli& Cli::flag(std::string name, bool* out, bool value) {
  return add(std::move(name), "", nullptr, [out, value](const std::string&) {
    *out = value;
    return std::string();
  });
}

Cli& Cli::flag(std::string name, std::function<void()> fn) {
  return add(std::move(name), "", nullptr,
             [fn = std::move(fn)](const std::string&) {
               fn();
               return std::string();
             });
}

Cli& Cli::text(std::string name, std::string metavar, std::string* out,
               const char* env) {
  return add(std::move(name), std::move(metavar), env,
             [out](const std::string& v) {
               *out = v;
               return std::string();
             });
}

Cli& Cli::text(std::string name, std::string metavar,
               std::vector<std::string>* out) {
  return add(std::move(name), std::move(metavar), nullptr,
             [out](const std::string& v) {
               out->push_back(v);
               return std::string();
             });
}

Cli& Cli::choice(std::string name, std::vector<std::string> values,
                 std::string* out) {
  const std::string metavar = util::join(values, "|");
  return add(std::move(name), metavar, nullptr,
             [out, values = std::move(values), metavar](const std::string& v) {
               for (const std::string& allowed : values) {
                 if (v == allowed) {
                   *out = v;
                   return std::string();
                 }
               }
               return "expects one of " + metavar + ", got '" + v + "'";
             });
}

Cli& Cli::add_integer(std::string name, long long min, long long max,
                      std::function<void(long long)> store,
                      const char* env) {
  return add(std::move(name), "N", env,
             [min, max, store = std::move(store)](const std::string& v) {
               const auto parsed = util::parse_ll(v);
               if (!parsed || *parsed < min || *parsed > max) {
                 return "expects an integer in [" + std::to_string(min) +
                        ", " + std::to_string(max) + "], got '" + v + "'";
               }
               store(*parsed);
               return std::string();
             });
}

Cli& Cli::observability() {
  return text("--trace", "FILE", &trace_path_, "BB_TRACE")
      .text("--metrics", "FILE", &metrics_path_, "BB_METRICS");
}

void Cli::apply(const Option& option, const std::string& source,
                const std::string& value) const {
  const std::string error = option.set(value);
  if (!error.empty()) fail(source + " " + error);
}

std::vector<std::string> Cli::parse(int argc, char** argv) {
  std::vector<std::string> operands;
  std::vector<bool> seen(options_.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      operands.push_back(arg);
      continue;
    }
    std::size_t k = 0;
    while (k < options_.size() && options_[k].name != arg) ++k;
    if (k == options_.size()) fail("unknown flag '" + arg + "'");
    seen[k] = true;
    if (options_[k].metavar.empty()) {
      apply(options_[k], arg, "");
    } else if (i + 1 < argc) {
      apply(options_[k], arg, argv[++i]);
    } else {
      fail(arg + " needs a value (" + options_[k].metavar + ")");
    }
  }
  for (std::size_t k = 0; k < options_.size(); ++k) {
    const char* env = options_[k].env;
    const char* value = env != nullptr ? std::getenv(env) : nullptr;
    if (!seen[k] && value != nullptr && *value != '\0') {
      apply(options_[k], env, value);
    }
  }
  if (operands.size() < min_operands_ || operands.size() > max_operands_) {
    fail("expects " +
         (min_operands_ == max_operands_
              ? std::to_string(min_operands_)
              : std::to_string(min_operands_) + " to " +
                    std::to_string(max_operands_)) +
         " operand(s), got " + std::to_string(operands.size()));
  }
  return operands;
}

std::string Cli::usage() const {
  std::string out = "usage: " + tool_;
  if (!operands_.empty()) out += " " + operands_;
  for (const Option& option : options_) {
    out += " [" + option.name;
    if (!option.metavar.empty()) out += " " + option.metavar;
    out += "]";
  }
  out += "\n";
  if (!notes_.empty()) out += notes_ + "\n";
  return out;
}

void Cli::fail(const std::string& reason) const {
  std::cerr << tool_ << ": " << reason << "\n" << usage();
  std::exit(2);
}

std::string load_design(const std::string& tool, const std::string& arg) {
  for (const auto* d : designs::all_designs()) {
    if (d->name == arg) return d->source;
  }
  if (auto text = util::read_file(arg)) return *std::move(text);
  std::cerr << tool << ": cannot open '" << arg
            << "' (and it is not a built-in design)\n";
  std::exit(1);
}

void write_json_artifact(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  util::write_file_atomic(path, json + "\n");
  std::cout << "wrote " << path << "\n";
}

}  // namespace bb::tools
