#include "src/serve/codec.hpp"

#include <cstdio>

#include "src/util/strings.hpp"

namespace bb::serve {

namespace {

/// Renders a bit vector as a '0'/'1' string, "-" when empty (so every
/// record occupies exactly one line even for state-free controllers).
std::string bits_to_string(const std::vector<bool>& bits) {
  if (bits.empty()) return "-";
  std::string s;
  s.reserve(bits.size());
  for (const bool b : bits) s += b ? '1' : '0';
  return s;
}

bool bits_from_string(std::string_view s, std::vector<bool>& out) {
  out.clear();
  if (s == "-") return true;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '0') {
      out.push_back(false);
    } else if (c == '1') {
      out.push_back(true);
    } else {
      return false;
    }
  }
  return true;
}

/// Line-by-line reader over the serialized text.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Next line without its newline; nullopt at end of input.
  std::optional<std::string_view> next() {
    if (pos_ > text_.size()) return std::nullopt;
    if (pos_ == text_.size()) {
      pos_ = text_.size() + 1;
      return std::nullopt;
    }
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      std::string_view line = text_.substr(pos_);
      pos_ = text_.size() + 1;
      return line;
    }
    std::string_view line = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return line;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// "<keyword> <rest>" split; rest may be empty.
bool keyword_line(std::string_view line, std::string_view keyword,
                  std::string_view& rest) {
  if (!util::starts_with(line, keyword)) return false;
  if (line.size() == keyword.size()) {
    rest = "";
    return true;
  }
  if (line[keyword.size()] != ' ') return false;
  rest = line.substr(keyword.size() + 1);
  return true;
}

std::optional<std::size_t> count_field(std::string_view s) {
  const auto v = util::parse_ll(s);
  if (!v || *v < 0) return std::nullopt;
  // An absurd count means a corrupt entry; reject before any reserve().
  if (*v > 1000000) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

}  // namespace

std::string serialize_controller(
    const minimalist::SynthesizedController& ctrl) {
  std::string s;
  s += "bbctrl " + std::to_string(kCodecVersion) + "\n";
  s += "name " + ctrl.name + "\n";
  const auto name_block = [&s](const char* keyword,
                               const std::vector<std::string>& names) {
    s += std::string(keyword) + " " + std::to_string(names.size()) + "\n";
    for (const std::string& n : names) s += n + "\n";
  };
  name_block("inputs", ctrl.inputs);
  name_block("outputs", ctrl.outputs);
  name_block("state_bits", ctrl.state_bits);
  s += "num_vars " + std::to_string(ctrl.num_vars) + "\n";
  s += "functions " + std::to_string(ctrl.functions.size()) + "\n";
  for (const minimalist::SolvedFunction& fn : ctrl.functions) {
    s += "fn " + std::string(fn.is_state_bit ? "1" : "0") + " " +
         std::to_string(fn.products.num_vars()) + " " +
         std::to_string(fn.products.size()) + " " + fn.name + "\n";
    for (const logic::Cube& cube : fn.products.cubes()) {
      s += cube.to_string() + "\n";
    }
  }
  s += "state_codes " + std::to_string(ctrl.state_codes.size()) + "\n";
  for (const std::vector<bool>& code : ctrl.state_codes) {
    s += bits_to_string(code) + "\n";
  }
  s += "initial " + bits_to_string(ctrl.initial_state_code) + "\n";
  s += "end\n";
  return s;
}

std::optional<minimalist::SynthesizedController> deserialize_controller(
    std::string_view text, std::string* error) {
  const auto fail = [error](const char* reason)
      -> std::optional<minimalist::SynthesizedController> {
    if (error != nullptr) *error = reason;
    return std::nullopt;
  };

  Reader reader(text);
  std::string_view rest;

  auto line = reader.next();
  if (!line || !keyword_line(*line, "bbctrl", rest)) {
    return fail("missing bbctrl header");
  }
  if (util::parse_ll(rest).value_or(-1) != kCodecVersion) {
    return fail("unsupported codec version");
  }

  minimalist::SynthesizedController ctrl;
  line = reader.next();
  if (!line || !keyword_line(*line, "name", rest)) return fail("missing name");
  ctrl.name = std::string(rest);

  const auto read_names = [&](const char* keyword,
                              std::vector<std::string>& out) -> bool {
    auto header = reader.next();
    std::string_view r;
    if (!header || !keyword_line(*header, keyword, r)) return false;
    const auto n = count_field(r);
    if (!n) return false;
    out.reserve(*n);
    for (std::size_t i = 0; i < *n; ++i) {
      auto entry = reader.next();
      if (!entry) return false;
      out.emplace_back(*entry);
    }
    return true;
  };
  if (!read_names("inputs", ctrl.inputs)) return fail("bad inputs block");
  if (!read_names("outputs", ctrl.outputs)) return fail("bad outputs block");
  if (!read_names("state_bits", ctrl.state_bits)) {
    return fail("bad state_bits block");
  }

  line = reader.next();
  if (!line || !keyword_line(*line, "num_vars", rest)) {
    return fail("missing num_vars");
  }
  const auto num_vars = count_field(rest);
  if (!num_vars) return fail("bad num_vars");
  ctrl.num_vars = *num_vars;

  line = reader.next();
  if (!line || !keyword_line(*line, "functions", rest)) {
    return fail("missing functions header");
  }
  const auto num_fns = count_field(rest);
  if (!num_fns) return fail("bad function count");
  ctrl.functions.reserve(*num_fns);
  for (std::size_t f = 0; f < *num_fns; ++f) {
    line = reader.next();
    if (!line || !keyword_line(*line, "fn", rest)) {
      return fail("missing fn header");
    }
    // "fn <is_state_bit> <num_vars> <num_cubes> <name>"; the name is the
    // remainder of the line (it can in principle contain spaces).
    std::string_view r = rest;
    const auto take_field = [&r]() -> std::string_view {
      const std::size_t sp = r.find(' ');
      std::string_view field = sp == std::string_view::npos ? r
                                                            : r.substr(0, sp);
      r = sp == std::string_view::npos ? std::string_view()
                                       : r.substr(sp + 1);
      return field;
    };
    const std::string_view state_bit_field = take_field();
    const auto fn_vars = count_field(take_field());
    const auto fn_cubes = count_field(take_field());
    if ((state_bit_field != "0" && state_bit_field != "1") || !fn_vars ||
        !fn_cubes) {
      return fail("bad fn header");
    }
    minimalist::SolvedFunction fn;
    fn.name = std::string(r);
    fn.is_state_bit = state_bit_field == "1";
    std::vector<logic::Cube> cubes;
    cubes.reserve(*fn_cubes);
    for (std::size_t c = 0; c < *fn_cubes; ++c) {
      line = reader.next();
      if (!line || line->size() != *fn_vars) return fail("bad cube line");
      try {
        cubes.push_back(logic::Cube::parse(*line));
      } catch (const std::exception&) {
        return fail("bad cube literal");
      }
    }
    fn.products = logic::Cover(*fn_vars, std::move(cubes));
    ctrl.functions.push_back(std::move(fn));
  }

  line = reader.next();
  if (!line || !keyword_line(*line, "state_codes", rest)) {
    return fail("missing state_codes header");
  }
  const auto num_codes = count_field(rest);
  if (!num_codes) return fail("bad state_codes count");
  ctrl.state_codes.reserve(*num_codes);
  for (std::size_t i = 0; i < *num_codes; ++i) {
    line = reader.next();
    std::vector<bool> code;
    if (!line || !bits_from_string(*line, code)) {
      return fail("bad state code row");
    }
    ctrl.state_codes.push_back(std::move(code));
  }

  line = reader.next();
  if (!line || !keyword_line(*line, "initial", rest) ||
      !bits_from_string(rest, ctrl.initial_state_code)) {
    return fail("bad initial state code");
  }
  line = reader.next();
  if (!line || *line != "end") return fail("missing end marker");
  if (reader.next().has_value()) return fail("trailing data after end");
  return ctrl;
}

}  // namespace bb::serve
