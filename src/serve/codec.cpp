#include "src/serve/codec.hpp"

#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace bb::serve {

namespace {

using Controller = minimalist::SynthesizedController;
using Kind = util::JsonValue::Kind;

/// A variable count above this means a corrupt entry; rejected before
/// any allocation sized by it.
constexpr std::int64_t kMaxVars = 1000000;

std::string bits_to_string(const std::vector<bool>& bits) {
  std::string s;
  s.reserve(bits.size());
  for (const bool b : bits) s += b ? '1' : '0';
  return s;
}

/// Reads a '0'/'1' string member; false on any other type or character.
bool bits_from(const util::JsonValue* v, std::vector<bool>& out) {
  if (v == nullptr || !v->is_string()) return false;
  out.reserve(v->string.size());
  for (const char c : v->string) {
    if (c != '0' && c != '1') return false;
    out.push_back(c == '1');
  }
  return true;
}

/// The member `key` when present with kind `kind`, else nullptr.
const util::JsonValue* typed(const util::JsonValue& obj, std::string_view key,
                             Kind kind) {
  const util::JsonValue* v = obj.get(key);
  return v != nullptr && v->kind == kind ? v : nullptr;
}

/// A "num_vars" member within [0, kMaxVars].
std::optional<std::size_t> num_vars_of(const util::JsonValue& obj) {
  const std::int64_t n = obj.get_int("num_vars", -1);
  if (n < 0 || n > kMaxVars) return std::nullopt;
  return static_cast<std::size_t>(n);
}

bool names_from(const util::JsonValue& obj, std::string_view key,
                std::vector<std::string>& out) {
  const util::JsonValue* list = typed(obj, key, Kind::kArray);
  if (list == nullptr) return false;
  out.reserve(list->array.size());
  for (const util::JsonValue& name : list->array) {
    if (!name.is_string()) return false;
    out.push_back(name.string);
  }
  return true;
}

/// One function record; false on any defect.  A cube's width must be
/// its function's num_vars and its literals '0', '1' or '-'.
bool function_from(const util::JsonValue& v, minimalist::SolvedFunction& fn) {
  const util::JsonValue* name = typed(v, "name", Kind::kString);
  const util::JsonValue* state_bit = typed(v, "state_bit", Kind::kBool);
  const util::JsonValue* cubes = typed(v, "cubes", Kind::kArray);
  const auto num_vars = num_vars_of(v);
  if (name == nullptr || state_bit == nullptr || cubes == nullptr ||
      !num_vars) {
    return false;
  }
  fn.name = name->string;
  fn.is_state_bit = state_bit->bool_value;
  std::vector<logic::Cube> parsed;
  parsed.reserve(cubes->array.size());
  for (const util::JsonValue& cube : cubes->array) {
    if (!cube.is_string() || cube.string.size() != *num_vars ||
        cube.string.find_first_not_of("01-") != std::string::npos) {
      return false;
    }
    parsed.push_back(logic::Cube::parse(cube.string));
  }
  fn.products = logic::Cover(*num_vars, std::move(parsed));
  return true;
}

}  // namespace

std::string serialize_controller(const Controller& ctrl) {
  util::JsonWriter w;
  const auto names = [&w](const char* key,
                          const std::vector<std::string>& list) {
    w.key(key).begin_array();
    for (const std::string& n : list) w.value(n);
    w.end_array();
  };
  w.begin_object();
  w.member("codec", kCodecVersion);
  w.member("name", ctrl.name);
  names("inputs", ctrl.inputs);
  names("outputs", ctrl.outputs);
  names("state_bits", ctrl.state_bits);
  w.member("num_vars", static_cast<std::uint64_t>(ctrl.num_vars));
  w.key("functions").begin_array();
  for (const minimalist::SolvedFunction& fn : ctrl.functions) {
    w.begin_object();
    w.member("name", fn.name);
    w.member("state_bit", fn.is_state_bit);
    w.member("num_vars", static_cast<std::uint64_t>(fn.products.num_vars()));
    w.key("cubes").begin_array();
    for (const logic::Cube& cube : fn.products.cubes()) {
      w.value(cube.to_string());
    }
    w.end_array().end_object();
  }
  w.end_array();
  w.key("state_codes").begin_array();
  for (const auto& code : ctrl.state_codes) w.value(bits_to_string(code));
  w.end_array();
  w.member("initial", bits_to_string(ctrl.initial_state_code));
  w.end_object();
  return w.str();
}

std::optional<Controller> deserialize_controller(std::string_view text,
                                                 std::string* error) {
  const auto fail = [error](std::string reason) -> std::optional<Controller> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(text, &parse_error);
  if (!doc) return fail("bad JSON: " + parse_error);
  if (!doc->is_object()) return fail("controller is not a JSON object");
  if (doc->get_int("codec", -1) != kCodecVersion) {
    return fail("unsupported codec version");
  }

  Controller ctrl;
  const util::JsonValue* name = typed(*doc, "name", Kind::kString);
  const auto num_vars = num_vars_of(*doc);
  const util::JsonValue* functions = typed(*doc, "functions", Kind::kArray);
  const util::JsonValue* codes = typed(*doc, "state_codes", Kind::kArray);
  if (name == nullptr || !num_vars || functions == nullptr ||
      codes == nullptr || !names_from(*doc, "inputs", ctrl.inputs) ||
      !names_from(*doc, "outputs", ctrl.outputs) ||
      !names_from(*doc, "state_bits", ctrl.state_bits)) {
    return fail("a top-level member is missing, mistyped or out of range");
  }
  ctrl.name = name->string;
  ctrl.num_vars = *num_vars;
  ctrl.functions.resize(functions->array.size());
  for (std::size_t f = 0; f < ctrl.functions.size(); ++f) {
    if (!function_from(functions->array[f], ctrl.functions[f])) {
      return fail("bad function " + std::to_string(f));
    }
  }
  ctrl.state_codes.resize(codes->array.size());
  for (std::size_t i = 0; i < ctrl.state_codes.size(); ++i) {
    if (!bits_from(&codes->array[i], ctrl.state_codes[i])) {
      return fail("bad state code " + std::to_string(i));
    }
  }
  if (!bits_from(doc->get("initial"), ctrl.initial_state_code)) {
    return fail("bad initial state code");
  }
  return ctrl;
}

}  // namespace bb::serve
