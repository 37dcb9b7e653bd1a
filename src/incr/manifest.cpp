#include "src/incr/manifest.hpp"

#include <cstdint>
#include <filesystem>

#include "src/util/failpoint.hpp"
#include "src/util/hash.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace fs = std::filesystem;

namespace bb::incr {

const UnitRecord* Manifest::find(std::string_view name) const {
  for (const UnitRecord& unit : units) {
    if (unit.name == name) return &unit;
  }
  return nullptr;
}

std::string manifest_to_bytes(const Manifest& manifest) {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kManifestVersion);
  w.member("library", manifest.library);
  w.member("options", manifest.options);
  w.key("units").begin_array();
  for (const UnitRecord& unit : manifest.units) {
    w.begin_object()
        .member("name", unit.name)
        .member("digest", unit.digest)
        .member("controllers", static_cast<std::uint64_t>(unit.controllers))
        .member("report", unit.report)
        .member("verilog", unit.verilog)
        .end_object();
  }
  w.end_array().end_object();
  return util::frame("bbpm", kManifestVersion, w.str());
}

std::optional<Manifest> manifest_from_bytes(std::string_view bytes,
                                            std::string* error) {
  const auto body = util::unframe("bbpm", kManifestVersion, bytes, error);
  if (!body) return std::nullopt;
  const auto fail = [error](std::string reason) -> std::optional<Manifest> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  std::string parse_error;
  const auto json = util::parse_json(*body, &parse_error);
  if (!json || !json->is_object()) return fail("bad JSON: " + parse_error);
  if (json->get_int("schema_version", -1) != kManifestVersion) {
    return fail("schema_version mismatch");
  }
  Manifest manifest;
  manifest.library = json->get_string("library");
  manifest.options = json->get_string("options");
  const util::JsonValue* units = json->get("units");
  if (units == nullptr || !units->is_array()) return fail("missing units");
  for (const util::JsonValue& u : units->array) {
    if (!u.is_object()) return fail("unit is not an object");
    const util::JsonValue* report = u.get("report");
    const util::JsonValue* verilog = u.get("verilog");
    const std::int64_t controllers = u.get_int("controllers", -1);
    UnitRecord unit;
    unit.name = u.get_string("name");
    unit.digest = u.get_string("digest");
    if (unit.name.empty() || unit.digest.empty() || controllers < 0 ||
        report == nullptr || !report->is_string() || verilog == nullptr ||
        !verilog->is_string()) {
      return fail("unit record missing name/digest/controllers/report/"
                  "verilog");
    }
    unit.controllers = static_cast<std::size_t>(controllers);
    unit.report = report->string;
    unit.verilog = verilog->string;
    manifest.units.push_back(std::move(unit));
  }
  return manifest;
}

std::string manifest_path(const std::string& project_dir) {
  return (fs::path(project_dir) / kManifestFile).string();
}

std::optional<Manifest> load_manifest(const std::string& project_dir,
                                      std::string* error, std::string* bytes) {
  const std::string path = manifest_path(project_dir);
  auto data = util::read_file(path);
  if (!data) {
    std::error_code ec;
    if (error != nullptr) {
      *error = fs::exists(path, ec) ? "cannot read '" + path + "'"
                                    : "no manifest";
    }
    return std::nullopt;
  }
  auto manifest = manifest_from_bytes(*data, error);
  if (manifest && bytes != nullptr) *bytes = std::move(*data);
  return manifest;
}

bool store_manifest(const std::string& project_dir, const Manifest& manifest,
                    std::string* error) {
  try {
    if (util::failpoint("incr.manifest.store")) {
      throw std::runtime_error("injected incr.manifest.store failure");
    }
    std::error_code ec;
    fs::create_directories(project_dir, ec);
    util::write_file_atomic(manifest_path(project_dir),
                            manifest_to_bytes(manifest));
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace bb::incr
