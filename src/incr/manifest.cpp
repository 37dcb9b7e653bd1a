#include "src/incr/manifest.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/failpoint.hpp"
#include "src/util/hash.hpp"
#include "src/util/io.hpp"
#include "src/util/json.hpp"
#include "src/util/json_parse.hpp"

namespace fs = std::filesystem;

namespace bb::incr {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

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
        .member("artifact", unit.artifact);
    w.key("controllers").begin_array();
    for (const ControllerRecord& ctrl : unit.controllers) {
      w.begin_object()
          .member("name", ctrl.name)
          .member("key", ctrl.key)
          .end_object();
    }
    w.end_array().end_object();
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
    UnitRecord unit;
    unit.name = u.get_string("name");
    unit.digest = u.get_string("digest");
    unit.artifact = u.get_string("artifact");
    if (unit.name.empty() || unit.digest.empty() || unit.artifact.empty()) {
      return fail("unit record missing name/digest/artifact");
    }
    if (const util::JsonValue* ctrls = u.get("controllers");
        ctrls != nullptr && ctrls->is_array()) {
      for (const util::JsonValue& c : ctrls->array) {
        unit.controllers.push_back(
            ControllerRecord{c.get_string("name"), c.get_string("key")});
      }
    }
    manifest.units.push_back(std::move(unit));
  }
  return manifest;
}

std::string artifact_to_bytes(const Artifact& artifact) {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", kManifestVersion);
  w.member("report", artifact.report);
  w.member("verilog", artifact.verilog);
  w.end_object();
  return util::frame("bbart", kManifestVersion, w.str());
}

std::optional<Artifact> artifact_from_bytes(std::string_view bytes,
                                            std::string* error) {
  const auto body = util::unframe("bbart", kManifestVersion, bytes, error);
  if (!body) return std::nullopt;
  std::string parse_error;
  const auto json = util::parse_json(*body, &parse_error);
  if (!json || !json->is_object()) {
    if (error != nullptr) *error = "bad JSON: " + parse_error;
    return std::nullopt;
  }
  if (json->get_int("schema_version", -1) != kManifestVersion) {
    if (error != nullptr) *error = "schema_version mismatch";
    return std::nullopt;
  }
  return Artifact{json->get_string("report"), json->get_string("verilog")};
}

std::string artifact_file_name(std::string_view unit,
                               std::string_view digest) {
  std::string safe;
  for (const char c : unit) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '-';
    safe += ok ? c : '_';
  }
  return safe + "-" + std::string(digest) + ".bba";
}

std::string manifest_path(const std::string& project_dir) {
  return (fs::path(project_dir) / kManifestFile).string();
}

std::string artifact_path(const std::string& project_dir,
                          std::string_view file_name) {
  return (fs::path(project_dir) / kArtifactDir / file_name).string();
}

std::optional<Manifest> load_manifest(const std::string& project_dir,
                                      std::string* error) {
  try {
    return manifest_from_bytes(read_file(manifest_path(project_dir)), error);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
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

std::optional<Artifact> load_artifact(const std::string& project_dir,
                                      std::string_view file_name,
                                      std::string* error) {
  try {
    return artifact_from_bytes(
        read_file(artifact_path(project_dir, file_name)), error);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

bool store_artifact(const std::string& project_dir,
                    std::string_view file_name, const Artifact& artifact,
                    std::string* error) {
  try {
    if (util::failpoint("incr.artifact.store")) {
      throw std::runtime_error("injected incr.artifact.store failure");
    }
    std::error_code ec;
    fs::create_directories(fs::path(project_dir) / kArtifactDir, ec);
    util::write_file_atomic(artifact_path(project_dir, file_name),
                            artifact_to_bytes(artifact));
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

std::size_t gc_artifacts(const std::string& project_dir,
                         const Manifest& keep) {
  std::error_code ec;
  fs::directory_iterator it(fs::path(project_dir) / kArtifactDir, ec);
  if (ec) return 0;
  std::size_t removed = 0;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    bool referenced = false;
    for (const UnitRecord& unit : keep.units) {
      if (unit.artifact == name) {
        referenced = true;
        break;
      }
    }
    if (referenced) continue;
    if (fs::remove(entry.path(), ec)) ++removed;
  }
  return removed;
}

}  // namespace bb::incr
