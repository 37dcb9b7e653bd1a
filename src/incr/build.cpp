#include "src/incr/build.hpp"

#include <utility>

#include "src/balsa/compile.hpp"
#include "src/balsa/digest.hpp"
#include "src/balsa/parser.hpp"
#include "src/balsa/printer.hpp"
#include "src/netlist/verilog.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/techmap/cells.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"

namespace bb::incr {

namespace {

/// Sums one rebuilt unit's stage times into the build-wide block.
void accumulate(flow::StageTimings* total, const flow::StageTimings& unit) {
  total->to_ch_ms += unit.to_ch_ms;
  total->cluster_ms += unit.cluster_ms;
  total->bm_compile_ms += unit.bm_compile_ms;
  total->minimalist_ms += unit.minimalist_ms;
  total->techmap_ms += unit.techmap_ms;
  total->lint_ms += unit.lint_ms;
  total->controllers_wall_ms += unit.controllers_wall_ms;
  total->jobs = unit.jobs;
  total->cache_hits += unit.cache_hits;
  total->cache_misses += unit.cache_misses;
  total->cache_disk_hits += unit.cache_disk_hits;
  for (const auto& c : unit.controllers) total->controllers.push_back(c);
}

}  // namespace

std::string options_fingerprint(const flow::FlowOptions& options) {
  // Every field here changes what bytes a successful build emits (or
  // whether it succeeds at all, for the lint switch — a reused unit must
  // never hide a finding a rebuild would have gated on).
  std::string image;
  image += "cluster " + std::to_string(options.cluster) + "\n";
  image += std::string("mode ") +
           (options.mode == minimalist::SynthMode::kSpeed ? "speed"
                                                          : "area") +
           "\n";
  image += "level_separated " + std::to_string(options.level_separated) +
           "\n";
  image += "max_states " + std::to_string(options.max_states) + "\n";
  image += "lint " + std::to_string(options.lint) + "\n";
  image += "strict " + std::to_string(options.strict) + "\n";
  image += "work_budget " +
           std::to_string(flow::effective_work_budget(options)) + "\n";
  return util::content_digest(image);
}

std::string unit_digest(const balsa::Procedure& procedure,
                        const std::string& options_fp,
                        const std::string& library_fp) {
  return util::content_digest(balsa::to_source(procedure) + "\noptions " +
                              options_fp + "\nlib " + library_fp + "\n");
}

std::string BuildResult::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", obs::kSchemaVersion);
  w.member("full_rebuild", full_rebuild);
  if (!full_rebuild_reason.empty()) {
    w.member("full_rebuild_reason", full_rebuild_reason);
  }
  w.member("units_rebuilt", static_cast<std::uint64_t>(units_rebuilt));
  w.member("units_reused", static_cast<std::uint64_t>(units_reused));
  w.member("controllers_rebuilt", controllers_rebuilt);
  w.member("controllers_reused", controllers_reused);
  w.member("manifest_stored", manifest_stored);
  w.key("units").begin_array();
  for (const UnitOutcome& unit : units) {
    w.begin_object()
        .member("name", unit.name)
        .member("digest", unit.digest)
        .member("reused", unit.reused)
        .member("controllers", static_cast<std::uint64_t>(unit.controllers))
        .member("ms", unit.ms)
        .end_object();
  }
  w.end_array();
  w.key("timings").raw(timings.to_json());
  w.end_object();
  return w.str();
}

BuildResult build(std::string_view source, const std::string& project_dir,
                  const flow::FlowOptions& options) {
  BuildResult out;
  obs::Span span("incr.build", obs::kCatIncr, &out.timings.total_ms);
  obs::Registry::global().counter("incr.builds").add();

  const auto procedures = balsa::parse_program(source);
  const std::string library_fp = techmap::CellLibrary::ams035().fingerprint();
  const std::string options_fp = options_fingerprint(options);

  // The previous build graph.  Any defect means nothing is reusable;
  // record why so operators can tell a first build from corruption.
  std::string manifest_error;
  std::string previous_bytes;
  const auto previous =
      load_manifest(project_dir, &manifest_error, &previous_bytes);
  if (!previous) {
    out.full_rebuild = true;
    out.full_rebuild_reason = manifest_error;
    obs::Registry::global().counter("incr.manifest.full_rebuilds").add();
  }

  Manifest next;
  next.library = library_fp;
  next.options = options_fp;

  for (const balsa::Procedure& procedure : procedures) {
    UnitRecord record;
    record.name = procedure.name;
    record.digest = unit_digest(procedure, options_fp, library_fp);
    UnitOutcome outcome;
    outcome.name = record.name;
    outcome.digest = record.digest;

    // Reuse path: same inputs, so the stored bytes are the bytes a
    // rebuild would produce.
    const UnitRecord* previous_record =
        previous ? previous->find(procedure.name) : nullptr;
    if (previous_record != nullptr &&
        previous_record->digest == record.digest) {
      outcome.reused = true;
      outcome.controllers = previous_record->controllers;
      out.report += "== unit " + procedure.name + " ==\n" +
                    previous_record->report;
      out.verilog += previous_record->verilog;
      out.controllers_reused += previous_record->controllers;
      ++out.units_reused;
      next.units.push_back(*previous_record);
      out.units.push_back(std::move(outcome));
      continue;
    }

    // Dirty path: run the full flow for this unit.  Controllers shared
    // with other units (or with the previous build, in a daemon) still
    // come out of the synthesis-cache tiers as hits.
    obs::Span unit_span("incr.unit", obs::kCatIncr, &outcome.ms);
    unit_span.arg("unit", procedure.name);
    auto result = flow::synthesize_control(balsa::compile(procedure), options);
    result.gates.set_name(procedure.name);

    // The template baseline reports one info record per controller; the
    // synthesis path times each clustered controller.
    record.controllers = !options.cluster ? result.info.size()
                                          : result.timings.controllers.size();
    record.report = flow::report(result);
    record.verilog = netlist::to_verilog(result.gates);
    unit_span.finish();

    outcome.controllers = record.controllers;
    out.report += "== unit " + procedure.name + " ==\n" + record.report;
    out.verilog += record.verilog;
    out.controllers_rebuilt += result.timings.cache_misses;
    out.controllers_reused += result.timings.cache_hits;
    ++out.units_rebuilt;
    accumulate(&out.timings, result.timings);
    next.units.push_back(std::move(record));
    out.units.push_back(std::move(outcome));
  }

  out.timings.incr_units_reused = out.units_reused;
  out.timings.incr_units_rebuilt = out.units_rebuilt;
  out.timings.incr_controllers_reused = out.controllers_reused;
  out.timings.incr_controllers_rebuilt = out.controllers_rebuilt;

  // Publish the new graph only after every unit succeeded, and only when
  // it differs from the one on disk (a no-op build writes nothing).  A
  // failed store is not a build failure — the output in hand is correct
  // either way.
  std::string store_error;
  out.manifest_stored =
      (previous && manifest_to_bytes(next) == previous_bytes) ||
      store_manifest(project_dir, next, &store_error);
  if (!out.manifest_stored) {
    obs::Registry::global().counter("incr.manifest.store_failures").add();
  }

  auto& registry = obs::Registry::global();
  registry.counter("incr.units.dirty").add(out.units_rebuilt);
  registry.counter("incr.units.reused").add(out.units_reused);
  registry.counter("incr.controllers.rebuilt").add(out.controllers_rebuilt);
  registry.counter("incr.controllers.reused").add(out.controllers_reused);

  span.finish();
  return out;
}

}  // namespace bb::incr
