#include "src/flow/flow.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "src/bm/compile.hpp"
#include "src/bm/validate.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/lint/diag.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/workbudget.hpp"

namespace bb::flow {

namespace {

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// One per-component replacement produced by the degradation path: a
/// hand template circuit, or a standalone area-mode synthesis of one
/// member of a failed clustered controller.
struct FallbackPiece {
  ControllerInfo info;
  std::optional<netlist::GateNetlist> gates;
  std::optional<minimalist::SynthesizedController> ctrl;
  std::string prefix;
};

/// Everything one controller's compile -> lint -> synthesize -> map chain
/// produces.  Workers fill their own Unit; nothing is shared until the
/// deterministic in-order merge, which makes lint absorption and netlist
/// merging thread-safe by construction.
struct Unit {
  ControllerInfo info;
  std::optional<netlist::GateNetlist> gates;
  std::optional<minimalist::SynthesizedController> ctrl;
  std::string prefix;
  lint::Report lint_findings;  ///< non-error findings of this controller
  StageTimings::Controller timing;
  std::exception_ptr error;
  /// Set when the non-strict flow degraded this controller; the merge
  /// then takes `fallback` instead of gates/ctrl.
  std::optional<ControllerFailure> failure;
  std::vector<FallbackPiece> fallback;
};

}  // namespace

std::string_view flow_stage_name(FlowStage stage) {
  switch (stage) {
    case FlowStage::kTranslate:
      return "translate";
    case FlowStage::kCluster:
      return "cluster";
    case FlowStage::kBmCompile:
      return "bm-compile";
    case FlowStage::kLint:
      return "lint";
    case FlowStage::kSynthesis:
      return "synthesis";
    case FlowStage::kTechmap:
      return "techmap";
    case FlowStage::kVerify:
      return "verify";
  }
  return "?";
}

FlowError::FlowError(FlowStage stage, std::string rule, std::string object,
                     std::string message)
    : std::runtime_error("flow[" + rule + "] " +
                         std::string(flow_stage_name(stage)) + ": " + object +
                         ": " + message),
      stage_(stage) {
  diag_.rule = std::move(rule);
  diag_.severity = lint::Severity::kError;
  diag_.object = std::move(object);
  diag_.message = std::move(message);
}

FlowOptions FlowOptions::optimized() {
  FlowOptions o;
  o.cluster = true;
  o.mode = minimalist::SynthMode::kSpeed;
  o.level_separated = true;
  return o;
}

FlowOptions FlowOptions::unoptimized() {
  FlowOptions o;
  o.cluster = false;
  o.mode = minimalist::SynthMode::kArea;
  o.level_separated = false;
  return o;
}

LintError::LintError(std::string stage, lint::Report findings)
    : std::runtime_error("flow: lint found " +
                         std::to_string(findings.count(
                             lint::Severity::kError)) +
                         " error(s) in " + stage + "\n" + findings.to_text()),
      stage_(std::move(stage)),
      report_(std::move(findings)) {}

int effective_jobs(const FlowOptions& options) {
  if (options.jobs > 0) return options.jobs;
  return static_cast<int>(util::ThreadPool::recommended_jobs());
}

std::uint64_t effective_work_budget(const FlowOptions& options) {
  if (options.work_budget > 0) {
    return static_cast<std::uint64_t>(options.work_budget);
  }
  if (options.work_budget < 0) return 0;
  // Garbage or trailing text ("1e6", "10x") falls back to unlimited
  // instead of a prefix-parsed cap.
  return static_cast<std::uint64_t>(
      util::positive_env("BB_WORK_BUDGET").value_or(0));
}

minimalist::SynthesizedController synthesize_cached(
    const bm::Spec& spec, minimalist::SynthMode mode,
    minimalist::SynthCache& cache, util::WorkBudget* budget,
    minimalist::CacheTier* tier, lint::Report* findings) {
  if (findings != nullptr) *findings = lint::Report{};
  if (auto cached = cache.lookup(spec, mode, tier)) return std::move(*cached);
  std::optional<minimalist::MachineSpec> machine;
  minimalist::SynthesizedController ctrl =
      minimalist::synthesize(spec, mode, budget, &machine);
  if (!ctrl.functions.empty() && util::failpoint("flow.synthesis.widen")) {
    // A synthesis defect on demand: the first product of the first
    // function grows to the all-don't-care cube, which meets that
    // function's OFF-set (MN001).
    auto& products = ctrl.functions.front().products;
    std::vector<logic::Cube> cubes = products.cubes();
    if (cubes.empty()) cubes.emplace_back();
    cubes.front() = logic::Cube(ctrl.num_vars);
    products = logic::Cover(ctrl.num_vars, std::move(cubes));
  }
  lint::Report report;
  {
    obs::Span span("flow.lint.two_level", obs::kCatFlow);
    span.arg("controller", spec.name);
    report = lint::lint_two_level(ctrl, *machine);
  }
  if (report.empty()) cache.store(spec, mode, ctrl);
  if (findings != nullptr) *findings = std::move(report);
  return ctrl;
}

ControlResult synthesize_control(const hsnet::Netlist& netlist,
                                 const FlowOptions& options) {
  ControlResult result;
  // All StageTimings fields are accumulated through spans; the span also
  // records a trace event when tracing is on.  The total span is closed
  // explicitly before returning so its write into `result` cannot chase a
  // moved-from object; on the exception paths its destructor fires before
  // `result` unwinds (declaration order), which is equally safe.
  obs::Span total_span("flow.synthesize_control", obs::kCatFlow,
                       &result.timings.total_ms);
  total_span.arg("design", netlist.name());
  obs::Registry::global().counter("flow.runs").add();
  const auto& lib = techmap::CellLibrary::ams035();
  minimalist::SynthCache* cache = options.cache_instance;
  // Salt every cache key with the technology contract so a persistent
  // tier can never serve a controller mapped under a different library.
  if (cache != nullptr) cache->set_library_version(lib.fingerprint());

  // The static-analysis stage: every IR is linted as it is produced;
  // Error-severity findings abort, warnings accumulate in the result.
  const auto absorb = [&](std::string stage, lint::Report findings) {
    if (findings.has_errors()) {
      throw LintError(std::move(stage), std::move(findings));
    }
    result.lint_report.merge(findings);
  };
  if (options.lint) {
    obs::Span span("flow.lint.handshake", obs::kCatFlow,
                   &result.timings.lint_ms);
    absorb("handshake netlist '" + netlist.name() + "'",
           lint::lint_handshake(netlist));
  }

  // Balsa-to-CH for every control component; in the template baseline,
  // components with a hand-optimized circuit skip the synthesis path.
  std::vector<ch::Program> programs;
  {
    obs::Span span("flow.to_ch", obs::kCatFlow, &result.timings.to_ch_ms);
    for (const int id : netlist.control_ids()) {
      const auto& component = netlist.component(id);
      if (!options.cluster && techmap::has_template(component.kind)) {
        auto circuit = techmap::template_circuit(component, lib);
        ControllerInfo info;
        info.name = component.display_name() + " (template)";
        info.members = {component.display_name()};
        info.area = circuit->total_area();
        result.info.push_back(std::move(info));
        result.gates.merge(*circuit);
        continue;
      }
      programs.push_back(hsnet::to_ch(component));
    }
    span.arg("programs", static_cast<std::uint64_t>(programs.size()));
  }

  // Clustering (Section 4): T2 (which runs T1) over the CH programs.
  std::vector<opt::ClusteredProgram> clustered;
  {
    obs::Span span("flow.cluster", obs::kCatFlow,
                   &result.timings.cluster_ms);
    if (options.cluster) {
      opt::ClusterOptions copts;
      copts.max_states = options.max_states;
      clustered =
          opt::optimize(std::move(programs), copts, &result.cluster_stats);
    } else {
      clustered = opt::wrap(std::move(programs));
    }
    span.arg("controllers", static_cast<std::uint64_t>(clustered.size()));
  }

  // CH-to-BMS, Minimalist, tech mapping, one controller per work unit.
  // Units are independent: each worker compiles, lints, synthesizes and
  // maps into its own Unit, then the main thread merges in index order,
  // so the output is byte-identical to the serial flow (the "ctl<i>"
  // prefixes are assigned from the index, not from completion order).
  techmap::MapOptions mopts;
  mopts.level_separated = options.level_separated;

  std::vector<Unit> units(clustered.size());

  // Members of a degraded controller are re-implemented standalone; the
  // lookup is read-only and shared by all workers.
  std::map<std::string, const hsnet::Component*> component_by_name;
  for (const int id : netlist.control_ids()) {
    const auto& component = netlist.component(id);
    component_by_name.emplace(component.display_name(), &component);
  }
  const std::uint64_t budget_ops = effective_work_budget(options);

  // The unclustered per-component baseline for one failed controller:
  // hand templates where the library has them, standalone area-mode
  // synthesis otherwise.  Fallback synthesis runs without a work budget
  // — per-component machines are small by construction, and a fallback
  // that can itself fail would leave nothing to degrade to.
  const auto run_fallback = [&](Unit& unit, std::size_t i, FlowStage stage,
                                const std::string& rule,
                                const std::string& reason) {
    const auto& program = clustered[i].program;
    obs::Span span("flow.fallback", obs::kCatFlow);
    span.arg("controller", program.name);
    span.arg("rule", rule);
    obs::Registry::global().counter("flow.controllers.degraded").add();
    unit.gates.reset();
    unit.ctrl.reset();
    unit.prefix.clear();
    unit.fallback.clear();

    int templated = 0;
    int synthesized = 0;
    // A T2 fragment stands for its call component, which is degraded
    // once however many of its fragments the controller absorbed.
    std::set<std::string> degraded;
    for (const std::string& name : clustered[i].members) {
      std::string member = name;
      int client = 0;
      std::string call_name;
      if (!component_by_name.count(member) &&
          opt::parse_fragment_tag(member, call_name, client)) {
        member = std::move(call_name);
      }
      if (!degraded.insert(member).second) continue;
      const auto it = component_by_name.find(member);
      if (it == component_by_name.end()) {
        throw FlowError(stage, "FL004", program.name,
                        "fallback member '" + member +
                            "' is not a control component; original "
                            "failure: " + reason);
      }
      const hsnet::Component& component = *it->second;
      const std::size_t k = unit.fallback.size();
      FallbackPiece piece;
      if (techmap::has_template(component.kind)) {
        auto circuit = techmap::template_circuit(component, lib);
        piece.info.name = member + " (fallback template)";
        piece.info.members = {member};
        piece.info.area = circuit->total_area();
        piece.gates = std::move(*circuit);
        ++templated;
      } else {
        ch::Program fallback_program = hsnet::to_ch(component);
        const bm::Spec spec =
            bm::compile(*fallback_program.body, fallback_program.name);
        const auto check = bm::validate(spec);
        if (!check.ok) {
          throw FlowError(stage, "FL004", fallback_program.name,
                          "fallback member failed BM validation: " +
                              check.errors[0] + "; original failure: " +
                              reason);
        }
        minimalist::SynthesizedController ctrl =
            cache != nullptr
                ? synthesize_cached(spec, minimalist::SynthMode::kArea,
                                    *cache)
                : minimalist::synthesize(spec, minimalist::SynthMode::kArea);
        techmap::MapOptions fallback_mopts;
        fallback_mopts.level_separated = false;
        piece.prefix = "ctl" + std::to_string(i) + "f" + std::to_string(k);
        piece.gates =
            techmap::map_controller(ctrl, lib, fallback_mopts, piece.prefix);
        piece.info.name = fallback_program.name + " (fallback)";
        piece.info.members = {member};
        piece.info.states = spec.num_states;
        piece.info.products = ctrl.num_products();
        piece.info.literals = ctrl.num_literals();
        piece.info.area = piece.gates->total_area();
        piece.ctrl = std::move(ctrl);
        ++synthesized;
      }
      unit.fallback.push_back(std::move(piece));
    }

    ControllerFailure failure;
    failure.controller = program.name;
    failure.stage = stage;
    failure.rule = rule;
    failure.reason = reason;
    failure.members = clustered[i].members;
    failure.fallback = "per-component baseline (" +
                       std::to_string(templated) + " template(s), " +
                       std::to_string(synthesized) + " synthesized)";
    unit.failure = std::move(failure);
  };

  const auto run_unit = [&](std::size_t i) {
    Unit& unit = units[i];
    const auto& program = clustered[i].program;
    unit.timing.name = program.name;
    obs::Span unit_span("flow.controller", obs::kCatFlow);
    unit_span.arg("name", program.name);
    unit_span.arg("index", static_cast<std::uint64_t>(i));
    // Tracks how far the chain got, for FlowError/ControllerFailure
    // attribution when an unstructured exception escapes a stage.
    FlowStage stage = FlowStage::kBmCompile;
    try {
      const auto local_absorb = [&](std::string lint_stage,
                                    lint::Report findings) {
        if (findings.has_errors()) {
          throw LintError(std::move(lint_stage), std::move(findings));
        }
        unit.lint_findings.merge(findings);
      };

      std::optional<util::WorkBudget> budget_storage;
      util::WorkBudget* budget = nullptr;
      if (budget_ops > 0) {
        budget_storage.emplace(budget_ops);
        budget = &*budget_storage;
      }

      // A merged controller's machine is the one its merge check compiled
      // and validated; only a controller that was never merged compiles
      // here.
      const opt::BmCheck* carried = clustered[i].check.get();
      std::optional<bm::Spec> spec_storage;
      {
        obs::Span span("flow.bm_compile", obs::kCatFlow,
                       &unit.timing.bm_compile_ms);
        span.arg("controller", program.name);
        span.arg("members",
                 static_cast<std::uint64_t>(clustered[i].members.size()));
        span.arg("reused", static_cast<std::uint64_t>(carried != nullptr));
        spec_storage = opt::machine_of(clustered[i]);
        if (!options.lint && carried == nullptr) {
          const auto check = bm::validate(*spec_storage);
          if (!check.ok) {
            throw FlowError(FlowStage::kBmCompile, "FL001", program.name,
                            "failed BM validation: " + check.errors[0]);
          }
        }
        // Clustering never merges past the cap, but a degraded flow also
        // guards single components that arrive oversized on their own.
        if (!options.strict && options.max_states > 0 &&
            spec_storage->num_states > options.max_states) {
          throw FlowError(FlowStage::kBmCompile, "FL003", program.name,
                          std::to_string(spec_storage->num_states) +
                              " states exceed the max_states cap of " +
                              std::to_string(options.max_states));
        }
        span.arg("states",
                 static_cast<std::uint64_t>(spec_storage->num_states));
      }
      const bm::Spec& spec = *spec_storage;
      if (options.lint) {
        stage = FlowStage::kLint;
        obs::Span span("flow.lint.bm", obs::kCatFlow, &unit.timing.lint_ms);
        span.arg("controller", program.name);
        local_absorb("BM spec of controller '" + program.name + "'",
                     carried != nullptr ? carried->validation.report
                                        : lint::lint_bm(spec));
      }

      stage = FlowStage::kSynthesis;
      // The MN findings: synthesize_cached lints a miss before admitting
      // it (a hit was linted when it was stored); the uncached path
      // keeps the flow table synthesis extracted and lints below.
      lint::Report two_level;
      std::optional<minimalist::MachineSpec> machine;
      minimalist::SynthesizedController ctrl = [&] {
        obs::Span span("flow.synthesis", obs::kCatSynth,
                       &unit.timing.minimalist_ms);
        span.arg("controller", program.name);
        try {
          minimalist::CacheTier tier = minimalist::CacheTier::kMiss;
          auto synthesized =
              cache != nullptr
                  ? synthesize_cached(spec, options.mode, *cache, budget,
                                      &tier, &two_level)
                  : minimalist::synthesize(spec, options.mode, budget,
                                           options.lint ? &machine : nullptr);
          unit.timing.cache_hit = tier != minimalist::CacheTier::kMiss;
          unit.timing.cache_disk = tier == minimalist::CacheTier::kDisk;
          span.arg("cache",
                   !unit.timing.cache_hit ? (cache != nullptr ? "miss" : "off")
                   : unit.timing.cache_disk ? "disk-hit"
                                            : "hit");
          return synthesized;
        } catch (const util::WorkBudgetExceeded& e) {
          throw FlowError(FlowStage::kSynthesis, "FL002", program.name,
                          e.what());
        }
      }();

      if (options.lint) {
        stage = FlowStage::kLint;
        if (machine) {
          obs::Span span("flow.lint.two_level", obs::kCatFlow,
                         &unit.timing.lint_ms);
          span.arg("controller", program.name);
          two_level = lint::lint_two_level(ctrl, *machine);
          machine.reset();  // free the flow table before techmap's peak
        }
        local_absorb("two-level logic of controller '" + program.name + "'",
                     std::move(two_level));
      }

      stage = FlowStage::kTechmap;
      unit.prefix = "ctl" + std::to_string(i);
      {
        obs::Span span("flow.techmap", obs::kCatFlow,
                       &unit.timing.techmap_ms);
        span.arg("controller", program.name);
        unit.gates = techmap::map_controller(ctrl, lib, mopts, unit.prefix);
      }

      unit.info.name = program.name;
      unit.info.members = clustered[i].members;
      unit.info.states = spec.num_states;
      unit.info.products = ctrl.num_products();
      unit.info.literals = ctrl.num_literals();
      unit.info.area = unit.gates->total_area();
      unit.ctrl = std::move(ctrl);
    } catch (...) {
      if (options.strict) {
        unit.error = std::current_exception();
        return;
      }
      // Degrade: replace this controller with its per-component
      // baseline.  Only the fallback's own failure aborts the flow.
      try {
        try {
          throw;
        } catch (const FlowError& e) {
          run_fallback(unit, i, e.stage(), e.diagnostic().rule, e.what());
        } catch (const std::exception& e) {
          run_fallback(unit, i, stage, "FL005", e.what());
        }
      } catch (...) {
        unit.error = std::current_exception();
      }
    }
  };

  const int max_useful = units.empty() ? 1 : static_cast<int>(units.size());
  const int jobs = std::max(1, std::min(effective_jobs(options), max_useful));
  result.timings.jobs = jobs;
  obs::Registry::global().counter("flow.controllers").add(units.size());
  {
    obs::Span span("flow.controllers", obs::kCatFlow,
                   &result.timings.controllers_wall_ms);
    span.arg("count", static_cast<std::uint64_t>(units.size()));
    span.arg("jobs", static_cast<std::uint64_t>(jobs));
    if (jobs <= 1 || units.size() <= 1) {
      for (std::size_t i = 0; i < units.size(); ++i) run_unit(i);
    } else {
      // Propagate the ambient trace context onto the pool workers: a
      // controller synthesized for one service request must tag its
      // spans with that request's trace id even though it runs on a
      // different thread.  Captured by value here, reinstalled per task.
      const std::string trace_id = obs::current_trace_id();
      util::ThreadPool pool(jobs);
      util::parallel_for_index(pool, units.size(),
                               [&run_unit, &trace_id](std::size_t i) {
                                 obs::TraceContextScope scope(trace_id);
                                 run_unit(i);
                               });
    }
  }

  // Deterministic in-order merge.  Errors surface exactly as in the
  // serial flow: the lowest-index failing controller wins.
  for (std::size_t i = 0; i < units.size(); ++i) {
    Unit& unit = units[i];
    if (unit.error) std::rethrow_exception(unit.error);
    result.lint_report.merge(unit.lint_findings);
    result.timings.bm_compile_ms += unit.timing.bm_compile_ms;
    result.timings.minimalist_ms += unit.timing.minimalist_ms;
    result.timings.techmap_ms += unit.timing.techmap_ms;
    result.timings.lint_ms += unit.timing.lint_ms;
    if (cache != nullptr) {
      if (unit.timing.cache_hit) {
        ++result.timings.cache_hits;
        if (unit.timing.cache_disk) ++result.timings.cache_disk_hits;
      } else {
        ++result.timings.cache_misses;
      }
    }
    result.timings.controllers.push_back(std::move(unit.timing));
    if (unit.failure) {
      // Degraded controller: merge its per-component fallback pieces and
      // surface the failure as a warning diagnostic plus a structured
      // ControllerFailure record.
      result.lint_report.add("FL005", unit.failure->controller,
                             "[" +
                                 std::string(flow_stage_name(
                                     unit.failure->stage)) +
                                 "/" + unit.failure->rule + "] " +
                                 unit.failure->reason + "; replaced by " +
                                 unit.failure->fallback);
      for (FallbackPiece& piece : unit.fallback) {
        result.info.push_back(std::move(piece.info));
        if (piece.gates) result.gates.merge(*piece.gates);
        if (piece.ctrl) {
          result.controllers.push_back(std::move(*piece.ctrl));
          result.prefixes.push_back(std::move(piece.prefix));
        }
      }
      result.failures.push_back(std::move(*unit.failure));
      continue;
    }
    result.info.push_back(std::move(unit.info));
    result.gates.merge(*unit.gates);
    result.controllers.push_back(std::move(*unit.ctrl));
    result.prefixes.push_back(std::move(unit.prefix));
  }

  if (options.lint) {
    obs::Span span("flow.lint.gates", obs::kCatFlow,
                   &result.timings.lint_ms);
    absorb("merged control netlist",
           lint::lint_gates(result.gates));
  }
  result.area = result.gates.total_area();
  total_span.finish();
  return result;
}

std::string StageTimings::to_text() const {
  std::string s = "stage timings (ms): to_ch " + fmt_ms(to_ch_ms) +
                  ", cluster " + fmt_ms(cluster_ms) + ", bm_compile " +
                  fmt_ms(bm_compile_ms) + ", minimalist " +
                  fmt_ms(minimalist_ms) + ", techmap " + fmt_ms(techmap_ms) +
                  ", lint " + fmt_ms(lint_ms) + "\n";
  s += "controllers wall " + fmt_ms(controllers_wall_ms) + " ms on " +
       std::to_string(jobs) + " job(s), total " + fmt_ms(total_ms) +
       " ms; cache " + std::to_string(cache_hits) + " hit(s) (" +
       std::to_string(cache_disk_hits) + " from disk), " +
       std::to_string(cache_misses) + " miss(es)\n";
  if (incr_units_reused + incr_units_rebuilt > 0) {
    s += "incremental: " + std::to_string(incr_units_rebuilt) +
         " unit(s) rebuilt, " + std::to_string(incr_units_reused) +
         " reused; controllers " +
         std::to_string(incr_controllers_rebuilt) + " rebuilt, " +
         std::to_string(incr_controllers_reused) + " reused\n";
  }
  for (const Controller& c : controllers) {
    s += "  " + c.name + ": bm " + fmt_ms(c.bm_compile_ms) + ", synth " +
         fmt_ms(c.minimalist_ms) + ", map " + fmt_ms(c.techmap_ms) +
         ", lint " + fmt_ms(c.lint_ms) +
         (c.cache_hit ? (c.cache_disk ? " (disk cache hit)" : " (cache hit)")
                      : "") +
         "\n";
  }
  return s;
}

std::string StageTimings::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.member("schema_version", obs::kSchemaVersion);
  w.member("to_ch_ms", to_ch_ms);
  w.member("cluster_ms", cluster_ms);
  w.member("bm_compile_ms", bm_compile_ms);
  w.member("minimalist_ms", minimalist_ms);
  w.member("techmap_ms", techmap_ms);
  w.member("lint_ms", lint_ms);
  w.member("controllers_wall_ms", controllers_wall_ms);
  w.member("total_ms", total_ms);
  w.member("jobs", jobs);
  w.member("cache_hits", cache_hits);
  w.member("cache_misses", cache_misses);
  w.member("cache_disk_hits", cache_disk_hits);
  w.member("incr_units_reused", incr_units_reused);
  w.member("incr_units_rebuilt", incr_units_rebuilt);
  w.member("incr_controllers_reused", incr_controllers_reused);
  w.member("incr_controllers_rebuilt", incr_controllers_rebuilt);
  w.key("controllers").begin_array();
  for (const Controller& c : controllers) {
    w.begin_object()
        .member("name", c.name)
        .member("bm_compile_ms", c.bm_compile_ms)
        .member("minimalist_ms", c.minimalist_ms)
        .member("techmap_ms", c.techmap_ms)
        .member("lint_ms", c.lint_ms)
        .member("cache_hit", c.cache_hit)
        .member("cache_disk", c.cache_disk)
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string report(const ControlResult& result, bool with_timings) {
  std::string s;
  for (const ControllerInfo& info : result.info) {
    s += info.name + ": " + std::to_string(info.states) + " states, " +
         std::to_string(info.products) + " products, " +
         std::to_string(info.literals) + " literals, area " +
         std::to_string(info.area) + "\n";
  }
  s += "total control area: " + std::to_string(result.area) + "\n";
  for (const ControllerFailure& f : result.failures) {
    s += "degraded " + f.controller + " [" +
         std::string(flow_stage_name(f.stage)) + "/" + f.rule +
         "]: " + f.reason + " -> " + f.fallback + "\n";
  }
  if (with_timings) s += result.timings.to_text();
  return s;
}

}  // namespace bb::flow
