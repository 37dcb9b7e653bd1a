#include "src/flow/analyze.hpp"

#include <exception>
#include <optional>

#include "src/analyze/analyze.hpp"
#include "src/bm/compile.hpp"
#include "src/hsnet/to_ch.hpp"
#include "src/petri/from_ch.hpp"
#include "src/techmap/cells.hpp"
#include "src/techmap/templates.hpp"

namespace bb::flow {

AnalyzeResult analyze_control(const hsnet::Netlist& netlist,
                              const FlowOptions& options,
                              const lint::LintOptions& lopts, bool deep) {
  AnalyzeResult result;
  result.report = lint::make_report(lopts);
  result.report.merge(lint::lint_handshake(netlist, lopts));

  const auto& lib = techmap::CellLibrary::ams035();
  netlist::GateNetlist gates("control");

  std::vector<ch::Program> programs;
  for (const int id : netlist.control_ids()) {
    const auto& component = netlist.component(id);
    if (!options.cluster && techmap::has_template(component.kind)) {
      gates.merge(*techmap::template_circuit(component, lib));
      continue;
    }
    programs.push_back(hsnet::to_ch(component));
  }
  opt::ClusterOptions copts;
  copts.max_states = options.max_states;
  const auto clustered = options.cluster
                             ? opt::optimize(std::move(programs), copts,
                                             nullptr)
                             : opt::wrap(std::move(programs));

  techmap::MapOptions mopts;
  mopts.level_separated = options.level_separated;
  for (std::size_t i = 0; i < clustered.size(); ++i) {
    const auto& program = clustered[i].program;
    const bm::Spec spec = bm::compile(*program.body, program.name);
    result.report.merge(lint::lint_bm(spec, lopts));
    if (deep) {
      result.report.merge(analyze::analyze_bm(spec, lopts));
      result.report.merge(analyze::analyze_petri(
          petri::from_ch(*program.body), program.name, lopts));
    }
    try {
      std::optional<minimalist::MachineSpec> machine;
      const auto ctrl =
          minimalist::synthesize(spec, options.mode, nullptr, &machine);
      result.report.merge(lint::lint_two_level(ctrl, *machine, lopts));
      const std::string prefix = "ctl" + std::to_string(i);
      auto mapped = techmap::map_controller(ctrl, lib, mopts, prefix);
      if (deep) {
        result.report.merge(
            analyze::analyze_mapped(mapped, ctrl, prefix, lopts));
      }
      gates.merge(mapped);
    } catch (const std::exception& e) {
      // An invalid machine was already reported by the BM passes; note
      // the downstream consequence and keep analyzing the others.
      result.report.add("FL005", program.name,
                        std::string("not synthesizable, so its two-level "
                                    "and gate-level logic was not "
                                    "analyzed: ") + e.what());
      result.skipped.push_back(program.name);
    }
  }
  result.report.merge(lint::lint_gates(gates, lopts));
  return result;
}

}  // namespace bb::flow
