#include "src/lint/lint.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "src/bm/validate.hpp"
#include "src/minimalist/funcspec.hpp"
#include "src/minimalist/hfmin.hpp"
#include "src/netlist/analysis.hpp"

namespace bb::lint {

namespace {

using hsnet::Component;
using hsnet::ComponentKind;

std::string quoted(const std::string& name) { return "'" + name + "'"; }

}  // namespace

Report make_report(const LintOptions& options) {
  Report report;
  for (const std::string& rule : options.suppress) report.suppress(rule);
  for (const auto& [rule, severity] : options.severity) {
    report.override_severity(rule, severity);
  }
  for (const BaselineEntry& entry : options.baseline) {
    report.baseline(entry);
  }
  return report;
}

bool port_is_active(const Component& c, std::size_t index) {
  const std::size_t last = c.ports.empty() ? 0 : c.ports.size() - 1;
  switch (c.kind) {
    case ComponentKind::kLoop:
    case ComponentKind::kSequence:
    case ComponentKind::kConcur:
      return index > 0;  // activate is passive, outputs are active
    case ComponentKind::kCall:
    case ComponentKind::kSynch:
    case ComponentKind::kMerge:
      return index == last;  // clients/inputs passive, server active
    case ComponentKind::kDecisionWait:
      // activate, in1..inn (all passive), then out1..outn (active).
      return index > static_cast<std::size_t>(c.ways);
    case ComponentKind::kWhile:
    case ComponentKind::kCase:
      return index > 0;  // activate passive; guard/select and bodies active
    case ComponentKind::kPassivator:
    case ComponentKind::kContinue:
    case ComponentKind::kVariable:
    case ComponentKind::kConstant:
    case ComponentKind::kMemory:
      return false;  // purely passive components
    case ComponentKind::kFetch:
      return index > 0;  // activate passive; pulls input, pushes output
    case ComponentKind::kBinaryFunc:
    case ComponentKind::kUnaryFunc:
      return index > 0;  // out is pulled (passive); operands are pulled
    case ComponentKind::kGuard:
      return index > 0;  // query answers a mux-ack; cond is pulled
  }
  return false;
}

Report lint_handshake(const hsnet::Netlist& netlist,
                      const LintOptions& options) {
  Report report = make_report(options);

  // Gather every port occurrence per channel (the netlist's endpoint
  // list de-duplicates component ids, which would hide a component
  // connected twice to the same channel).
  struct PortRef {
    const Component* component;
    std::size_t index;
  };
  std::map<std::string, std::vector<PortRef>> ports;
  for (const Component& c : netlist.components()) {
    for (std::size_t i = 0; i < c.ports.size(); ++i) {
      ports[c.ports[i]].push_back(PortRef{&c, i});
    }
  }

  for (const auto& [name, info] : netlist.channels()) {
    const auto it = ports.find(name);
    const std::size_t uses = it == ports.end() ? 0 : it->second.size();
    const std::string object = "channel " + quoted(name);
    if (uses == 0) {
      report.add("HS002", object,
                 "declared but connected to no component port; it carries "
                 "no handshake and can be removed");
      continue;
    }
    const auto describe = [&](const PortRef& ref) {
      return quoted(ref.component->display_name()) + " port " +
             std::to_string(ref.index) + " (" +
             (port_is_active(*ref.component, ref.index) ? "active"
                                                        : "passive") +
             ")";
    };
    if (uses == 1 && !info.external) {
      report.add("HS001", object,
                 "connected only to " + describe(it->second[0]) +
                     "; a non-external channel needs a peer on the other "
                     "end or the handshake deadlocks");
      continue;
    }
    if (uses > 2) {
      std::string who;
      for (const PortRef& ref : it->second) {
        if (!who.empty()) who += ", ";
        who += describe(ref);
      }
      report.add("HS003", object,
                 "connected to " + std::to_string(uses) +
                     " component ports (" + who +
                     "); channels are point-to-point — use a Call or "
                     "Synch component to share one");
      continue;
    }
    if (uses == 2) {
      const PortRef& a = it->second[0];
      const PortRef& b = it->second[1];
      const bool a_active = port_is_active(*a.component, a.index);
      const bool b_active = port_is_active(*b.component, b.index);
      if (a_active == b_active) {
        report.add("HS004", object,
                   "connects two " +
                       std::string(a_active ? "active" : "passive") +
                       " ports: " + describe(a) + " and " + describe(b) +
                       "; every channel needs exactly one active "
                       "(initiating) and one passive end" +
                       (a_active ? "" : " — two passive ends never start "
                                        "a handshake"));
      }
    }
  }

  // HS005: components reachable from the environment.  Seed with every
  // component touching an external channel and walk shared channels.
  bool has_external = false;
  for (const auto& [name, info] : netlist.channels()) {
    has_external = has_external || info.external;
  }
  if (has_external && !netlist.components().empty()) {
    std::set<int> reached;
    std::deque<int> queue;
    for (const auto& [name, info] : netlist.channels()) {
      if (!info.external) continue;
      for (const int id : info.endpoints) {
        if (reached.insert(id).second) queue.push_back(id);
      }
    }
    while (!queue.empty()) {
      const int id = queue.front();
      queue.pop_front();
      for (const std::string& port : netlist.component(id).ports) {
        const hsnet::ChannelInfo* info = netlist.channel(port);
        if (info == nullptr) continue;
        for (const int peer : info->endpoints) {
          if (reached.insert(peer).second) queue.push_back(peer);
        }
      }
    }
    for (const Component& c : netlist.components()) {
      if (!reached.count(c.id)) {
        report.add("HS005", "component " + quoted(c.display_name()),
                   "not reachable from any external channel; it can never "
                   "be activated and is dead hardware");
      }
    }
  }
  return report;
}

Report lint_bm(const bm::Spec& spec, const LintOptions& options) {
  Report report = make_report(options);
  report.merge(bm::validate(spec).report);
  return report;
}

Report lint_two_level(const minimalist::SynthesizedController& ctrl,
                      const minimalist::MachineSpec& machine,
                      const LintOptions& options) {
  Report report = make_report(options);
  const std::string object = "controller " + quoted(ctrl.name);
  if (machine.functions.size() != ctrl.functions.size() ||
      machine.num_vars != ctrl.num_vars) {
    report.add("MN003", object,
               "logic shape mismatch: specification expects " +
                   std::to_string(machine.functions.size()) +
                   " functions over " + std::to_string(machine.num_vars) +
                   " variables but the controller implements " +
                   std::to_string(ctrl.functions.size()) + " over " +
                   std::to_string(ctrl.num_vars));
    return report;
  }

  for (std::size_t fi = 0; fi < ctrl.functions.size(); ++fi) {
    const minimalist::FuncSpec& fspec = machine.functions[fi];
    const minimalist::SolvedFunction& solved = ctrl.functions[fi];
    const std::string fobject = "function " + quoted(fspec.name);

    for (const logic::Cube& product : solved.products.cubes()) {
      if (product.size() != ctrl.num_vars) {
        report.add("MN003", fobject,
                   "product " + product.to_string() + " spans " +
                       std::to_string(product.size()) + " variables, not " +
                       std::to_string(ctrl.num_vars));
        continue;
      }
      // Mirror is_dhf_implicant but name the witness that fails.
      bool bad = false;
      for (const logic::Cube& off : fspec.off.cubes()) {
        if (product.intersects(off)) {
          report.add("MN001", fobject,
                     "product " + product.to_string() +
                         " intersects OFF-set cube " + off.to_string() +
                         "; the gate output would be 1 where the "
                         "specification requires 0");
          bad = true;
          break;
        }
      }
      if (bad) continue;
      for (const minimalist::Privilege& p : fspec.privileges) {
        if (product.intersects(p.transition) &&
            !product.agrees_with_fixed(p.anchor)) {
          report.add("MN001", fobject,
                     "product " + product.to_string() +
                         " intersects privileged transition cube " +
                         p.transition.to_string() +
                         " without respecting its anchor " +
                         p.anchor.to_string() +
                         "; it can turn on and off again mid-burst "
                         "(dynamic function hazard)");
          break;
        }
      }
    }

    for (const logic::Cube& required : fspec.on_required) {
      const bool covered = std::any_of(
          solved.products.cubes().begin(), solved.products.cubes().end(),
          [&](const logic::Cube& p) { return p.contains(required); });
      if (!covered) {
        report.add("MN002", fobject,
                   "required cube " + required.to_string() +
                       " is not contained in any single product; a "
                       "static-1 transition across it can glitch "
                       "(Nowick/Dill hazard-free covering condition)");
      }
    }
  }
  return report;
}

Report lint_gates(const netlist::GateNetlist& net,
                  const LintOptions& options) {
  Report report = make_report(options);
  const auto& gates = net.gates();
  const int num_nets = net.num_nets();

  const auto net_label = [&](int id) {
    const std::string& name = net.net_name(id);
    return "net " + (name.empty() ? "#" + std::to_string(id) : quoted(name));
  };
  const auto gate_label = [&](int g) {
    return gates[g].cell + " (gate #" + std::to_string(g) + ")";
  };

  // Driver and fanout tables.
  std::vector<std::vector<int>> drivers(num_nets);
  std::vector<int> fanout(num_nets, 0);
  for (std::size_t g = 0; g < gates.size(); ++g) {
    drivers[gates[g].output].push_back(static_cast<int>(g));
    for (const int f : gates[g].fanins) ++fanout[f];
  }

  // NL001: multiple drivers.
  for (int id = 0; id < num_nets; ++id) {
    if (drivers[id].size() > 1) {
      std::string who;
      for (const int g : drivers[id]) {
        if (!who.empty()) who += ", ";
        who += gate_label(g);
      }
      report.add("NL001", net_label(id),
                 "driven by " + std::to_string(drivers[id].size()) +
                     " gate outputs (" + who +
                     "); wired-or is not part of the gate model and the "
                     "simulator resolves only one driver");
    }
  }

  // NL002: floating gate inputs (one finding per net).
  std::set<int> floating_reported;
  for (std::size_t g = 0; g < gates.size(); ++g) {
    for (const int f : gates[g].fanins) {
      if (drivers[f].empty() && !net.is_input(f) &&
          floating_reported.insert(f).second) {
        report.add("NL002", net_label(f),
                   "feeds " + gate_label(static_cast<int>(g)) +
                       " but has no driver and is not marked as a primary "
                       "input; it would float at an undefined level");
      }
    }
  }

  // NL003: combinational cycles.  DEL/DOUT delay cells and state-holding
  // C-elements are legal cycle breakers (the Huffman feedback
  // discipline); any cycle made only of ordinary combinational gates
  // oscillates or latches unpredictably.
  for (const std::vector<int>& scc : netlist::combinational_cycles(net)) {
    std::string nets;
    std::size_t shown = 0;
    for (const int g : scc) {
      if (shown == 8) {
        nets += ", ...";
        break;
      }
      if (!nets.empty()) nets += ", ";
      nets += net_label(gates[g].output);
      ++shown;
    }
    report.add("NL003",
               "cycle through " + std::to_string(scc.size()) + " gate(s)",
               "combinational feedback loop (" + nets +
                   ") contains no DEL/DOUT delay cell and no "
                   "state-holding cell; it can oscillate or latch "
                   "an undefined value");
  }

  // NL004: fanout limits.
  for (int id = 0; id < num_nets; ++id) {
    if (options.fanout_limit > 0 && fanout[id] > options.fanout_limit) {
      report.add("NL004", net_label(id),
                 "drives " + std::to_string(fanout[id]) +
                     " gate inputs (limit " +
                     std::to_string(options.fanout_limit) +
                     "); the bounded-delay assumption of the mapped "
                     "library degrades at high fanout — buffer the net");
    }
  }
  return report;
}

}  // namespace bb::lint
