#include "src/minimalist/synth.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace bb::minimalist {

namespace {

/// Evaluation state of the synthesized machine during validation.
struct MachineState {
  std::vector<bool> vars;  // inputs then state bits
  std::vector<bool> outputs;
};

/// Settles the feedback loop after an input change; returns false if it
/// oscillates (should never happen for a correct synthesis).
bool settle(const SynthesizedController& ctrl, MachineState& m) {
  const std::size_t m_inputs = ctrl.inputs.size();
  for (int iter = 0; iter < 200; ++iter) {
    bool changed = false;
    // Outputs follow combinationally.
    for (std::size_t z = 0; z < ctrl.outputs.size(); ++z) {
      const bool v = ctrl.functions[z].products.covers_minterm(m.vars);
      if (m.outputs[z] != v) {
        m.outputs[z] = v;
        changed = true;
      }
    }
    // State bits feed back.
    const std::size_t base = ctrl.outputs.size();
    std::vector<bool> next = m.vars;
    for (std::size_t s = 0; s < ctrl.state_bits.size(); ++s) {
      next[m_inputs + s] =
          ctrl.functions[base + s].products.covers_minterm(m.vars);
    }
    if (next != m.vars) {
      m.vars = std::move(next);
      changed = true;
    }
    if (!changed) return true;
  }
  return false;
}

}  // namespace

std::vector<bool> SynthesizedController::state_code(int s) const {
  if (static_cast<std::size_t>(s) < state_codes.size()) {
    return state_codes[s];
  }
  std::vector<bool> code(state_bits.size(), false);
  if (s >= 0 && static_cast<std::size_t>(s) < code.size()) code[s] = true;
  return code;
}

std::size_t SynthesizedController::num_products() const {
  std::size_t n = 0;
  for (const SolvedFunction& f : functions) n += f.products.size();
  return n;
}

std::size_t SynthesizedController::num_literals() const {
  std::size_t n = 0;
  for (const SolvedFunction& f : functions) n += f.products.num_literals();
  return n;
}

std::string SynthesizedController::to_sol() const {
  std::string s = "# controller " + name + "\n# variables:";
  for (const std::string& in : inputs) s += " " + in;
  for (const std::string& y : state_bits) s += " " + y;
  s += "\n";
  for (const SolvedFunction& f : functions) {
    s += ".fn " + f.name + (f.is_state_bit ? " (state)" : "") + "\n";
    for (const auto& cube : f.products.cubes()) {
      s += cube.to_string() + "\n";
    }
  }
  return s;
}

SynthesizedController synthesize(const bm::Spec& spec, SynthMode mode,
                                 util::WorkBudget* budget,
                                 std::optional<MachineSpec>* machine_out) {
  obs::Span span("minimalist.synthesize", obs::kCatSynth);
  span.arg("controller", spec.name);
  span.arg("states", static_cast<std::uint64_t>(spec.num_states));
  obs::Registry::global().counter("minimalist.synthesized").add();
  MachineSpec machine = extract(spec);

  SynthesizedController out;
  out.name = spec.name;
  out.inputs = machine.inputs;
  out.outputs = spec.output_names();
  out.state_bits = machine.state_bits;
  out.num_vars = machine.num_vars;
  out.state_codes = machine.state_codes;
  out.initial_state_code = machine.initial_state_code;
  out.functions.reserve(machine.functions.size());
  for (const FuncSpec& f : machine.functions) {
    out.functions.push_back(minimize_function(
        f, machine.num_vars, machine.inputs.size(), mode, budget));
  }
  if (machine_out != nullptr) *machine_out = std::move(machine);
  return out;
}

ValidationReport validate_against_spec(const SynthesizedController& ctrl,
                                       const bm::Spec& spec) {
  ValidationReport report;
  const std::size_t m_inputs = ctrl.inputs.size();
  std::map<std::string, std::size_t> input_index;
  for (std::size_t i = 0; i < m_inputs; ++i) input_index[ctrl.inputs[i]] = i;
  std::map<std::string, std::size_t> output_index;
  for (std::size_t i = 0; i < ctrl.outputs.size(); ++i) {
    output_index[ctrl.outputs[i]] = i;
  }

  // Recover per-state wire valuations (the spec is validated, so entry
  // valuations are unique).
  std::vector<std::map<std::string, bool>> vals(spec.num_states);
  {
    std::vector<bool> seen(spec.num_states, false);
    for (const auto& entry : spec.is_input) {
      vals[spec.initial_state][entry.first] = false;
    }
    seen[spec.initial_state] = true;
    const bm::OutArcs out_arcs(spec);
    std::deque<int> queue{spec.initial_state};
    while (!queue.empty()) {
      const int s = queue.front();
      queue.pop_front();
      for (const bm::Arc* arc : out_arcs.from(s)) {
        auto v = vals[s];
        for (const auto& t : arc->in_burst.transitions) v[t.signal] = t.rising;
        for (const auto& t : arc->out_burst.transitions) {
          v[t.signal] = t.rising;
        }
        if (!seen[arc->to]) {
          seen[arc->to] = true;
          vals[arc->to] = std::move(v);
          queue.push_back(arc->to);
        }
      }
    }
  }

  // Replay each arc from its source state's stable configuration, trying
  // several input orders within the burst.
  for (const bm::Arc& arc : spec.arcs) {
    const auto& val_s = vals[arc.from];

    std::vector<ch::Transition> burst = arc.in_burst.transitions;
    std::sort(burst.begin(), burst.end(),
              [](const ch::Transition& a, const ch::Transition& b) {
                return a.signal < b.signal;
              });
    const std::size_t n_orders = std::max<std::size_t>(burst.size(), 1);

    for (std::size_t rot = 0; rot < n_orders; ++rot) {
      std::vector<ch::Transition> order = burst;
      std::rotate(order.begin(), order.begin() + rot, order.end());

      MachineState m;
      m.vars.assign(ctrl.num_vars, false);
      for (const auto& [signal, value] : val_s) {
        const auto it = input_index.find(signal);
        if (it != input_index.end()) m.vars[it->second] = value;
      }
      const std::vector<bool> from_code = ctrl.state_code(arc.from);
      for (std::size_t s = 0; s < ctrl.state_bits.size(); ++s) {
        m.vars[m_inputs + s] = from_code[s];
      }
      m.outputs.assign(ctrl.outputs.size(), false);
      for (const auto& [signal, value] : val_s) {
        const auto it = output_index.find(signal);
        if (it != output_index.end()) m.outputs[it->second] = value;
      }

      // The source configuration must be stable.
      MachineState probe = m;
      if (!settle(ctrl, probe)) {
        report.ok = false;
        report.errors.push_back("oscillation settling state " +
                                std::to_string(arc.from));
        continue;
      }
      if (probe.vars != m.vars || probe.outputs != m.outputs) {
        report.ok = false;
        report.errors.push_back("state " + std::to_string(arc.from) +
                                " is not stable under the synthesized logic");
        continue;
      }

      // Apply the burst one input at a time, watching output monotonicity.
      std::map<std::string, int> changes;
      bool failed = false;
      for (const ch::Transition& t : order) {
        m.vars[input_index.at(t.signal)] = t.rising;
        const MachineState before = m;
        if (!settle(ctrl, m)) {
          report.ok = false;
          report.errors.push_back("oscillation during arc " +
                                  std::to_string(arc.from) + "->" +
                                  std::to_string(arc.to));
          failed = true;
          break;
        }
        for (std::size_t z = 0; z < ctrl.outputs.size(); ++z) {
          if (before.outputs[z] != m.outputs[z]) ++changes[ctrl.outputs[z]];
        }
      }
      if (failed) continue;

      // Check the final configuration against the arc's target.
      auto val_e = val_s;
      for (const auto& t : arc.in_burst.transitions) val_e[t.signal] = t.rising;
      for (const auto& t : arc.out_burst.transitions) {
        val_e[t.signal] = t.rising;
      }
      for (std::size_t z = 0; z < ctrl.outputs.size(); ++z) {
        if (m.outputs[z] != val_e.at(ctrl.outputs[z])) {
          report.ok = false;
          report.errors.push_back(
              "arc " + std::to_string(arc.from) + "->" +
              std::to_string(arc.to) + ": output " + ctrl.outputs[z] +
              " ended at " + (m.outputs[z] ? "1" : "0"));
        }
      }
      const std::vector<bool> to_code = ctrl.state_code(arc.to);
      for (std::size_t s = 0; s < ctrl.state_bits.size(); ++s) {
        const bool want = to_code[s];
        if (m.vars[m_inputs + s] != want) {
          report.ok = false;
          report.errors.push_back("arc " + std::to_string(arc.from) + "->" +
                                  std::to_string(arc.to) + ": state bit " +
                                  ctrl.state_bits[s] + " wrong");
        }
      }
      for (const auto& [signal, count] : changes) {
        if (count > 1) {
          report.ok = false;
          report.errors.push_back("arc " + std::to_string(arc.from) + "->" +
                                  std::to_string(arc.to) + ": output " +
                                  signal + " changed " +
                                  std::to_string(count) + " times");
        }
      }
    }
  }
  return report;
}

}  // namespace bb::minimalist
