#include "src/bm/spec.hpp"

#include <algorithm>

namespace bb::bm {

bool Burst::contains(const Burst& other) const {
  for (const ch::Transition& t : other.transitions) {
    if (std::find(transitions.begin(), transitions.end(), t) ==
        transitions.end()) {
      return false;
    }
  }
  return true;
}

void Burst::normalize() {
  std::sort(transitions.begin(), transitions.end(),
            [](const ch::Transition& a, const ch::Transition& b) {
              if (a.signal != b.signal) return a.signal < b.signal;
              return a.rising < b.rising;
            });
}

std::string Burst::to_string() const {
  Burst copy = *this;
  copy.normalize();
  std::string s;
  for (std::size_t i = 0; i < copy.transitions.size(); ++i) {
    if (i > 0) s += " ";
    s += copy.transitions[i].signal + (copy.transitions[i].rising ? "+" : "-");
  }
  return s;
}

bool Burst::operator==(const Burst& other) const {
  return contains(other) && other.contains(*this);
}

std::vector<std::string> Spec::input_names() const {
  std::vector<std::string> out;
  for (const auto& [name, is_in] : is_input) {
    if (is_in) out.push_back(name);
  }
  return out;
}

std::vector<std::string> Spec::output_names() const {
  std::vector<std::string> out;
  for (const auto& [name, is_in] : is_input) {
    if (!is_in) out.push_back(name);
  }
  return out;
}

OutArcs::OutArcs(const Spec& spec) {
  if (spec.arcs.empty()) return;
  int lo = spec.arcs.front().from;
  int hi = lo;
  for (const Arc& a : spec.arcs) {
    lo = std::min(lo, a.from);
    hi = std::max(hi, a.from);
  }
  first_ = lo;
  by_state_.resize(static_cast<std::size_t>(hi - lo) + 1);
  for (const Arc& a : spec.arcs) {
    by_state_[static_cast<std::size_t>(a.from - lo)].push_back(&a);
  }
}

const std::vector<const Arc*>& OutArcs::from(int state) const {
  if (state < first_ || state - first_ >= static_cast<int>(by_state_.size())) {
    return none_;
  }
  return by_state_[static_cast<std::size_t>(state - first_)];
}

std::string Spec::to_bms() const {
  std::string s = "name " + name + "\n";
  for (const std::string& in : input_names()) s += "input " + in + " 0\n";
  for (const std::string& out : output_names()) s += "output " + out + " 0\n";
  for (const Arc& a : arcs) {
    s += std::to_string(a.from) + " " + std::to_string(a.to) + " " +
         a.in_burst.to_string() + " | " + a.out_burst.to_string() + "\n";
  }
  return s;
}

std::string Spec::to_canonical() const {
  std::map<std::string, std::string> rename;
  const auto positional = [&rename](const std::vector<std::string>& names,
                                    char tag) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::string label(1, tag);
      label += std::to_string(i);
      rename[names[i]] = std::move(label);
    }
  };
  const std::vector<std::string> ins = input_names();
  positional(ins, 'i');
  const std::vector<std::string> outs = output_names();
  positional(outs, 'o');

  const auto burst_canon = [&](const Burst& burst) {
    std::vector<std::string> tokens;
    tokens.reserve(burst.transitions.size());
    for (const ch::Transition& t : burst.transitions) {
      tokens.push_back(rename.at(t.signal) + (t.rising ? "+" : "-"));
    }
    std::sort(tokens.begin(), tokens.end());
    std::string s;
    for (const std::string& token : tokens) s += token + " ";
    return s;
  };

  std::string s = "states ";
  s += std::to_string(num_states);
  s += " init ";
  s += std::to_string(initial_state);
  s += " inputs ";
  s += std::to_string(ins.size());
  s += " outputs ";
  s += std::to_string(outs.size());
  s += "\n";
  for (const Arc& a : arcs) {
    s += std::to_string(a.from);
    s += ">";
    s += std::to_string(a.to);
    s += " ";
    s += burst_canon(a.in_burst);
    s += "| ";
    s += burst_canon(a.out_burst);
    s += "\n";
  }
  return s;
}

std::string Spec::to_dot() const {
  std::string s = "digraph \"" + name + "\" {\n  rankdir=TB;\n";
  s += "  init [shape=point];\n  init -> s" +
       std::to_string(initial_state) + ";\n";
  for (int i = 0; i < num_states; ++i) {
    s += "  s" + std::to_string(i) + " [label=\"" + std::to_string(i) +
         "\"];\n";
  }
  for (const Arc& a : arcs) {
    s += "  s" + std::to_string(a.from) + " -> s" + std::to_string(a.to) +
         " [label=\"" + a.in_burst.to_string() + " /\\n" +
         a.out_burst.to_string() + "\"];\n";
  }
  return s + "}\n";
}

}  // namespace bb::bm
