// Reference form of the two-level (MN) lint for differential tests:
// lint::lint_two_level against a flow table re-extracted from the
// specification, so a test can lint any controller, cached or not,
// without the table synthesis extracted.  The flow does not need it:
// the cache admits only controllers the lint passed, so a hit is never
// linted again.  A flow table that cannot be extracted is an MN003.
#pragma once

#include <exception>
#include <string>

#include "src/bm/spec.hpp"
#include "src/lint/lint.hpp"
#include "src/minimalist/funcspec.hpp"
#include "src/minimalist/synth.hpp"

namespace bb::lint {

inline Report lint_two_level(const minimalist::SynthesizedController& ctrl,
                             const bm::Spec& spec,
                             const LintOptions& options = {}) {
  minimalist::MachineSpec machine;
  try {
    machine = minimalist::extract(spec);
  } catch (const std::exception& e) {
    Report report = make_report(options);
    report.add("MN003", "controller '" + ctrl.name + "'",
               std::string("flow-table extraction failed: ") + e.what());
    return report;
  }
  return lint_two_level(ctrl, machine, options);
}

}  // namespace bb::lint
