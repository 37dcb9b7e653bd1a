// The clusterer's merge checks, observed: differential tests enumerate
// every merge a clustering run attempts through this entry point.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/opt/cluster.hpp"

namespace bb::opt {

/// Receives each merged body a clustering run checks and the check's
/// verdict (null for a rejected merge), in the order they are checked.
using MergeCheckObserver = std::function<void(
    const ch::Expr& body, const std::shared_ptr<const BmCheck>& verdict)>;

/// t2_clustering, reporting every merge check to `observer`.
std::vector<ClusteredProgram> t2_clustering_observed(
    std::vector<ClusteredProgram> n, const ClusterOptions& options,
    const MergeCheckObserver& observer);

}  // namespace bb::opt
